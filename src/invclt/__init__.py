"""Normal-approximation diagnostics for score sums over random
fixed-point-free involutions: standardization, uniform sampling, the
exchangeable-pair and zero-bias couplings, exact and Monte Carlo distances
to the standard normal, and the explicit rate bounds with their
verification oracles.

The command line (``invclt.cli``) is the entry point; library callers import
from the submodules (``invclt.arrays``, ``invclt.involutions``,
``invclt.coupling`` ...).  The package root re-exports only ``ecdf``.
"""

from .distances import ecdf

__version__ = "0.1.0"

__all__ = ["ecdf"]
