"""Every exact oracle stops just above its size limit, and the options that
once tuned the limits, chunking and tolerances are gone."""

import importlib
import inspect
import pkgutil

import pytest

import invclt
from invclt import arrays, bounds, cli, coupling, distances, involutions, rng as rngmod
from invclt.errors import InputError

from conftest import cli_options, rand_centered


ORACLES = {
    # name: (callable, its size limit, whether it takes n rather than an array)
    "square_bias_table": (coupling.square_bias_table, coupling.TABLE_CAP, False),
    "exhaustive_sweep": (coupling.exhaustive_sweep, coupling.SWEEP_CAP, False),
    "exact_wstar_cdf": (coupling.exact_wstar_cdf, coupling.SWEEP_CAP, False),
    "exact_zero_bias_moments": (coupling.exact_zero_bias_moments, coupling.SWEEP_CAP, False),
    "exact_gap": (coupling.exact_gap, involutions.MATRIX_CAP, False),
    "stein_sweep": (coupling.stein_sweep, involutions.MATRIX_CAP, False),
    "exact_collision_probability": (
        bounds.exact_collision_probability, involutions.MATRIX_CAP, False
    ),
    "involution_matrix": (involutions.involution_matrix, involutions.MATRIX_CAP, True),
    "enumerate_involutions": (involutions.enumerate_involutions, involutions.ENUM_CAP, True),
    "exact_w_distribution": (involutions.exact_w_distribution, involutions.ENUM_CAP, False),
}


@pytest.mark.parametrize("name", list(ORACLES))
def test_oracle_cap_fires_just_above_its_constant(monkeypatch, name):
    fn, cap, takes_n = ORACLES[name]
    n = cap + 2  # the next even size
    arg = n if takes_n else rand_centered(n, seed=n)
    tables = []
    if name != "square_bias_table":
        # the guard must fire before any O(n^4) table is built
        monkeypatch.setattr(coupling, "square_bias_table", lambda *a: tables.append(a))
    with pytest.raises(InputError, match="exceeds .* cap"):
        fn(arg)
    assert tables == []


REMOVED = {
    coupling.square_bias_table: {"cap"},
    coupling.exact_gap: {"cap"},
    coupling.stein_sweep: {"cap"},
    coupling.exhaustive_sweep: {"cap"},
    coupling.exact_wstar_cdf: {"cap"},
    coupling.exact_zero_bias_moments: {"cap", "k_max"},
    involutions.enumerate_involutions: {"cap"},
    involutions.involution_matrix: {"cap"},
    involutions.exact_w_distribution: {"cap"},
    bounds.exact_collision_probability: {"cap"},
    involutions.sample_y_values: {"chunk"},
    coupling.zero_bias_gap_samples: {"chunk", "table"},
    coupling.zero_bias_draws: {"table"},
    coupling.estimate_gap: {"chunk"},
    rngmod.run_chunked: {"chunk"},
    rngmod.chunk_plan: {"chunk"},
    arrays.check_centered: {"var_tol"},
    bounds.lower_bound_experiment: {"epsilon"},
    bounds.dkw_slack: {"delta"},
    arrays.validate_and_symmetrize: {"tol"},
    distances.ecdf: {"tol"},
    cli._emit: {"stream"},
}
# ``validate`` went with ``arrays.centered_from_entries``, a wrapper whose
# ``validate=False`` skipped ``check_centered``
DROPPED = {"cap", "chunk", "var_tol", "epsilon", "delta", "points_per_piece", "tol", "validate"}


def test_removed_keywords_stay_removed():
    assert len(REMOVED) == 22
    for fn, names in REMOVED.items():
        assert not names & set(inspect.signature(fn).parameters), fn.__name__
    # and no other public function of the package grew one of them
    for info in pkgutil.iter_modules(invclt.__path__):
        mod = importlib.import_module(f"invclt.{info.name}")
        for name, fn in vars(mod).items():
            if inspect.isfunction(fn) and not name.startswith("_"):
                assert not DROPPED & set(inspect.signature(fn).parameters), name
    # and no command-line option brings one back
    for command, options in cli_options().items():
        named = {opt.lstrip("-").replace("-", "_") for opt in options}
        assert not DROPPED & named, command
