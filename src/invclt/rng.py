"""Reproducible, splittable random streams for parallel Monte Carlo.

Every randomized quantity in the package is drawn from a Philox counter-based
generator keyed by ``(master_seed, stream_id)``.  Monte Carlo work is split
into fixed-size chunks and chunk ``c`` of purpose ``p`` always uses the stream
``stream_id = mix(p, c)``, so results depend only on the master seed, the
draw count and the chunk size -- never on how many workers execute the
chunks.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

from .errors import InputError

DEFAULT_SEED = 0xC0FFEE
DEFAULT_CHUNK = 8192

# purpose tags for stream_id derivation; stable across releases
PURPOSE_ARRAY = 1
PURPOSE_INVOLUTIONS = 2
PURPOSE_ZERO_BIAS = 3
PURPOSE_CHECKS = 6
PURPOSE_AUDIT = 7

_MASK64 = (1 << 64) - 1


def mix64(*parts: int) -> int:
    """Fold integers into one 64-bit stream id (splitmix64 finalizer chain)."""
    h = 0x9E3779B97F4A7C15
    for p in parts:
        h = (h ^ (int(p) & _MASK64)) * 0xBF58476D1CE4E5B9 & _MASK64
        h = (h ^ (h >> 27)) * 0x94D049BB133111EB & _MASK64
        h ^= h >> 31
    return h


def derive_stream(master_seed: int, *ids: int) -> np.random.Generator:
    """Generator for the stream named by ``ids`` under ``master_seed``."""
    key = np.array([int(master_seed) & _MASK64, mix64(*ids)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def chunk_plan(m: int) -> list[tuple[int, int]]:
    """Split ``m`` draws into (chunk_index, count) pieces of ``DEFAULT_CHUNK``."""
    if m < 1:
        raise InputError("draw count must be >= 1")
    starts = range(0, m, DEFAULT_CHUNK)
    return [(idx, min(DEFAULT_CHUNK, m - s)) for idx, s in enumerate(starts)]


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS reports
    one (a cpuset-limited container has fewer than the machine), else
    ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_chunked(
    m: int,
    worker: Callable[[int, np.random.Generator], np.ndarray],
    *,
    master_seed: int,
    purpose: int,
    extra_id: int = 0,
    threads: int = 1,
) -> list[np.ndarray]:
    """Run ``worker(count, gen)`` over every chunk, ``gen`` being the chunk's stream.

    Results come back ordered by chunk index, so the concatenation is
    identical for any ``threads`` value.  The pool holds at most one thread
    per chunk and per usable CPU (``usable_cpus``), whatever ``threads``
    asks for.
    """
    plan = chunk_plan(m)
    threads = min(threads, len(plan), usable_cpus())

    def job(item: tuple[int, int]) -> np.ndarray:
        idx, count = item
        gen = derive_stream(master_seed, purpose, extra_id, idx)
        return worker(count, gen)

    if threads <= 1:
        return [job(item) for item in plan]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(job, plan))
