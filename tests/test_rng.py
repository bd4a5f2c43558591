import numpy as np
import pytest

from invclt import rng as rngmod
from invclt.errors import InputError

C = rngmod.DEFAULT_CHUNK


def draw(count, gen):
    return gen.random(count)


@pytest.mark.parametrize(
    "m, cpus, pool", [(2 * C + 1, 4, 3), (10 * C, 4, 4), (10 * C, None, None), (C, 4, None)]
)
def test_pool_size_is_clamped_to_chunks_and_cpus(monkeypatch, m, cpus, pool):
    # a recorder stands in for the pool, so the huge request starts no thread
    sizes = []

    class Recorder:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(rngmod, "ThreadPoolExecutor", Recorder)
    if cpus is None:
        # no affinity call on this OS, and no CPU count either: one thread
        monkeypatch.delattr(rngmod.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(rngmod.os, "cpu_count", lambda: None)
    else:
        monkeypatch.setattr(rngmod.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
    kw = dict(master_seed=1, purpose=rngmod.PURPOSE_CHECKS)
    got = rngmod.run_chunked(m, draw, threads=10**6, **kw)
    want = rngmod.run_chunked(m, draw, threads=1, **kw)
    assert sizes == ([] if pool is None else [pool])
    assert len(got) == len(rngmod.chunk_plan(m))
    assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))


def test_usable_cpus_counts_the_affinity_set(monkeypatch):
    # a cpuset-limited process: the machine has more CPUs than it may run on
    monkeypatch.setattr(rngmod.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(rngmod.os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
    assert rngmod.usable_cpus() == 2
    monkeypatch.delattr(rngmod.os, "sched_getaffinity")
    assert rngmod.usable_cpus() == 64


def test_empty_draw_count_is_an_input_error():
    with pytest.raises(InputError, match="draw count must be >= 1"):
        rngmod.chunk_plan(0)
