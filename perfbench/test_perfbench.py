"""Tests of the benchmark itself (not part of the tier-1 suite).

Run from the repository root:

    python3 -m pytest -q perfbench

The ``exact_verify`` layer test runs a full traced ``verify`` (about a minute).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import call_cli, measure  # noqa: E402

SMALL = {"mc_simulate": {"draws": 4000}, "mc_lattice": {"draws": 20000}, "exact_verify": {}}


def traced_spans(name: str, seed: int = 5, **argv_kw):
    tracer = tracing.Tracer()
    inst = tracing.install(tracer)
    try:
        rc, _, stdout = call_cli(workloads.WORKLOADS[name].argv(seed, **argv_kw))
    finally:
        inst.uninstall()
    assert rc == 0
    return tracer, stdout


@pytest.fixture(scope="module")
def verify_trace():
    return traced_spans("exact_verify")


def test_benchmark_json_matches_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.metric_units()
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]


def test_untraced_run_leaves_every_binding_untouched():
    before = tracing.binding_snapshot()
    rep = measure("mc_lattice", 3, "run", draws=2000)
    assert all(ok for call in rep["calls"] for _, ok in call["checks"])
    assert tracing.binding_snapshot() == before


def test_install_patches_every_binding_and_uninstall_restores():
    import invclt
    from invclt import _kernels, bounds, checks, coupling, distances, involutions

    before = tracing.binding_snapshot()
    originals = (distances.ecdf, involutions.involution_matrix, checks.CHECKS["bound_chain"])
    inst = tracing.install(tracing.Tracer())
    try:
        assert inst.missing == []
        for holder in (distances, bounds, invclt):
            assert holder.ecdf is not originals[0]
        assert coupling.involution_matrix is involutions.involution_matrix is not originals[1]
        assert checks.CHECKS["bound_chain"] is checks.check_bound_chain is not originals[2]
        assert "sample" in vars(coupling.QuadrupleTable)
        assert coupling.QuadrupleTable.sample.__wrapped__ is not None
        # aliases under other names stay: exact_gap's inner case_terms is its own time
        assert _kernels.case_terms_np is not _kernels.case_terms
    finally:
        inst.uninstall()
    assert tracing.binding_snapshot() == before


@pytest.mark.parametrize("name", ["mc_simulate", "mc_lattice"])
def test_mc_layers_record_spans(name):
    tracer, _ = traced_spans(name, **SMALL[name])
    names = {s[2] for s in tracer.spans}
    assert workloads.WORKLOADS[name].active <= names
    for prefix in workloads.WORKLOADS[name].idle:
        assert not [n for n in names if n.startswith(prefix)]
    if name == "mc_lattice":
        secs = tracing.layer_seconds(tracer.spans, set())
        assert max(secs, key=secs.get) == "kernels.match_pairs"


def test_verify_layers_record_spans(verify_trace):
    tracer, stdout = verify_trace
    names = {s[2] for s in tracer.spans}
    assert workloads.WORKLOADS["exact_verify"].active <= names
    assert all(ok for _, ok in workloads.check_verify(stdout))
    secs = tracing.layer_seconds(
        [s for s in tracer.spans if not s[2].startswith("checks.")], set()
    )
    assert max(secs, key=secs.get) == "kernels.exact_gap"
    # terms = involutions x support quadruples, summed over n = 10 and 12
    assert tracer.counts["kernels.exact_gap.terms"] == 945 * 5040 + 10395 * 11880


def test_pool_thread_spans_link_to_run_chunked():
    tracer, _ = traced_spans("mc_lattice", draws=40000, threads=2)
    by_id = {s[0]: s for s in tracer.spans}
    pairs = [s for s in tracer.spans if s[2] == "kernels.match_pairs"]
    assert pairs
    assert all(by_id[s[1]][2] == "rng.run_chunked" for s in pairs)
    assert any(s[5] != by_id[s[1]][5] for s in pairs)  # ran in a pool thread


def test_counters_are_computed_and_repeat_exactly():
    draws = SMALL["mc_simulate"]["draws"]
    first, _ = traced_spans("mc_simulate", **SMALL["mc_simulate"])
    second, _ = traced_spans("mc_simulate", **SMALL["mc_simulate"])
    assert first.counts == second.counts
    n_count = len(workloads.SIM_NS.split(","))
    assert first.counts["kernels.match_pairs.rows"] == 2 * draws * n_count
    assert first.counts["kernels.case_terms.rows"] == draws * n_count
    assert first.counts["coupling.quad_sample.rows"] == draws * n_count
    # tables at n = 10, 20, 48: weights and cumsum, 8 bytes each
    assert first.counts["coupling.square_bias_table.bytes"] == sum(16 * n**4 for n in (10, 20, 48))


def test_lattice_output_identical_across_threads():
    outs = {
        threads: call_cli(workloads.lattice_argv(7, draws=20000, threads=threads))[2]
        for threads in (1, 2)
    }
    assert outs[1] and outs[1] == outs[2]


def test_self_time_subtracts_union_of_children():
    spans = [
        (1, None, "outer", 0.0, 10.0, 1),
        (2, 1, "inner", 1.0, 4.0, 2),
        (3, 1, "inner", 3.0, 6.0, 3),  # overlaps span 2 (another thread)
        (4, 3, "leaf", 3.5, 4.5, 3),
    ]
    secs = tracing.layer_seconds(spans, set())
    assert secs["outer"] == pytest.approx(5.0)
    assert secs["inner"] == pytest.approx(3.0 + 2.0)
    assert secs["leaf"] == pytest.approx(1.0)
    assert tracing.layer_seconds(spans, {"outer"})["outer"] == pytest.approx(10.0)


def test_tracer_is_thread_safe():
    tracer = tracing.Tracer()
    threads_n, depth = 8, 300
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)

    leftovers = []

    def work():
        for _ in range(depth):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    pass
                tracer.count("c", 1)
        leftovers.extend(tracer._stack())

    try:
        pool = [threading.Thread(target=work) for _ in range(threads_n)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(old)
    assert leftovers == []
    assert len(tracer.spans) == 2 * threads_n * depth
    assert len({s[0] for s in tracer.spans}) == len(tracer.spans)
    by_id = {s[0]: s for s in tracer.spans}
    for sid, parent, name, _, _, thread in tracer.spans:
        if name == "inner":
            assert by_id[parent][2] == "outer" and by_id[parent][5] == thread
    assert tracer.counts["c"] == threads_n * depth


def test_output_checks_flag_failures():
    good = "n,beta,ks_mc,l1_mc,gap_mc,bound_linf,bound_l1,gap_bound\n"
    rows = [f"{n},1.0,0.1,0.2,0.3,1.0,1.0,1.0" for n in workloads.SIM_NS.split(",")]
    assert all(ok for _, ok in workloads.check_simulate(good + "\n".join(rows)))
    rows[1] = "20,1.0,0.1,2.0,0.3,1.0,1.0,1.0"
    assert [name for name, ok in workloads.check_simulate(good + "\n".join(rows)) if not ok] == [
        "simulate.n20.l1_mc<=bound_l1"
    ]
    bad = {"pass": False, "checks": [{"check": "x", "n": 6, "pass": False}]}
    assert not any(ok for _, ok in workloads.check_verify(json.dumps(bad)))


def test_run_prints_contract_result():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_lattice", "--seed", "2",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    assert set(out["metrics"]) == {"wall_s", "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_run_fails_without_program():
    bare = ROOT / ".perfbench" / "bare-checkout"  # only BENCHMARK.json and perfbench
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "mc_simulate", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
