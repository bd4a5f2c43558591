import contextlib
import io
import json
import math
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from invclt import arrays, cli, distances, involutions
from invclt import checks as checksmod
from invclt.bounds import lower_bound_array
from invclt.errors import InputError

from conftest import cli_options
from oracles import save_matrix_json


def run_cli(*args):
    """Run ``invclt`` in this process, with its stdout and stderr captured.

    argparse reports a usage error by raising ``SystemExit``; its code
    stands in for the exit code.  ``test_entry_point_matches_in_process``
    runs the same code through ``python -m invclt.cli``.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


@pytest.fixture(scope="module")
def appendix_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "appendix4.json"
    save_matrix_json(lower_bound_array(4).entries, path)
    return str(path)


@pytest.fixture(scope="module")
def appendix_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "appendix4.csv"
    E = lower_bound_array(4).entries
    path.write_text("\n".join(",".join(str(x) for x in row) for row in E) + "\n")
    return str(path)


@pytest.fixture(scope="module")
def degenerate_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "const.json"
    arr = np.full((6, 6), 2.5)
    np.fill_diagonal(arr, 0.0)
    save_matrix_json(arr, path)
    return str(path)


def test_entry_point_matches_in_process(appendix_file):
    args = ("analyze", "--input", appendix_file)
    proc = subprocess.run(
        [sys.executable, "-m", "invclt.cli", *args], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout == run_cli(*args).stdout


def test_readme_usage_matches_parser():
    # the options README's CLI block lists for each command are the ones its
    # subparser takes
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"## CLI\n\n```\n(.*?)```", readme, re.S).group(1)
    listed = {
        cmd: set(re.findall(r"--[a-z][a-z-]*", text))
        for cmd, text in re.findall(r"^invclt (\w+)(.*?)(?=^invclt |\Z)", block, re.S | re.M)
    }
    assert listed == cli_options()


def test_cli_imports_no_scipy(appendix_file):
    # Phi comes from math.erfc (distances.normal_cdf); importing scipy.special
    # would add about 0.3 s and 26 MB to every start of the CLI.  statistics (with
    # fractions and decimal, about 5 ms) waits for the first l1_distance call
    code = (
        "import contextlib, io, json, sys\n"
        "from invclt import cli\n"
        "assert 'statistics' not in sys.modules\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rc = cli.main(['analyze', '--input', {appendix_file!r}])\n"
        "print(json.dumps([rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert json.loads(proc.stdout) == [0, []]


class TestAnalyze:
    def test_appendix_exact_mode(self, appendix_file):
        out = run_cli("analyze", "--input", appendix_file)
        assert out.returncode == 0
        obj = json.loads(out.stdout)
        assert obj["schema"] == 1
        assert obj["mode"] == "exact"
        assert obj["mu"] == 0.0
        assert obj["sigma2"] == pytest.approx(32.0 / 3.0, rel=1e-12)
        assert obj["distances"]["linf"] == pytest.approx(0.22299765237, abs=1e-6)
        assert set(obj["bounds"]) == {"1.0", "2.0", "inf"}
        assert not obj["bound_report"]["valid"]

    def test_csv_and_json_inputs_agree(self, appendix_file, appendix_csv):
        a = run_cli("analyze", "--input", appendix_file)
        b = run_cli("analyze", "--input", appendix_csv)
        assert a.stdout == b.stdout

    def test_symmetrize_flag(self, tmp_path):
        path = tmp_path / "asym.csv"
        path.write_text("0,1,2,3\n1.5,0,1,2\n2,1,0,1\n3,2,1,0\n")
        rejected = run_cli("analyze", "--input", str(path))
        assert rejected.returncode == 2
        accepted = run_cli("analyze", "--input", str(path), "--symmetrize")
        assert accepted.returncode == 0
        obj = json.loads(accepted.stdout)
        assert obj["mode"] == "exact" and obj["n"] == 4

    def test_one_centering_and_one_moments_per_run(self, monkeypatch, tmp_path):
        # mu, sigma^2, beta and D all come off one moments call, which
        # centers the input once
        calls = []

        def counted(fn):
            def wrapper(*args):
                calls.append(fn.__name__)
                return fn(*args)

            return wrapper

        monkeypatch.setattr(arrays, "center_hat", counted(arrays.center_hat))
        monkeypatch.setattr(arrays, "moments", counted(arrays.moments))
        monkeypatch.setattr(cli, "moments", arrays.moments)
        path = tmp_path / "m12.json"
        save_matrix_json(np.random.default_rng(12).standard_normal((12, 12)), path)
        out = run_cli("analyze", "--input", str(path), "--symmetrize")
        assert out.returncode == 0 and json.loads(out.stdout)["mode"] == "exact"
        assert sorted(calls) == ["center_hat", "moments"]

    def test_byte_identical_reruns(self, appendix_file):
        a = run_cli("analyze", "--input", appendix_file, "--seed", "7")
        b = run_cli("analyze", "--input", appendix_file, "--seed", "7")
        assert a.stdout == b.stdout and a.returncode == b.returncode == 0

    def test_degenerate_exit_3(self, degenerate_file):
        out = run_cli("analyze", "--input", degenerate_file)
        assert out.returncode == 3

    def test_missing_input_exit_2(self):
        out = run_cli("analyze", "--input", "/nonexistent/m.csv")
        assert out.returncode == 2

    def test_odd_dimension_exit_2(self, tmp_path):
        path = tmp_path / "odd.csv"
        path.write_text("0,1,0\n1,0,0\n0,0,0\n")
        out = run_cli("analyze", "--input", str(path))
        assert out.returncode == 2

    def test_emit_cdf(self, appendix_file, tmp_path):
        cdf = tmp_path / "cdf.csv"
        out = run_cli("analyze", "--input", appendix_file, "--emit-cdf", str(cdf))
        assert out.returncode == 0
        lines = cdf.read_text().strip().splitlines()
        assert lines[0] == "t,F,Phi"
        assert len(lines) == 4  # header + three atoms
        t, f, phi = (float(x) for x in lines[2].split(","))
        assert t == 0.0 and f == pytest.approx(2.0 / 3.0) and phi == 0.5

    def test_emit_cdf_unwritable_exit_2(self, appendix_file, tmp_path):
        cdf = tmp_path / "missing" / "x.csv"
        out = run_cli("analyze", "--input", appendix_file, "--emit-cdf", str(cdf))
        assert out.returncode == 2
        assert out.stderr.startswith(f"error: cannot write {cdf}: ")

    def test_mc_mode_above_cap(self, tmp_path):
        # exact mode runs wherever exact_w_distribution may; n = 18 lies
        # above ENUM_CAP (|Pi_18| is 34.5M matchings), so it samples
        path = tmp_path / "n18.json"
        save_matrix_json(np.random.default_rng(18).standard_normal((18, 18)), path)
        out = run_cli("analyze", "--input", str(path), "--symmetrize", "--draws", "1000")
        assert out.returncode == 0
        obj = json.loads(out.stdout)
        assert obj["mode"] == "mc"
        assert obj["distances"]["m_samples"] == 1000

    def test_raised_cap_keeps_enumeration_guard(self, tmp_path, monkeypatch, capsys):
        # the exact-mode threshold is the enumeration cap itself: just above
        # it analyze never asks for the exact law, and enumeration refuses
        n = involutions.ENUM_CAP + 2
        path = tmp_path / f"n{n}.json"
        save_matrix_json(np.random.default_rng(n).standard_normal((n, n)), path)

        def enumerate_forbidden(D):
            raise AssertionError(f"exact law requested at n={D.n}")

        monkeypatch.setattr(involutions, "exact_w_distribution", enumerate_forbidden)
        rc = cli.main(["analyze", "--input", str(path), "--symmetrize", "--draws", "500"])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["mode"] == "mc" and obj["distances"]["m_samples"] == 500
        with pytest.raises(InputError, match="exceeds enumeration cap"):
            involutions.enumerate_involutions(n)

    def test_exact_mode_at_n14(self, tmp_path):
        # n = 14 is below ENUM_CAP, so analyze reports the exact law's
        # distances, not Monte Carlo ones
        E = np.random.default_rng(14).standard_normal((14, 14))
        path = tmp_path / "n14.json"
        save_matrix_json(E, path)
        out = run_cli("analyze", "--input", str(path), "--symmetrize")
        assert out.returncode == 0
        obj = json.loads(out.stdout)
        assert obj["mode"] == "exact" and obj["distances"]["m_samples"] is None
        A = arrays.validate_and_symmetrize(E, symmetrize=True)
        D = arrays.standardize(A, arrays.moments(A))
        F = involutions.exact_w_distribution(D)
        ref = distances.distance_report(F, [1.0, 2.0, math.inf])
        assert obj["distances"]["l1"] == ref["l1"]
        assert obj["distances"]["linf"] == ref["linf"]

    def test_cap_option_is_a_usage_error(self, appendix_file, capsys):
        # the exact-mode threshold is ENUM_CAP; no option moves it
        with pytest.raises(SystemExit) as exc:
            cli.main(["analyze", "--input", appendix_file, "--cap", "12"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --cap 12" in capsys.readouterr().err

    @pytest.mark.parametrize("n,extra", [(12, ()), (30, ("--draws", "20000", "--seed", "7"))])
    def test_one_beta_per_array(self, n, extra, tmp_path):
        # the top-level beta and the bound report's beta are one number
        path = tmp_path / f"rng{n}.json"
        save_matrix_json(np.random.default_rng(n).standard_normal((n, n)), path)
        out = run_cli("analyze", "--input", str(path), "--symmetrize", *extra)
        obj = json.loads(out.stdout)
        assert obj["beta"] == obj["bound_report"]["beta"]

    @pytest.mark.parametrize("n,extra", [(12, ()), (30, ("--draws", "20000", "--seed", "7"))])
    def test_payload_matches_recorded(self, n, extra, tmp_path):
        path = tmp_path / f"rng{n}.json"
        save_matrix_json(np.random.default_rng(n).standard_normal((n, n)), path)
        out = run_cli("analyze", "--input", str(path), "--symmetrize", *extra)
        assert out.returncode == 0
        assert leaves(json.loads(out.stdout)) == leaves(RECORDED_ANALYZE[n])


# `analyze --input <array> --symmetrize` on the array
# `default_rng(n).standard_normal((n, n))`: exact mode at n = 12, and MC mode
# at n = 30 with `--draws 20000 --seed 7`.  Recorded with Phi from
# `distances.normal_cdf`; against scipy's Phi only `l1` and `lp_upper` moved
# (at most 3.8e-13 relative), and at n = 30 they moved again, by at most
# 1.4e-16, when `l1_distance` summed its pieces in numpy in place of
# `math.fsum`.  Both moved again, by at most 1.4e-13 (n = 12) and 3.8e-13
# (n = 30) relative, when `l1_distance` took the crossing of Phi with each
# level from the standard library's `NormalDist().inv_cdf` in place of a
# ported quantile: the crossings moved by rounding only, and the per-piece
# antiderivative differences resolve L1 to about 1e-12 relative.  They moved
# again, by at most 4.3e-15 (n = 12) and 2.5e-13 (n = 30) relative, when
# `normal_cdf` took Phi from the standard library's `math.erfc` in place of
# a ported cephes `ndtr`; at n = 30 `linf` (and `lp_upper["inf"]`) moved by
# 7.2e-15 relative with it, since Phi at the jump that attains the Kolmogorov
# distance moved by one ulp.  The
# top-level `beta` at n = 12 moved by 2.8e-16 relative when `moments` took
# beta from the standardized entries, sum |e^/sigma|^3, so it now equals
# `bound_report.beta`.  The payloads are compared leaf by leaf, so a failure
# names the field that moved.  They may change only with a deliberate change
# of the moments, the distances, the bounds, the sampling stream or the
# report schema.
RECORDED_ANALYZE = {
    12: {
        "beta": 1.5794003476031344,
        "bound_report": {
            "beta": 1.5794003476031344,
            "gap_bound": 22.28709379395534,
            "kp": {
                "1.0": 379.0,
                "2.0": 152922.29083426655,
                "inf": 61702446.0,
            },
            "l1_refined": 44.57418758791068,
            "n": 12,
            "valid": True,
            "valid_strict": True,
        },
        "bounds": {
            "1.0": 49.88272764513233,
            "2.0": 20127.12660832568,
            "inf": 8121072.055030302,
        },
        "distances": {
            "l1": 0.0113942771063135,
            "linf": 0.009878057648533334,
            "lp_upper": {
                "1.0": 0.0113942771063135,
                "2.0": 0.01060911523735737,
                "inf": 0.009878057648533334,
            },
            "m_samples": None,
            "mode": "exact",
        },
        "mode": "exact",
        "mu": 0.4052219212812797,
        "n": 12,
        "schema": 1,
        "sigma2": 8.456672300145147,
    },
    30: {
        "beta": 3.0083125260560104,
        "bound_report": {
            "beta": 3.0083125260560104,
            "gap_bound": 13.49863256136066,
            "kp": {
                "1.0": 379.0,
                "2.0": 152922.29083426655,
                "inf": 61702446.0,
            },
            "l1_refined": 26.99726512272132,
            "n": 30,
            "valid": True,
            "valid_strict": True,
        },
        "bounds": {
            "1.0": 38.0050149125076,
            "2.0": 15334.601434330143,
            "inf": 6187341.373003152,
        },
        "distances": {
            "l1": 0.006377577713508599,
            "linf": 0.007666390195070094,
            "lp_upper": {
                "1.0": 0.006377577713508599,
                "2.0": 0.006992352912370762,
                "inf": 0.007666390195070094,
            },
            "m_samples": 20000,
            "mode": "mc",
        },
        "mode": "mc",
        "mu": -0.31418268515316944,
        "n": 30,
        "schema": 1,
        "sigma2": 29.79650044150175,
    },
}


def leaves(obj, path=""):
    """``{dotted path: value}`` of every leaf of a JSON payload."""
    if not isinstance(obj, dict):
        return {path: obj}
    return {k: v for key, val in obj.items() for k, v in leaves(val, f"{path}.{key}").items()}


class TestVerify:
    def test_only_filter(self):
        out = run_cli("verify", "--only", "lemma_3_3_normalization")
        assert out.returncode == 0
        obj = json.loads(out.stdout)
        assert obj["pass"] is True
        assert {r["check"] for r in obj["checks"]} == {"lemma_3_3_normalization"}
        assert all(r["max_abs_error"] < 1e-10 for r in obj["checks"])

    def test_default_payload_matches_recorded(self):
        out = run_cli("verify")
        assert out.returncode == 0
        assert json.loads(out.stdout) == RECORDED_VERIFY

    def test_impossible_cases_check_present(self):
        out = run_cli("verify", "--only", "impossible_cases_21_12")
        obj = json.loads(out.stdout)
        assert out.returncode == 0
        assert all(r["max_abs_error"] == 0 for r in obj["checks"])

    def test_unknown_check_exit_2(self):
        out = run_cli("verify", "--only", "nope")
        assert out.returncode == 2
        assert out.stderr.startswith("error: unknown check 'nope'")

    def test_empty_only_exit_2(self):
        # an empty family name is unknown too, not "run every family"
        out = run_cli("verify", "--only", "")
        assert out.returncode == 2 and out.stdout == ""
        assert out.stderr.startswith("error: unknown check ''")

    @pytest.mark.parametrize("flag", [["--threads", "2"], ["--draws", "5"]], ids=lambda f: f[0])
    def test_mc_flags_are_usage_errors(self, flag, capsys):
        # verify draws no Monte Carlo sample sized by the command line
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sweep, families, ns",
        [
            (
                "exhaustive_sweep",
                (
                    "case_exhaustiveness",
                    "impossible_cases_21_12",
                    "completion_uniformity",
                    "p2_joint_law",
                    "p3_structural_zeros",
                ),
                [6, 8],
            ),
            (
                "stein_sweep",
                ("stein_linearity", "stein_second_moment", "exchangeability"),
                [6, 8, 10],
            ),
        ],
        ids=["exhaustive_sweep", "stein_sweep"],
    )
    def test_sweeps_shared_within_one_run(self, sweep, families, ns, monkeypatch):
        # the families of one sweep share one sweep per n per run_checks
        # call, and a second call computes them again
        from invclt import coupling

        calls = []
        compute = getattr(coupling, sweep)

        def counted(D):
            calls.append(D.n)
            return compute(D)

        monkeypatch.setattr(coupling, sweep, counted)
        monkeypatch.setattr(checksmod, "CHECKS", {k: checksmod.CHECKS[k] for k in families})
        first = checksmod.run_checks(5)
        assert sorted(calls) == ns
        assert checksmod.run_checks(5) == first
        assert sorted(calls) == sorted(ns * 2)

    @staticmethod
    def _families(monkeypatch, bound_chain, **fns):
        """A registry of ``bound_chain`` between two fast families;
        ``fns`` replaces the others by name."""
        table = {
            "hat_marginals": checksmod.check_hat_marginals,
            "bound_chain": bound_chain,
            "truncation_inequalities": checksmod.check_sigma_consistency,
            **fns,
        }
        monkeypatch.setattr(checksmod, "CHECKS", table)

    @staticmethod
    def _thread_recorder(seen):
        def bound_chain(seed):
            seen.append(threading.get_ident())
            return [{"check": "bound_chain", "n": 0, "max_abs_error": 0.0, "pass": True}]

        return bound_chain

    @pytest.mark.parametrize(
        "only, checks",
        [
            (None, ["hat_marginals"] * 3 + ["bound_chain"] + ["sigma_consistency"] * 3),
            ("bound_chain", ["bound_chain"]),
        ],
    )
    def test_bound_chain_runs_on_a_second_thread(self, only, checks, monkeypatch):
        seen = []
        self._families(monkeypatch, self._thread_recorder(seen))
        records = checksmod.run_checks(5, only=only)
        assert len(seen) == 1 and seen[0] != threading.get_ident()
        assert [r["check"] for r in records] == checks

    @pytest.mark.parametrize("seed", [1, 3001])
    def test_records_match_the_families_run_in_order(self, seed):
        # the default seed is held to RECORDED_VERIFY above
        in_order = [r for fn in checksmod.CHECKS.values() for r in fn(seed)]
        assert checksmod.run_checks(seed) == in_order

    def test_an_earlier_family_error_comes_first(self, monkeypatch):
        # the second thread's error is dropped, but only once it has ended
        ended = []

        def early(seed):
            raise InputError("early")

        def bound_chain(seed):
            time.sleep(0.05)
            ended.append(True)
            raise RuntimeError("bound_chain")

        self._families(monkeypatch, bound_chain, hat_marginals=early)
        with pytest.raises(InputError, match="early"):
            checksmod.run_checks(5)
        assert ended == [True]

    def test_bound_chain_error_comes_before_a_later_one(self, monkeypatch):
        # the later family runs beside bound_chain, but its error is dropped
        def bound_chain(seed):
            raise RuntimeError("bound_chain")

        def truncation(seed):
            raise InputError("later")

        self._families(monkeypatch, bound_chain, truncation_inequalities=truncation)
        with pytest.raises(RuntimeError, match="bound_chain"):
            checksmod.run_checks(5)

    def test_bound_chain_is_joined_after_the_last_family(self, monkeypatch):
        # bound_chain ends only once the last family has run; joined any
        # earlier, the wait times out instead of hanging
        last_ran = threading.Event()

        def bound_chain(seed):
            assert last_ran.wait(timeout=5.0), "the last family never ran beside bound_chain"
            return [{"check": "bound_chain", "n": 0, "max_abs_error": 0.0, "pass": True}]

        def truncation(seed):
            last_ran.set()
            return checksmod.check_sigma_consistency(seed)

        self._families(monkeypatch, bound_chain, truncation_inequalities=truncation)
        records = checksmod.run_checks(5)
        assert [r["check"] for r in records] == (
            ["hat_marginals"] * 3 + ["bound_chain"] + ["sigma_consistency"] * 3
        )

    def test_failed_check_exit_1(self, monkeypatch, capsys):
        from invclt import checks as checksmod
        def failing(seed):
            return [{"check": "always_fails", "n": 0, "max_abs_error": 1.0, "pass": False}]

        monkeypatch.setitem(checksmod.CHECKS, "always_fails", failing)
        rc = cli.main(["verify", "--only", "always_fails"])
        assert rc == 1
        obj = json.loads(capsys.readouterr().out)
        assert obj["pass"] is False

    def test_internal_error_exit_4(self, monkeypatch, capsys):
        from invclt import checks as checksmod
        from invclt.errors import NoCaseMatched

        def broken(seed):
            raise NoCaseMatched("(R1,R2)=(0,1) matched no rewiring case")

        monkeypatch.setitem(checksmod.CHECKS, "case_exhaustiveness", broken)
        rc = cli.main(["verify", "--only", "case_exhaustiveness"])
        assert rc == 4
        assert "internal error" in capsys.readouterr().err

    def test_bad_draws_exit_2(self):
        out = run_cli("simulate", "--n", "10", "--draws", "0")
        assert out.returncode == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "--n", "-4"),
            ("simulate", "--n", ","),
            ("lowerbound", "--n", ","),
            ("simulate", "--n", "10,20,48,7"),
            ("simulate", "--n", "10,4"),
            ("lowerbound", "--n", "64,100,99"),
        ],
    )
    def test_bad_n_list_exit_2(self, argv, monkeypatch, capsys):
        # the whole list is checked before the first row runs: an odd n, or
        # n < 6 for simulate, anywhere in it
        def no_row(*args, **kwargs):
            raise AssertionError("a row ran before the --n list was checked")

        monkeypatch.setattr(cli, "_simulate_row", no_row)
        monkeypatch.setattr(cli.boundsmod, "lower_bound_experiment", no_row)
        assert cli.main([*argv, "--draws", "100"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error:")

    def test_single_draw_simulate_exit_2(self, tmp_path, monkeypatch, capsys):
        # a standard error needs two draws; one draw used to write NaN, and
        # then to sample the first row before estimate_gap refused it
        def no_row(*args, **kwargs):
            raise AssertionError("a row ran before --draws was checked")

        monkeypatch.setattr(cli, "_simulate_row", no_row)
        path = tmp_path / "r.json"
        assert cli.main(["simulate", "--n", "10", "--draws", "1", "--json", str(path)]) == 2
        assert not path.exists()
        out = capsys.readouterr()
        assert out.out == "" and "--draws >= 2" in out.err

    @pytest.mark.parametrize(
        "extra", [("--dump-draws", "-1"), ("--dump-draws", "3")], ids=["negative", "no-json"]
    )
    def test_dump_draws_misuse_exit_2(self, extra, capsys):
        # rejected before any row is simulated: no CSV reaches stdout
        assert cli.main(["simulate", "--n", "10", "--draws", "100", *extra]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "--dump-draws" in out.err

    def test_negative_dump_draws_with_json_exit_2(self, tmp_path):
        path = tmp_path / "r.json"
        out = run_cli("simulate", "--n", "10", "--draws", "100", "--json", str(path),
                      "--dump-draws", "-1")
        assert out.returncode == 2
        assert not path.exists()

    def test_bad_p_value_exit_2(self, appendix_file):
        for p in ("1,x", "1,nan"):
            assert run_cli("analyze", "--input", appendix_file, "--p", p).returncode == 2

    def test_nan_p_rejected_while_parsing(self):
        # nan < 1 is False, so a NaN p must fail the list check itself, not
        # lp_upper after the whole law of W is built
        with pytest.raises(InputError, match="p=nan"):
            cli._parse_p_list("1,nan")

    def test_non_numeric_json_entries_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2, "entries": [["a", 1], [1, 0]]}')
        out = run_cli("analyze", "--input", str(path))
        assert out.returncode == 2

    @pytest.mark.parametrize(
        "n", ['"abc"', "[4]", "4.5", "true"], ids=["string", "list", "float", "bool"]
    )
    def test_non_integer_json_n_exit_2(self, n, tmp_path):
        # only a JSON integer names the row count: 4.5 and true are not 4
        path = tmp_path / "bad_n.json"
        entries = json.dumps(lower_bound_array(4).entries.tolist())
        path.write_text(f'{{"n": {n}, "entries": {entries}}}')
        out = run_cli("analyze", "--input", str(path))
        assert out.returncode == 2
        assert out.stderr.startswith("error: JSON field n must be an integer")

    @pytest.mark.parametrize(
        "one,zero", [("true", "false"), ('"1"', '"0"'), ("1", "null")],
        ids=["bool", "string", "null"],
    )
    def test_non_number_json_entries_exit_2(self, one, zero, tmp_path):
        # numpy reads true as 1.0 and "1" as 1.0; only JSON numbers are entries
        path = tmp_path / "cycle.json"
        rows = "[[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]]"
        path.write_text(f'{{"entries": {rows}}}')
        assert run_cli("analyze", "--input", str(path)).returncode == 0
        path.write_text(f'{{"entries": {rows.replace("1", one).replace("0", zero)}}}')
        out = run_cli("analyze", "--input", str(path))
        assert out.returncode == 2
        assert out.stderr.startswith("error: JSON matrix entries must be numbers, got ")

    def test_huge_json_integer_entry_exit_2(self, tmp_path):
        # json reads 10**400 as a Python int, which no float64 holds; the CSV
        # route reads 1e400 as inf and exits 2 as well
        path = tmp_path / "huge.json"
        rows = [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]]
        rows[0][1] = rows[1][0] = 10**400
        path.write_text(json.dumps({"entries": rows}))
        out = run_cli("analyze", "--input", str(path))
        assert out.returncode == 2
        assert out.stderr.startswith("error: matrix entries are not numeric: ")


# `simulate --n 10 --draws 2000 --seed 7 --json <path> --dump-draws 3`: the
# audit draws of the JSON report, recorded while each draw still held its
# involutions as objects.  The draws are now column arrays; the rows of
# ``coupling.draw_json_rows`` must give the same keys and the same values.
# The list may change only with a deliberate change of the audit stream or
# of the report schema.
RECORDED_DRAWS = [
    {
        "case_id": 2,
        "index_set": [1, 3, 4, 5, 6, 10],
        "pi": [5, 9, 6, 10, 1, 3, 8, 7, 2, 4],
        "pi_dagger": [6, 9, 5, 10, 3, 1, 8, 7, 2, 4],
        "pi_ddagger": [10, 9, 5, 6, 3, 4, 8, 7, 2, 1],
        "quad": [6, 4, 1, 10],
        "r1": 1,
        "r2": 0,
        "s": 0.7621984566329563,
        "t": -0.872957863337519,
        "t_dagger": 1.765823304284311,
        "t_ddagger": 0.22044613404226546,
        "u": 0.4043273709163828,
        "w": -0.11075940670456275,
        "w_dagger": 2.5280217609172673,
        "w_ddagger": 0.9826445906752217,
        "w_star": 1.6074828789933875,
    },
    {
        "case_id": 6,
        "index_set": [2, 4, 6, 7, 8, 9],
        "pi": [3, 6, 1, 7, 10, 2, 4, 9, 8, 5],
        "pi_dagger": [3, 7, 1, 9, 10, 8, 2, 6, 4, 5],
        "pi_ddagger": [3, 9, 1, 7, 10, 8, 4, 6, 2, 5],
        "quad": [9, 2, 4, 7],
        "r1": 0,
        "r2": 1,
        "s": 0.04030952496143858,
        "t": 0.06832806968750985,
        "t_dagger": -0.8324237287031959,
        "t_ddagger": 0.09382960666913151,
        "u": 0.03209920802126398,
        "w": 0.10863759464894843,
        "w_dagger": -0.7921142037417573,
        "w_ddagger": 0.1341391316305701,
        "w_star": 0.10440713313806417,
    },
    {
        "case_id": 3,
        "index_set": [1, 2, 3, 4, 6, 9],
        "pi": [4, 3, 2, 1, 7, 9, 5, 10, 6, 8],
        "pi_dagger": [2, 1, 9, 6, 7, 4, 5, 10, 3, 8],
        "pi_ddagger": [6, 4, 9, 2, 7, 1, 5, 10, 3, 8],
        "quad": [1, 6, 2, 4],
        "r1": 1,
        "r2": 1,
        "s": -0.34738695013197984,
        "t": 0.008227132041774832,
        "t_dagger": -0.718602149390374,
        "t_ddagger": 0.3598646616348739,
        "u": 0.21122758336060865,
        "w": -0.339159818090205,
        "w_dagger": -1.065989099522354,
        "w_ddagger": 0.012477711502894062,
        "w_star": -0.2153242267245913,
    },
]


# `simulate --n 10,20,48,64 --draws 2000 --seed 7 --json <path>`: the rows of
# the JSON report, which the CSV on stdout repeats column by column.  The rows
# run the square-bias table (n = 10, 20, 48) and the rejection sampler above
# TABLE_CAP (n = 64).  Recorded before exact_gap read its integrand off one
# table per pairing of each 4-set; the MC path shares only case_terms and the
# pairing rule with it.  `l1_mc` was re-recorded when Phi moved from scipy to
# `distances.normal_cdf` (each by at most 4.1e-14 relative); every other value
# kept its bits.  It moved again (n = 10, 20, 48, by at most 1.7e-16) when
# `l1_distance` summed its pieces in numpy in place of `math.fsum`, and again
# (all four, by at most 8.1e-14) when its crossings came from the standard
# library's `NormalDist().inv_cdf` in place of a ported quantile, and again
# (all four, by at most 2.8e-14) when Phi came from the standard library's
# `math.erfc` in place of a ported cephes `ndtr`.  With that change `ks_mc`
# at n = 20 moved by 1.9e-15 relative: Phi at the jump that attains it moved
# by one ulp, and the value is now 7e-18 from the gap with Phi taken from
# mpmath (3.5e-17 before).  The list may change only with a deliberate change
# of a sampling stream, of Phi or of the report schema.
RECORDED_SIMULATE = [
    {
        "beta": 1.237784986823176,
        "bound_l1": 46.91205100059837,
        "bound_linf": 7637436.130906773,
        "gap_bound": 22.418761681341362,
        "gap_mc": 0.9268198594773309,
        "gap_se": 0.01541449038034542,
        "ks_mc": 0.027844790521896035,
        "l1_mc": 0.042155465115727674,
        "n": 10,
    },
    {
        "beta": 2.1588658351905377,
        "bound_l1": 40.91050757686069,
        "bound_linf": 6660365.130854452,
        "gap_bound": 15.768356060231685,
        "gap_mc": 0.6790079967264538,
        "gap_se": 0.011753308032437348,
        "ks_mc": 0.014365068291119304,
        "l1_mc": 0.0255672407001385,
        "n": 20,
    },
    {
        "beta": 3.692302461984645,
        "bound_l1": 29.153804856087092,
        "bound_linf": 4746335.276589055,
        "gap_bound": 9.698704210039528,
        "gap_mc": 0.4682410278379032,
        "gap_se": 0.007837141383189722,
        "ks_mc": 0.019138068045668033,
        "l1_mc": 0.027057135926595005,
        "n": 48,
    },
    {
        "beta": 4.242721785770858,
        "bound_l1": 25.1248680751118,
        "bound_linf": 4090411.1231179675,
        "gap_bound": 8.12394213032247,
        "gap_mc": 0.3961417549929,
        "gap_se": 0.006699996584710616,
        "ks_mc": 0.012704743927796303,
        "l1_mc": 0.023950334305458766,
        "n": 64,
    },
]


# `verify` at the default seed: the whole payload, recorded before exact_gap
# read its integrand off one table per pairing of each 4-set.  Every value is
# a deterministic function of the seed, so a change of summation order in a
# check shows here; the payload was the same with OpenBLAS at 1 and 2 threads.
# The two `bound_chain` `l1` values were re-recorded when Phi moved from scipy
# to `distances.normal_cdf` (by 6.1e-15 and 1.4e-14 relative), and again
# (by 1.2e-14 and 3.3e-15) when `l1_distance` took its crossings from
# `statistics.NormalDist().inv_cdf`, and again (by 1.1e-14 and 2.5e-14)
# when Phi came from `math.erfc` in place of a ported cephes `ndtr`.  The n = 8
# `zero_bias_cdf` error went 1.665e-15 -> 1.776e-15 when the atom
# probabilities became the jumps of the exact law's step CDF.  Both
# `bound_chain` `exact_gap` values kept their bits when exact_gap summed each
# quadruple over the distinct images of its four points, weighted by their
# counts (at seeds 1 and 3001 they moved by at most 1.3e-16 relative).  When
# the three Stein families came to share one array (stream 5, linearity's)
# and one `stein_sweep` per n, only `stein_second_moment`'s `max_abs_error`
# moved: n = 6 0.0 -> 6.66e-16 and n = 10 0.0 -> 2.22e-16 (at seed 1, n = 8
# 3.33e-16 -> 0.0 and n = 10 0.0 -> 5.55e-16; at seed 3001, n = 6 4.44e-16
# -> 6.66e-16 and n = 8 2.22e-16 -> 0.0); every other leaf, at all three
# seeds, kept its bits.  It may change only with a deliberate change of a
# check, of Phi or of the report schema.
RECORDED_VERIFY = {
    "checks": [
        {
            "check": "hat_marginals",
            "max_abs_error": 4.440892098500626e-16,
            "n": 6,
            "pass": True,
        },
        {
            "check": "hat_marginals",
            "max_abs_error": 1.3322676295501878e-15,
            "n": 12,
            "pass": True,
        },
        {
            "check": "hat_marginals",
            "max_abs_error": 1.1546319456101628e-14,
            "n": 30,
            "pass": True,
        },
        {
            "check": "sigma_consistency",
            "max_abs_error": 2.184648346875156e-16,
            "n": 6,
            "pass": True,
        },
        {"check": "sigma_consistency", "max_abs_error": 0.0, "n": 12, "pass": True},
        {
            "check": "sigma_consistency",
            "max_abs_error": 2.327997393878488e-16,
            "n": 30,
            "pass": True,
        },
        {
            "check": "brute_force_moments",
            "max_abs_error": 1.1102230246251565e-16,
            "n": 6,
            "pass": True,
        },
        {
            "check": "brute_force_moments",
            "max_abs_error": 5.551115123125783e-17,
            "n": 8,
            "pass": True,
        },
        {
            "check": "lemma_3_3_normalization",
            "max_abs_error": 4.440892098500626e-16,
            "n": 6,
            "pass": True,
        },
        {
            "check": "lemma_3_3_normalization",
            "max_abs_error": 2.220446049250313e-16,
            "n": 8,
            "pass": True,
        },
        {
            "check": "lemma_3_3_normalization",
            "max_abs_error": 4.440892098500626e-16,
            "n": 10,
            "pass": True,
        },
        {
            "check": "lemma_3_3_normalization",
            "max_abs_error": 4.440892098500626e-16,
            "n": 12,
            "pass": True,
        },
        {
            "check": "stein_linearity",
            "formula_error": 2.220446049250313e-16,
            "max_abs_error": 2.220446049250313e-16,
            "n": 6,
            "pass": True,
        },
        {
            "check": "stein_linearity",
            "formula_error": 4.440892098500626e-16,
            "max_abs_error": 5.551115123125783e-16,
            "n": 8,
            "pass": True,
        },
        {
            "check": "stein_linearity",
            "formula_error": 8.881784197001252e-16,
            "max_abs_error": 6.661338147750939e-16,
            "n": 10,
            "pass": True,
        },
        {
            "check": "stein_second_moment",
            "max_abs_error": 6.661338147750939e-16,
            "n": 6,
            "pass": True,
        },
        {
            "check": "stein_second_moment",
            "max_abs_error": 2.220446049250313e-16,
            "n": 8,
            "pass": True,
        },
        {
            "check": "stein_second_moment",
            "max_abs_error": 2.220446049250313e-16,
            "n": 10,
            "pass": True,
        },
        {
            "case_counts": {
                "1": 720,
                "2": 720,
                "3": 720,
                "4": 720,
                "5": 720,
                "6": 720,
                "7": 360,
                "8": 360,
                "9": 360,
                "10": 0,
            },
            "check": "case_exhaustiveness",
            "max_abs_error": 0.0,
            "n": 6,
            "pass": True,
        },
        {
            "case_counts": {
                "1": 20160,
                "2": 20160,
                "3": 20160,
                "4": 20160,
                "5": 20160,
                "6": 20160,
                "7": 5040,
                "8": 5040,
                "9": 5040,
                "10": 40320,
            },
            "check": "case_exhaustiveness",
            "max_abs_error": 0.0,
            "n": 8,
            "pass": True,
        },
        {
            "check": "impossible_cases_21_12",
            "max_abs_error": 0.0,
            "n": 6,
            "pass": True,
        },
        {
            "check": "impossible_cases_21_12",
            "max_abs_error": 0.0,
            "n": 8,
            "pass": True,
        },
        {
            "check": "completion_uniformity",
            "expected_count": 15,
            "max_abs_error": 0.0,
            "n": 6,
            "pass": True,
        },
        {
            "check": "completion_uniformity",
            "expected_count": 35,
            "max_abs_error": 0.0,
            "n": 8,
            "pass": True,
        },
        {"check": "p2_joint_law", "max_abs_error": 0.0, "n": 8, "pass": True},
        {"check": "p3_structural_zeros", "max_abs_error": 0.0, "n": 8, "pass": True},
        {
            "check": "zero_bias_moments",
            "max_abs_error": 8.881784197001252e-16,
            "n": 6,
            "pass": True,
        },
        {
            "check": "zero_bias_moments",
            "max_abs_error": 3.197442310920451e-14,
            "n": 8,
            "pass": True,
        },
        {
            "check": "zero_bias_cdf",
            "max_abs_error": 7.771561172376096e-16,
            "n": 6,
            "pass": True,
        },
        {
            "check": "zero_bias_cdf",
            "max_abs_error": 1.7763568394002505e-15,
            "n": 8,
            "pass": True,
        },
        {"check": "exchangeability", "max_abs_error": 0.0, "n": 6, "pass": True},
        {"check": "exchangeability", "max_abs_error": 0.0, "n": 8, "pass": True},
        {
            "case_counts": {
                "1": 47,
                "2": 36,
                "3": 51,
                "4": 56,
                "5": 49,
                "6": 36,
                "7": 13,
                "8": 15,
                "9": 11,
                "10": 86,
            },
            "check": "zero_bias_draw_invariants",
            "max_abs_error": 4.440892098500626e-16,
            "n": 8,
            "pass": True,
        },
        {
            "case_counts": {
                "1": 44,
                "2": 39,
                "3": 29,
                "4": 34,
                "5": 46,
                "6": 43,
                "7": 7,
                "8": 2,
                "9": 7,
                "10": 149,
            },
            "check": "zero_bias_draw_invariants",
            "max_abs_error": 8.881784197001252e-16,
            "n": 10,
            "pass": True,
        },
        {
            "check": "bound_chain",
            "exact_gap": 0.9460274146511111,
            "gap_bound": 24.23282263753452,
            "l1": 0.05732201103616799,
            "linf": 0.03247291618994452,
            "max_abs_error": 0.0,
            "n": 10,
            "pass": True,
        },
        {
            "check": "bound_chain",
            "exact_gap": 0.8887540080905459,
            "gap_bound": 23.509658794272084,
            "l1": 0.017638300753714864,
            "linf": 0.01162115236840755,
            "max_abs_error": 0.0,
            "n": 12,
            "pass": True,
        },
        {
            "check": "truncation_inequalities",
            "max_abs_error": 0.0,
            "n": 16,
            "pass": True,
        },
        {
            "check": "truncation_inequalities",
            "max_abs_error": 0.0,
            "n": 100,
            "pass": True,
        },
        {
            "check": "truncation_inequalities",
            "max_abs_error": 0.0,
            "n": 1000,
            "pass": True,
        },
        {
            "bound": 2.701551569381359,
            "check": "truncation_collision",
            "collision": 0.1111111111111111,
            "gamma_size": 2,
            "max_abs_error": 0.0,
            "n": 10,
            "pass": True,
        },
        {
            "bound": 2.8567144501826305,
            "check": "truncation_collision",
            "collision": 0.1717171717171717,
            "gamma_size": 4,
            "max_abs_error": 0.0,
            "n": 12,
            "pass": True,
        },
    ],
    "pass": True,
    "schema": 1,
}


class TestSimulate:
    def test_row_fields_and_thread_invariance(self, tmp_path):
        args = ("simulate", "--n", "10", "--draws", "20000", "--seed", "5")
        a = run_cli(*args, "--threads", "1")
        b = run_cli(*args, "--threads", "3")
        assert a.returncode == 0
        assert a.stdout == b.stdout
        header, row = a.stdout.strip().splitlines()
        assert header.split(",") == [
            "n",
            "beta",
            "ks_mc",
            "l1_mc",
            "gap_mc",
            "bound_linf",
            "bound_l1",
            "gap_bound",
        ]
        vals = dict(zip(header.split(","), row.split(",")))
        assert int(vals["n"]) == 10
        assert float(vals["gap_mc"]) <= float(vals["gap_bound"])

    def test_rows_match_recorded_list(self, tmp_path):
        js = tmp_path / "report.json"
        argv = ("simulate", "--n", "10,20,48,64", "--draws", "2000", "--seed", "7")
        out = run_cli(*argv, "--json", str(js))
        assert out.returncode == 0
        assert json.loads(js.read_text())["rows"] == RECORDED_SIMULATE
        header, *rows = out.stdout.splitlines()
        cols = header.split(",")
        got = [dict(zip(cols, map(json.loads, row.split(",")))) for row in rows]
        assert got == [{c: rec[c] for c in cols} for rec in RECORDED_SIMULATE]

    def test_mc_ks_close_to_exact(self):
        out = run_cli("simulate", "--n", "10", "--draws", "100000", "--seed", "5")
        header, row = out.stdout.strip().splitlines()
        vals = dict(zip(header.split(","), row.split(",")))
        # exact oracle for the same seeded array
        from invclt import checks, rng as rngmod
        from invclt.distances import kolmogorov_distance
        from invclt.involutions import exact_w_distribution

        gen = rngmod.derive_stream(5, rngmod.PURPOSE_ARRAY, 10)
        D = checks.random_centered(10, gen)
        ks_exact = kolmogorov_distance(exact_w_distribution(D))
        # |KS(F_m, Phi) - KS(F, Phi)| <= sup|F_m - F|, and by the DKW
        # inequality P(sup|F_m - F| > 4 * slack) <= 2 exp(-2m (4 * slack)^2)
        # = 2 * 2000^-16, so the false-failure probability is below 1e-52
        slack = math.sqrt(math.log(2.0 / 0.001) / (2.0 * 100000))
        assert abs(float(vals["ks_mc"]) - ks_exact) <= 4.0 * slack

    def test_json_report_with_draw_dump(self, tmp_path):
        js = tmp_path / "report.json"
        out = run_cli(
            "simulate",
            "--n",
            "10",
            "--draws",
            "2000",
            "--json",
            str(js),
            "--dump-draws",
            "3",
            "--out",
            str(tmp_path / "rows.csv"),
        )
        assert out.returncode == 0
        obj = json.loads(js.read_text())
        assert obj["schema"] == 1
        draws = obj["draws"]["10"]
        assert len(draws) == 3
        first = draws[0]
        assert sorted(first["pi"]) == list(range(1, 11))
        assert len(first["quad"]) == 4 and 1 <= first["case_id"] <= 10
        assert (tmp_path / "rows.csv").exists()

    def test_draw_dump_builds_one_table(self, tmp_path, monkeypatch, capsys):
        # the audit draws take their quadruples from the rejection sampler,
        # so the MC gap's table is the only n^4 build of the row
        from invclt import coupling
        built = []
        build = coupling.square_bias_table

        def counted(D):
            built.append(D.n)
            return build(D)

        monkeypatch.setattr(coupling, "square_bias_table", counted)
        js = tmp_path / "report.json"
        argv = ["simulate", "--n", "48", "--draws", "1000", "--json", str(js), "--dump-draws", "2"]
        assert cli.main(argv) == 0
        assert built == [48]
        assert len(json.loads(js.read_text())["draws"]["48"]) == 2

    def test_draw_dump_matches_recorded_list(self, tmp_path, capsys):
        js = tmp_path / "report.json"
        argv = ["simulate", "--n", "10", "--draws", "2000", "--seed", "7"]
        assert cli.main([*argv, "--json", str(js), "--dump-draws", "3"]) == 0
        assert json.loads(js.read_text())["draws"] == {"10": RECORDED_DRAWS}


# `lowerbound --n 64,100 --draws 20000 --seed 7`, recorded before the lattice
# values were summed off the pairing order in place of an image matrix.  The
# lattice array's Y is a sum of integers, exact in every summation order, so
# any change of the kernels must reproduce these bits.  `beta_over_n` moved
# in its last bit (2.0e-16 relative at most) when `moments` took beta from
# the standardized entries, sum |e^/sigma|^3, the one formula of beta.  The
# list may change only with a deliberate change of the moments, the sampling
# stream or the report schema (such as an exact lattice law in the report).
RECORDED_LOWERBOUND = [
    {
        "beta_over_n": 0.04279640051181076,
        "dkw_slack": 0.013784867119002347,
        "floor": 0.01580392922166222,
        "ks": 0.10575000000000001,
        "lattice_ok": True,
        "m": 20000,
        "n": 64,
        "pass": True,
        "sigma": 11.31518039237536,
    },
    {
        "beta_over_n": 0.034642820887521214,
        "dkw_slack": 0.013784867119002347,
        "floor": 0.012661913646978447,
        "ks": 0.08619565026294829,
        "lattice_ok": True,
        "m": 20000,
        "n": 100,
        "pass": True,
        "sigma": 14.142871944020088,
    },
]

# the `--out` CSV of the same call, recorded before `simulate` and
# `lowerbound` shared one CSV writer: the float columns are the `repr` of
# the recorded payload's values.
RECORDED_LOWERBOUND_CSV = (
    "n,sigma,ks,floor,beta_over_n\n"
    "64,11.31518039237536,0.10575000000000001,0.01580392922166222,0.04279640051181076\n"
    "100,14.142871944020088,0.08619565026294829,0.012661913646978447,0.034642820887521214\n"
)


class TestLowerbound:
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_experiments_match_recorded_list(self, threads, capsys):
        argv = ["lowerbound", "--n", "64,100", "--draws", "20000", "--seed", "7"]
        assert cli.main([*argv, "--threads", threads]) == 0
        assert json.loads(capsys.readouterr().out)["experiments"] == RECORDED_LOWERBOUND

    def test_out_csv_matches_recorded(self, tmp_path):
        csv = tmp_path / "rows.csv"
        argv = ["lowerbound", "--n", "64,100", "--draws", "20000", "--seed", "7"]
        assert run_cli(*argv, "--out", str(csv)).returncode == 0
        assert csv.read_text() == RECORDED_LOWERBOUND_CSV

    def test_small_run(self, tmp_path):
        csv = tmp_path / "rows.csv"
        out = run_cli(
            "lowerbound",
            "--n",
            "64",
            "--draws",
            "20000",
            "--out",
            str(csv),
            "--emit-cdf",
            str(tmp_path / "cdf.csv"),
        )
        assert out.returncode == 0
        obj = json.loads(out.stdout)
        rep = obj["experiments"][0]
        assert rep["n"] == 64 and rep["lattice_ok"] and rep["pass"]
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "n,sigma,ks,floor,beta_over_n"
        assert (tmp_path / "cdf.csv").exists()
