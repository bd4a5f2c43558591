import contextlib
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from invclt import arrays, cli
from invclt.bounds import lower_bound_array

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

    def test_mc_mode_above_cap(self, appendix_file, tmp_path):
        # force MC mode by lowering the exact cap
        out = run_cli(
            "analyze", "--input", appendix_file, "--cap", "2", "--draws", "5000"
        )
        assert out.returncode == 0
        obj = json.loads(out.stdout)
        assert obj["mode"] == "mc"
        assert obj["distances"]["m_samples"] == 5000

    def test_raised_cap_keeps_enumeration_guard(self, tmp_path):
        # n = 18 lies above the enumeration cap whatever --cap says; exact
        # mode would enumerate 34.5M matchings
        path = tmp_path / "n18.json"
        gen = np.random.default_rng(18)
        save_matrix_json(gen.standard_normal((18, 18)), path)
        out = run_cli(
            "analyze", "--input", str(path), "--symmetrize",
            "--cap", "20", "--draws", "1000",
        )
        assert out.returncode == 0
        obj = json.loads(out.stdout)
        assert obj["mode"] == "mc"
        assert obj["distances"]["m_samples"] == 1000


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

    @pytest.mark.parametrize("flag", [["--threads", "2"], ["--draws", "5"]], ids=lambda f: f[0])
    def test_mc_flags_are_usage_errors(self, flag, capsys):
        # verify draws no Monte Carlo sample sized by the command line
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_sweeps_shared_within_one_run(self, monkeypatch):
        # the five sweep families share one n = 6 and one n = 8 sweep per
        # run_checks call, and a second call computes them again
        from invclt import checks as checksmod, coupling

        calls = []
        sweep = coupling.exhaustive_sweep

        def counted(D):
            calls.append(D.n)
            return sweep(D)

        monkeypatch.setattr(coupling, "exhaustive_sweep", counted)
        families = (
            "case_exhaustiveness",
            "impossible_cases_21_12",
            "completion_uniformity",
            "p2_joint_law",
            "p3_structural_zeros",
        )
        monkeypatch.setattr(checksmod, "CHECKS", {k: checksmod.CHECKS[k] for k in families})
        first = checksmod.run_checks(5)
        assert sorted(calls) == [6, 8]
        assert checksmod.run_checks(5) == first
        assert sorted(calls) == [6, 6, 8, 8]

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
        [("simulate", "--n", "-4"), ("simulate", "--n", ","), ("lowerbound", "--n", ",")],
    )
    def test_bad_n_list_exit_2(self, argv, capsys):
        assert cli.main([*argv, "--draws", "100"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error:")

    def test_single_draw_simulate_exit_2(self, tmp_path, capsys):
        # a standard error needs two draws; one draw used to write NaN
        path = tmp_path / "r.json"
        assert cli.main(["simulate", "--n", "10", "--draws", "1", "--json", str(path)]) == 2
        assert not path.exists()
        assert capsys.readouterr().out == ""

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
        out = run_cli("analyze", "--input", appendix_file, "--p", "1,x")
        assert out.returncode == 2

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
# pairing rule with it.  The list may change only with a deliberate change of
# a sampling stream or of the report schema.
RECORDED_SIMULATE = [
    {
        "beta": 1.237784986823176,
        "bound_l1": 46.91205100059837,
        "bound_linf": 7637436.130906773,
        "gap_bound": 22.418761681341362,
        "gap_mc": 0.9268198594773309,
        "gap_se": 0.01541449038034542,
        "ks_mc": 0.027844790521896035,
        "l1_mc": 0.042155465115728805,
        "n": 10,
    },
    {
        "beta": 2.1588658351905377,
        "bound_l1": 40.91050757686069,
        "bound_linf": 6660365.130854452,
        "gap_bound": 15.768356060231685,
        "gap_mc": 0.6790079967264538,
        "gap_se": 0.011753308032437348,
        "ks_mc": 0.014365068291119332,
        "l1_mc": 0.025567240700140267,
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
        "l1_mc": 0.027057135926595522,
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
        "l1_mc": 0.023950334305458933,
        "n": 64,
    },
]


# `verify` at the default seed: the whole payload, recorded before exact_gap
# read its integrand off one table per pairing of each 4-set.  Every value is
# a deterministic function of the seed, so a change of summation order in a
# check shows here; the payload was the same with OpenBLAS at 1 and 2 threads.
# It may change only with a deliberate change of a check or of the report schema.
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
        {"check": "stein_second_moment", "max_abs_error": 0.0, "n": 6, "pass": True},
        {
            "check": "stein_second_moment",
            "max_abs_error": 2.220446049250313e-16,
            "n": 8,
            "pass": True,
        },
        {"check": "stein_second_moment", "max_abs_error": 0.0, "n": 10, "pass": True},
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
            "max_abs_error": 1.6653345369377348e-15,
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
            "l1": 0.05732201103616896,
            "linf": 0.03247291618994452,
            "max_abs_error": 0.0,
            "n": 10,
            "pass": True,
        },
        {
            "check": "bound_chain",
            "exact_gap": 0.8887540080905459,
            "gap_bound": 23.509658794272084,
            "l1": 0.017638300753714125,
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
        from invclt.distances import kolmogorov_distance, step_cdf_from_distribution
        from invclt.involutions import exact_w_distribution

        gen = rngmod.derive_stream(5, rngmod.PURPOSE_ARRAY, 10)
        D = checks.random_centered(10, gen)
        ks_exact = kolmogorov_distance(
            step_cdf_from_distribution(exact_w_distribution(D))
        )
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
# any change of the kernels must reproduce these bits.  The list may change
# only with a deliberate change of the sampling stream or of the report
# schema (such as an exact lattice law in the report).
RECORDED_LOWERBOUND = [
    {
        "beta_over_n": 0.04279640051181075,
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
        "beta_over_n": 0.03464282088752121,
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


class TestLowerbound:
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_experiments_match_recorded_list(self, threads, capsys):
        argv = ["lowerbound", "--n", "64,100", "--draws", "20000", "--seed", "7"]
        assert cli.main([*argv, "--threads", threads]) == 0
        assert json.loads(capsys.readouterr().out)["experiments"] == RECORDED_LOWERBOUND

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
