"""CLI surface: flows, exit codes, config merging, byte determinism."""

import json
import math
import warnings

import numpy as np
import pytest

from tailseries.cli import parse_and_dispatch
from tailseries.simulate import TwoPointLaw

from conftest import run_cli, run_python

MODEL_JSON = {
    "variant": "linear-ar1", "phi1": 0.8,
    "innovations": {"kind": "two-sided-pareto", "gamma": 0.5, "p": 0.5},
    "burnin": 500,
}
DRIVER_JSON = {
    "law": {"kind": "two-point", "a_up": 2.0, "a_down": 0.5, "p_up": 1.0 / 3.0},
    "b": {"kind": "constant", "value": 1.0},
}


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(MODEL_JSON))
    return str(path)


@pytest.fixture
def driver_file(tmp_path):
    path = tmp_path / "driver.json"
    path.write_text(json.dumps(DRIVER_JSON))
    return str(path)


@pytest.fixture
def series_file(tmp_path, model_file):
    out = tmp_path / "series.csv"
    code = parse_and_dispatch(["simulate", "--model", model_file, "--n", "1500",
                               "--seed", "5", "--out", str(out)])
    assert code == 0
    return str(out)


@pytest.fixture
def huge_series_file(tmp_path, series_file):
    """`series_file` times 2**900: finite, but its squares overflow."""
    x = np.loadtxt(series_file, delimiter=",", skiprows=1)[:, 1]
    out = tmp_path / "huge.csv"
    out.write_text("x\n" + "".join(f"{v!r}\n" for v in np.ldexp(x, 900).tolist()))
    return str(out)


def run_json(capsys, argv):
    code = parse_and_dispatch(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


class TestSimulate:
    def test_csv_format(self, series_file):
        lines = open(series_file).read().strip().splitlines()
        assert lines[0] == "t,x"
        assert len(lines) == 1501
        t, x = lines[1].split(",")
        assert t == "1" and float(x) == float(x)

    def test_deterministic_bytes(self, tmp_path, model_file):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert parse_and_dispatch(["simulate", "--model", model_file,
                                       "--seed", "9", "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_missing_model_is_usage_error(self):
        assert parse_and_dispatch(["simulate"]) == 2

    def test_overflowing_innovation_exits_3_with_one_line(self, tmp_path):
        # every draw's power overflows to inf: the recursion raises at step
        # 0, and numpy's overflow warning is not printed before the error
        model = tmp_path / "huge-gamma.json"
        model.write_text(json.dumps({**MODEL_JSON, "innovations": {
            **MODEL_JSON["innovations"], "gamma": 1e308}}))
        proc = run_cli(["simulate", "--model", str(model), "--n", "10"], text=True)
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr == "error: non-finite value in linear AR(1) recursion (step 0)\n"


class TestEstimate:
    def test_hill(self, capsys, series_file):
        payload = run_json(capsys, ["estimate", "--input", series_file,
                                    "--method", "hill", "--k", "100", "--abs"])
        assert payload["schema_version"] == "1"
        assert 0.2 < payload["gamma_hat"] < 1.0
        assert payload["estimate"] == payload["gamma_hat"]

    def test_weissman_direct(self, capsys, series_file):
        payload = run_json(capsys, ["estimate", "--input", series_file,
                                    "--method", "weissman-direct", "--k", "150",
                                    "--t", "0.001"])
        assert payload["estimate"] > 0
        assert payload["t"] == 0.001

    @pytest.mark.parametrize("flags, sorts", [([], 1), (["--abs"], 2)], ids=["raw", "abs"])
    def test_weissman_direct_sorts_once_per_hill_step(self, capsys, monkeypatch, series_file,
                                                      flags, sorts):
        # the estimate's own Hill step gives gamma_hat: one sort of the series,
        # and one of its absolute values with --abs, as the Hill method takes
        argv = ["estimate", "--input", series_file, "--method", "weissman-direct", "--k", "150",
                *flags]
        expected = run_json(capsys, argv)
        calls, sort = [], np.sort
        monkeypatch.setattr(np, "sort", lambda *a, **kw: calls.append(a) or sort(*a, **kw))
        assert run_json(capsys, argv) == expected
        assert len(calls) == sorts
        assert expected["gamma_hat"] == run_json(capsys, [
            "estimate", "--input", series_file, "--method", "hill", "--k", "150", *flags])["gamma_hat"]

    def test_weissman_model_fields(self, capsys, series_file):
        payload = run_json(capsys, ["estimate", "--input", series_file,
                                    "--method", "weissman-model", "--k", "150"])
        assert "phi_hat" in payload and "gamma_hat" in payload
        assert isinstance(payload["flags"], list)

    def test_model_based_on_huge_values(self, capsys, series_file, huge_series_file):
        argv = ["estimate", "--method", "weissman-model", "--k", "100", "--input"]
        huge = run_json(capsys, argv + [huge_series_file])
        assert huge["phi_hat"] == run_json(capsys, argv + [series_file])["phi_hat"]
        assert np.isfinite(huge["estimate"])

    def test_tied_top_flags_zero_gamma(self, capsys, tmp_path):
        tied = tmp_path / "tied.csv"
        tied.write_text("x\n" + "\n".join(["1.0"] + ["7.0"] * 6) + "\n")
        payload = run_json(capsys, ["estimate", "--input", str(tied),
                                    "--method", "hill", "--k", "5"])
        assert payload["gamma_hat"] == 0.0
        assert payload["flags"] == ["zero_gamma"]

    def test_domain_error_exit_code(self, series_file):
        # k = n forces the order-statistic precondition to fail
        assert parse_and_dispatch(["estimate", "--input", series_file,
                                   "--method", "hill", "--k", "1500"]) == 3

    @pytest.mark.parametrize("data, method, k, t", [
        ("big", "weissman-direct", "3", "0.001"),
        ("big", "weissman-model", "3", "0.001"),
        ("series", "weissman-direct", "5", "1e-320"),
    ])
    def test_overflowing_estimate_exits_3_with_one_line(self, tmp_path, series_file,
                                                        data, method, k, t):
        # the extrapolation overflows: by a Hill estimate near 700 on three
        # values near the largest double, or by k / (n * t) at a subnormal t;
        # numpy's overflow warning is not printed before the error
        big = tmp_path / "big.csv"
        big.write_text("x\n" + "1.0\n" * 200 + "1e300\n1.5e300\n1e306\n")
        proc = run_cli(["estimate", "--input", str(big) if data == "big" else series_file,
                        "--method", method, "--k", k, "--t", t], text=True)
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr == ("error: quantile estimate is not finite: "
                               "the extrapolation overflows\n")

    @pytest.mark.parametrize("method", ["hill", "weissman-direct", "weissman-model"])
    @pytest.mark.parametrize("k", ["0", "1500"])
    def test_k_out_of_range_same_error_for_every_method(self, capsys, series_file, method, k):
        assert parse_and_dispatch(["estimate", "--input", series_file,
                                   "--method", method, "--k", k]) == 3
        expected = f"error: k must satisfy 1 <= k <= n - 1 = 1499, got {k}\n"
        assert capsys.readouterr().err == expected

    def test_model_based_k_stops_at_n_minus_2(self, capsys, series_file):
        # an AR(1) fit leaves n - 1 residuals, so k = n - 1 has no Hill threshold
        assert parse_and_dispatch(["estimate", "--input", series_file,
                                   "--method", "weissman-model", "--k", "1499"]) == 3
        assert capsys.readouterr().err == ("error: every k must satisfy 1 <= k <= n - 2: "
                                           "an AR(1) fit leaves n - 1 residuals\n")

    def test_config_merge_and_override(self, capsys, tmp_path, series_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": "hill", "k": 100, "abs": True}))
        payload = run_json(capsys, ["estimate", "--input", series_file,
                                    "--config", str(cfg)])
        via_flags = run_json(capsys, ["estimate", "--input", series_file,
                                      "--method", "hill", "--k", "100", "--abs"])
        assert payload["estimate"] == via_flags["estimate"]
        # explicit flag overrides the config value
        override = run_json(capsys, ["estimate", "--input", series_file,
                                     "--config", str(cfg), "--k", "50"])
        assert override["k"] == 50

    def test_config_key_spellings(self, capsys, tmp_path, series_file):
        argv = ["estimate", "--input", series_file, "--method", "weissman-model", "--k", "100"]
        via_flag = run_json(capsys, argv + ["--no-center"])
        for key in ("no-center", "no_center"):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: True}))
            assert run_json(capsys, argv + ["--config", str(cfg)]) == via_flag

    @pytest.mark.parametrize("method", ["hill", "weissman-direct"])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_no_center_only_with_model_method(self, capsys, tmp_path, series_file, method, via):
        argv = ["estimate", "--input", series_file, "--method", method, "--k", "100"]
        if via == "flag":
            argv.append("--no-center")
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"no_center": True}))
            argv += ["--config", str(cfg)]
        assert parse_and_dispatch(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --no-center applies to --method weissman-model only\n"

    def test_unknown_config_key_rejected(self, tmp_path, series_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": "hill", "k": 10, "bandwidth": 3}))
        assert parse_and_dispatch(["estimate", "--input", series_file,
                                   "--config", str(cfg)]) == 2


class TestTheory:
    def test_rmse_ratio_reports_discrepancy(self, capsys):
        payload = run_json(capsys, ["theory", "rmse-ratio", "--phi", "0.8",
                                    "--gamma", "0.3"])
        assert payload["value"] == pytest.approx(1.0642904832033602, rel=1e-12)
        assert payload["paper_reported"] == 1.03
        assert payload["matches_paper_reported"] is False

    def test_tail_ratio(self, capsys):
        payload = run_json(capsys, ["theory", "tail-ratio", "--phi", "0.8",
                                    "--gamma", "0.5"])
        assert payload["value"] == pytest.approx(1 / 0.36, rel=1e-12)

    def test_second_order(self, capsys):
        payload = run_json(capsys, ["theory", "second-order", "--phi", "0.8",
                                    "--gamma", "0.3"])
        assert payload["d_psi"] == pytest.approx(0.95292311401515741, rel=1e-9)
        assert payload["D_psi"] == pytest.approx(-1.3446042520437852, rel=1e-9)

    def test_second_order_underflowing_ratio_is_silent(self):
        # 0.8**(1/1e-300) underflows to 0.0; the result is psi_0's alone
        proc = run_cli(["theory", "second-order", "--phi", "0.8", "--gamma", "1e-300"],
                       text=True)
        assert proc.returncode == 0 and proc.stderr == ""
        assert json.loads(proc.stdout)["d_psi"] == 0.5

    def test_missing_flags_usage_error(self):
        assert parse_and_dispatch(["theory", "hill-avar", "--phi", "0.5"]) == 2

    @pytest.mark.parametrize("quantity", ["tail-ratio", "second-order"])
    @pytest.mark.parametrize("p", ["0", "1.5"])
    def test_p_out_of_range_same_error(self, capsys, quantity, p):
        assert parse_and_dispatch(["theory", quantity, "--phi", "0.5", "--gamma", "0.5",
                                   "--p", p]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == "error: p must lie in (0, 1]\n"

    @pytest.mark.parametrize("argv", [
        *([quantity, "--gamma", gamma]
          for quantity in ("tail-ratio", "hill-avar", "rmse-ratio", "second-order")
          for gamma in ("inf", "1e308", "5e-324")),  # 1e308: |phi|**(1/gamma) rounds to 1
        ["rmse-ratio", "--gamma", "600"],  # (1+q)**(2*gamma) overflows
        ["tail-ratio", "--gamma", "1", "--p", "0"],
        ["hill-avar", "--gamma", "1e200", "--phi", "0"],  # gamma*gamma overflows
        ["second-order", "--gamma", "1", "--phi", "0.9999"],  # beyond the horizon cap
    ], ids=" ".join)
    def test_out_of_domain_exits_3(self, capsys, argv):
        # phi is -0.8 unless the case sets it: the last --phi wins
        assert parse_and_dispatch(["theory", argv[0], "--phi", "-0.8", *argv[1:]]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


class TestExtremal:
    def test_theta_with_auto_kappa(self, capsys, driver_file):
        payload = run_json(capsys, ["extremal", "theta", "--driver", driver_file,
                                    "--kappa", "auto", "--paths", "20000",
                                    "--horizon", "150", "--seed", "7"])
        assert payload["kappa"] == pytest.approx(1.0, abs=1e-9)
        assert payload["theta"] == pytest.approx(1 / 6, abs=0.02)
        assert payload["stderr"] > 0

    def test_byte_identical_reruns(self, tmp_path, driver_file):
        blobs = []
        for name in ("x.json", "y.json"):
            out = tmp_path / name
            assert parse_and_dispatch(["extremal", "theta", "--driver", driver_file,
                                       "--kappa", "auto", "--paths", "5000",
                                       "--horizon", "100", "--seed", "7",
                                       "--out", str(out)]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_zero_drift_same_error_for_solved_and_given_kappa(self, capsys, tmp_path):
        # E log A = 0: no stationary solution, whether kappa is solved for or given
        driver = tmp_path / "driver.json"
        driver.write_text(json.dumps({"law": {"kind": "two-point", "a_up": 2.0,
                                              "a_down": 0.5, "p_up": 0.5}}))
        errors = []
        for kappa in ("auto", "0.5"):
            assert parse_and_dispatch(["extremal", "theta", "--driver", str(driver),
                                       "--kappa", kappa]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            errors.append(err)
        assert errors == ["error: multiplier law must have E[log A] < 0, got 0\n"] * 2

    def test_joint_requires_thresholds(self, driver_file):
        assert parse_and_dispatch(["extremal", "joint", "--driver", driver_file]) == 2

    def test_joint_hand_value(self, capsys, driver_file):
        payload = run_json(capsys, ["extremal", "joint", "--driver", driver_file,
                                    "--x", "1,1", "--mode", "all",
                                    "--paths", "50000", "--horizon", "50"])
        assert payload["limit"] == pytest.approx(2 / 3, abs=0.01)

    @pytest.mark.parametrize("x, mode", [("1e-300,1", "some"), ("1e-300", "some"),
                                         ("1e-300", "all")])
    def test_joint_non_finite_limit_exits_3(self, capsys, driver_file, x, mode):
        assert parse_and_dispatch(["extremal", "joint", "--driver", driver_file, "--x", x,
                                   "--mode", mode, "--kappa", "3", "--paths", "2000"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err

    def test_joint_all_with_a_tiny_first_threshold_is_finite(self, capsys, driver_file):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the infinite weight of x_0 warns of nothing
            payload = run_json(capsys, ["extremal", "joint", "--driver", driver_file,
                                        "--x", "1e-300,1", "--mode", "all", "--kappa", "3",
                                        "--paths", "2000"])
        assert 0 < payload["limit"] < 10 and 0 < payload["stderr"] < 1

    def test_overflowing_moment(self, capsys, tmp_path):
        # doubling the bracket reaches E A**33.5, where 1e10**33.5 overflows
        law = {"kind": "two-point", "a_up": 1e10, "a_down": 0.5, "p_up": 1e-300}
        driver = tmp_path / "driver.json"
        driver.write_text(json.dumps({"law": law}))
        payload = run_json(capsys, ["extremal", "theta", "--driver", str(driver),
                                    "--paths", "1000", "--horizon", "20"])
        assert payload["kappa"] == pytest.approx(30.0, rel=1e-10)
        assert abs(TwoPointLaw(1e10, 0.5, 1e-300).moment(payload["kappa"]) - 1.0) <= 1e-10
        # at p_up = 5e-324 the moment overflows before it climbs back to 1
        driver.write_text(json.dumps({"law": {**law, "p_up": 5e-324}}))
        assert parse_and_dispatch(["extremal", "theta", "--driver", str(driver)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("quantity", ["theta", "hill-avar"])
    def test_lognormal_kappa_beyond_the_doubles_exits_3(self, capsys, tmp_path, quantity):
        # sigma**2 underflows to 0, and -2*mu/sigma**2 is far beyond the doubles
        driver = tmp_path / "driver.json"
        driver.write_text(json.dumps({"law": {"kind": "lognormal", "mu": -1e308,
                                              "sigma": 1e-300}}))
        assert parse_and_dispatch(["extremal", quantity, "--driver", str(driver),
                                   "--paths", "1000", "--horizon", "50"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == "error: -2*mu/sigma**2 = inf is not a finite positive number\n"

    def test_overflowing_power_of_a_given_kappa(self, tmp_path):
        # at kappa 3000, 2.0**3000 overflows: these two paths never step up,
        # so theta runs on finite walks, but E A**1500 is inf and bounds no
        # omitted tail of the Hill variance
        driver = tmp_path / "driver.json"
        driver.write_text(json.dumps({"law": {"kind": "two-point", "a_up": 2.0,
                                              "a_down": 0.5, "p_up": 0.01}}))
        argv = ["--driver", str(driver), "--kappa", "3000", "--paths", "2", "--horizon", "3"]
        theta = run_cli(["extremal", "theta", *argv], text=True)
        assert theta.returncode == 0 and theta.stderr == ""
        assert json.loads(theta.stdout)["theta"] == 1
        avar = run_cli(["extremal", "hill-avar", *argv], text=True)
        assert avar.returncode == 2 and avar.stdout == ""
        assert "Traceback" not in avar.stderr and "RuntimeWarning" not in avar.stderr
        assert avar.stderr.startswith("error: E A**(kappa/2) = inf >= 1")
        assert avar.stderr.count("\n") == 1, avar.stderr

    def test_cluster_fields(self, capsys, driver_file):
        payload = run_json(capsys, ["extremal", "cluster", "--driver", driver_file,
                                    "--paths", "5000", "--horizon", "100",
                                    "--kmax", "5"])
        assert len(payload["pi_k"]) == 5
        assert len(payload["theta_k_stderr"]) == 5
        assert payload["horizon_remainder"] > 0


class TestDiagnose:
    def test_reports(self, capsys, series_file):
        payload = run_json(capsys, ["diagnose", "--input", series_file,
                                    "--tests", "tp,ds,lb", "--h", "10"])
        names = [r["test"] for r in payload["reports"]]
        assert names == ["turning-point", "difference-sign", "portmanteau"]
        for report in payload["reports"]:
            assert report["reject_at_5pct"] == (report["p_value"] < 0.05)

    def test_portmanteau_on_huge_values(self, capsys, series_file, huge_series_file):
        # the statistic is scale-invariant, so 2**900-scale data gives the same report
        argv = ["diagnose", "--tests", "lb", "--h", "5", "--input"]
        huge = run_json(capsys, argv + [huge_series_file])
        assert huge["reports"] == run_json(capsys, argv + [series_file])["reports"]
        assert huge["reports"][0]["statistic"] is not None

    def test_unknown_test_rejected(self, series_file):
        assert parse_and_dispatch(["diagnose", "--input", series_file,
                                   "--tests", "tp,zz"]) == 2


class TestExperimentPreset:
    def test_scatter_preset_files(self, capsys, tmp_path):
        out = tmp_path / "fig2"
        payload = run_json(capsys, ["experiment", "figure2-scatter",
                                    "--out", str(out), "--seed", "3"])
        assert sorted(payload["files"]) == ["fit.json", "scatter.csv"]
        fit = json.loads((out / "fit.json").read_text())
        assert 0.9 < fit["phi_hat"] < 1.05
        lines = (out / "scatter.csv").read_text().strip().splitlines()
        assert lines[0] == "x_prev,x_cur"
        assert len(lines) == 2000  # header + n-1 pairs

    def test_power_preset_small(self, capsys, tmp_path):
        out = tmp_path / "power"
        payload = run_json(capsys, ["experiment", "power", "--out", str(out),
                                    "--replicates", "8", "--seed", "11"])
        assert payload["files"] == ["power.json"]
        data = json.loads((out / "power.json").read_text())
        assert set(data) == {"schema_version", "nonlinear_power", "linear_size"}
        assert len(data["nonlinear_power"]["portmanteau_by_h"]) == 30

    def test_power_bytes_do_not_depend_on_workers(self, capsys, tmp_path):
        outputs = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}"
            run_json(capsys, ["experiment", "power", "--out", str(out), "--replicates", "8",
                              "--seed", "11", "--workers", workers])
            outputs.append((out / "power.json").read_bytes())
        assert outputs[0] == outputs[1]

    def test_unknown_preset(self, tmp_path):
        assert parse_and_dispatch(["experiment", "table9", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("preset", ["table1", "figure4"])
    def test_quantile_preset_needs_two_replicates(self, tmp_path, preset):
        # a standard error needs two replicates; the error comes before any
        # truth series is drawn
        out = tmp_path / preset
        proc = run_cli(["experiment", preset, "--out", str(out), "--replicates", "1"], text=True)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert "Traceback" not in proc.stderr and not out.exists()


def scipy_after(argv=None):
    """Exit code and the scipy modules loaded after a fresh process imports
    `tailseries` and `tailseries.cli` and, given ``argv``, runs that command."""
    proc = run_python(["-c", (
        "import json, sys, tailseries, tailseries.cli\n"
        f"code = tailseries.cli.parse_and_dispatch({argv!r}) if {argv!r} else 0\n"
        "print(json.dumps([code, sorted(m for m in sys.modules"
        " if m.partition('.')[0] == 'scipy')]))")], text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("quantity", [None, "theta", "cluster", "hill-avar", "joint"])
def test_no_scipy_on_import_or_two_point_extremal(tmp_path, driver_file, quantity):
    argv = quantity and ["extremal", quantity, "--driver", driver_file, "--paths", "2000",
                         "--horizon", "150", "--kmax", "3", "--x", "1,1",
                         "--out", str(tmp_path / "out.json")]
    assert scipy_after(argv) == [0, []]


def test_lognormal_extremal_and_diagnose_import_scipy_when_called(tmp_path, series_file):
    driver = tmp_path / "lognormal.json"
    driver.write_text(json.dumps({"law": {"kind": "lognormal", "mu": -0.5, "sigma": 1.0}}))
    out = str(tmp_path / "out.json")
    for argv in (["extremal", "theta", "--driver", str(driver), "--paths", "2000",
                  "--horizon", "30", "--out", out],
                 ["diagnose", "--input", series_file, "--out", out]):
        code, loaded = scipy_after(argv)
        assert code == 0 and "scipy.special" in loaded


def test_console_script_runs():
    proc = run_cli(["theory", "rmse-ratio", "--phi", "0.8", "--gamma", "0.3"], text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["paper_reported"] == 1.03


def test_help_exits_zero():
    assert parse_and_dispatch(["--help"]) == 0


def test_every_subcommand_help_lists_config(capsys):
    for command in ("simulate", "estimate", "theory", "extremal", "diagnose", "experiment"):
        assert parse_and_dispatch([command, "--help"]) == 0
        assert "--config" in capsys.readouterr().out


# JSON files that the entries below name as {tmp}/<key>.json
BAD_FILES = {
    "no-gamma": {**MODEL_JSON, "innovations": {"kind": "two-sided-pareto", "p": 0.5}},
    "innovations-not-object": {**MODEL_JSON, "innovations": 3},
    "no-a-down": {**DRIVER_JSON, "law": {"kind": "two-point", "a_up": 2.0, "p_up": 1 / 3}},
    "constant-b-no-value": {**DRIVER_JSON, "b": {"kind": "constant"}},
    "fractional-burnin": {**MODEL_JSON, "burnin": 1.5},
    "phi1-as-string": {**MODEL_JSON, "phi1": "0.8"},
    "p-as-bool": {**MODEL_JSON, "innovations": {**MODEL_JSON["innovations"], "p": True}},
    "lognormal-mu-minus-inf": {"law": {"kind": "lognormal", "mu": -math.inf, "sigma": 1.0}},
}

# Each entry: argv ({series}, {nan_series}, {driver}, {tmp} are filled in) and
# a --config object, or None for no config file.
BAD_INPUTS = {
    "config-unknown-method": (["estimate", "--input", "{series}", "--k", "50"],
                              {"method": "bogus"}),
    "config-bool-as-string": (["estimate", "--input", "{series}", "--method", "hill",
                               "--k", "50"], {"abs": "false"}),
    "config-fractional-int": (["estimate", "--input", "{series}", "--method", "hill"],
                              {"k": 100.7}),
    "config-bool-as-int": (["estimate", "--input", "{series}", "--method", "hill"],
                           {"k": True}),
    "config-x-as-list": (["extremal", "joint", "--driver", "{driver}"], {"x": [1, 1]}),
    "config-tests-as-list": (["diagnose", "--input", "{series}"], {"tests": ["tp"]}),
    "kappa-not-a-number": (["extremal", "theta", "--driver", "{driver}", "--kappa", "abc"],
                           None),
    "estimate-nan-row": (["estimate", "--input", "{nan_series}", "--method", "hill",
                          "--k", "10"], None),
    "diagnose-nan-row": (["diagnose", "--input", "{nan_series}"], None),
    "estimate-header-only": (["estimate", "--input", "{tmp}/header-only.csv", "--method",
                              "hill", "--k", "3"], None),
    "diagnose-header-only": (["diagnose", "--input", "{tmp}/header-only.csv"], None),
    "zero-replicates": (["experiment", "power", "--out", "{tmp}/power", "--replicates", "0"],
                        None),
    "zero-workers": (["experiment", "power", "--out", "{tmp}/power", "--workers", "0"], None),
    "simulate-seed-negative": (["simulate", "--model", "{tmp}/model.json", "--seed", "-1"], None),
    "simulate-n-negative": (["simulate", "--model", "{tmp}/model.json", "--n", "-1"], None),
    "simulate-seed-2**64": (["simulate", "--model", "{tmp}/model.json",
                             "--seed", "18446744073709551616"], None),
    "experiment-seed-negative": (["experiment", "figure2-scatter", "--out", "{tmp}/power",
                                  "--seed", "-7"], None),
    "experiment-seed-2**64": (["experiment", "power", "--out", "{tmp}/power",
                               "--seed", "18446744073709551616"], None),
    "model-no-gamma": (["simulate", "--model", "{tmp}/no-gamma.json"], None),
    "model-innovations-not-object": (["simulate", "--model", "{tmp}/innovations-not-object.json"],
                                     None),
    "driver-no-a-down": (["extremal", "theta", "--driver", "{tmp}/no-a-down.json"], None),
    "driver-constant-b-no-value": (["extremal", "theta", "--driver",
                                    "{tmp}/constant-b-no-value.json"], None),
    "model-fractional-burnin": (["simulate", "--model", "{tmp}/fractional-burnin.json"], None),
    "model-phi1-as-string": (["simulate", "--model", "{tmp}/phi1-as-string.json"], None),
    "model-p-as-bool": (["simulate", "--model", "{tmp}/p-as-bool.json"], None),
    "lognormal-mu-minus-inf-theta": (["extremal", "theta", "--driver",
                                      "{tmp}/lognormal-mu-minus-inf.json", "--paths", "1000",
                                      "--horizon", "50"], None),
    "lognormal-mu-minus-inf-hill-avar": (["extremal", "hill-avar", "--driver",
                                          "{tmp}/lognormal-mu-minus-inf.json", "--paths", "1000",
                                          "--horizon", "50"], None),
    "theta-one-path": (["extremal", "theta", "--driver", "{driver}", "--paths", "1"], None),
    "cluster-one-path": (["extremal", "cluster", "--driver", "{driver}", "--kmax", "2",
                          "--paths", "1"], None),
    "hill-avar-one-path": (["extremal", "hill-avar", "--driver", "{driver}", "--paths", "1"],
                           None),
    "joint-one-path": (["extremal", "joint", "--driver", "{driver}", "--x", "1,1",
                        "--paths", "1"], None),
}


@pytest.mark.parametrize("argv, config", BAD_INPUTS.values(), ids=list(BAD_INPUTS))
def test_bad_input_exits_2(capsys, tmp_path, series_file, driver_file, argv, config):
    lines = open(series_file).read().splitlines()
    lines[10] = lines[10].split(",")[0] + ",nan"
    nan_series = tmp_path / "nan.csv"
    nan_series.write_text("\n".join(lines) + "\n")
    (tmp_path / "header-only.csv").write_text("t,x\n")
    for name, obj in BAD_FILES.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    argv = [a.format(series=series_file, nan_series=nan_series, driver=driver_file,
                     tmp=tmp_path) for a in argv]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv += ["--config", str(cfg)]
    assert parse_and_dispatch(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "power").exists()
