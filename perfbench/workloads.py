"""The four benchmark workloads: set-up, one round, and the checks of a round.

A round is one whole unit of the user-facing job at the benchmark's size:
both innovation laws of a table study, both halves of the power study, or one
walk ensemble with all four extremal functionals. Every round of a run uses
the same seed, so every round does the same work and must give the same bytes.
The study and power rounds call ``experiments.run_preset`` with an output
directory under ``.perfbench/`` and read its files back. The extremal round
calls the functions the ``extremal`` CLI calls, all four on one ensemble (the
CLI computes one per invocation). Each workload removes its output directory
in ``close``.
"""

from __future__ import annotations

import math
import shutil
import tempfile
from pathlib import Path

import checks
import reference as ref
from tailseries import distributions, experiments, extremal, rng, serialize, simulate
from tailseries.rng import RngState

OUT_ROOT = Path(__file__).resolve().parent.parent / ".perfbench"
LAWS = ("unshifted", "shifted")
PAPER_TRUTH = {"unshifted": 37.94, "shifted": 7.312}  # F^{-1}(1 - 0.001), linear AR(1)
CSV_HEADER = ["estimator", "k", "rmse", "l1", "bias", "stderr", "missing"]
SIZE_NOMINAL = 0.05
PORTMANTEAU_H = 20  # the lag count of the CLI's default portmanteau test

# Run sizes. "bench" is what the benchmark times; "tiny" is the self-test's.
# truth = (series, length) of the ground-truth stage, per law.
SIZES = {
    "bench": {
        "study-linear": {"truth": (8, 1_000_000), "replicates": 200},
        "study-nonlinear": {"truth": (4, 500_000), "replicates": 100},
        "power": {"replicates": 100},
        "extremal-all": {"paths": 100_000, "horizon": 200},
    },
    "tiny": {
        "study-linear": {"truth": (8, 250_000), "replicates": 40},
        "study-nonlinear": {"truth": (2, 100_000), "replicates": 40},
        "power": {"replicates": 40},
        "extremal-all": {"paths": 20_000, "horizon": 200},
    },
}

# Workers of the timed run. study-nonlinear runs with 2 so that its outputs can
# be compared byte for byte with a workers=1 run of the same seed.
WORKERS = {"study-linear": 1, "study-nonlinear": 2, "power": 1, "extremal-all": 1}


def new_out_dir(name: str) -> Path:
    """A fresh directory under .perfbench/ for a preset's output files."""
    OUT_ROOT.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_ROOT))


def close(wl) -> None:
    """Remove the output directory of workload ``wl``, if it has one."""
    if hasattr(wl, "out_dir"):
        shutil.rmtree(wl.out_dir, ignore_errors=True)


def to_plain(obj):
    """numpy arrays and scalars inside dicts to lists and Python numbers."""
    if isinstance(obj, dict):
        return {k: to_plain(v) for k, v in obj.items()}
    if hasattr(obj, "tolist"):
        return obj.tolist()
    return obj


def _series_checks(what, model, n, seed_path, seed) -> tuple[list[str], list[float]]:
    """Draws, innovations and the recursion of one series against the reference.

    ``seed_path`` is the substream path from ``seed`` to the series' stream.
    Returns the failures and the reference series (after burn-in).
    """
    spec = model.innovations
    total = model.burnin + n
    base = ref.stream_base(seed, seed_path)

    def program_stream():
        stream = RngState(seed)
        for i in seed_path:
            stream = stream.substream(i)
        return stream

    u = ref.uniforms(base, total)
    failures = checks.same_bits(f"{what} draws", program_stream().uniforms(16), u[:16])
    shifted = spec.kind == distributions.SHIFTED_TWO_SIDED_PARETO
    z = [ref.pareto_quantile(shifted, spec.gamma, spec.p, v) for v in u]
    failures += checks.close_values(f"{what} innovations",
                                    distributions.sample(spec, program_stream(), total), z)
    if model.variant == simulate.LINEAR_AR1:
        x = ref.linear_ar1(z, model.phi1)[model.burnin:]
    else:
        x = ref.nonlinear_ar1(z, model.phi1, model.delta)[model.burnin:]
    failures += checks.close_values(f"{what} series",
                                    simulate.simulate_series(model, n, program_stream()), x,
                                    scale_floor=1.0)
    return failures, x


class Study:
    """The table1 (linear) or table2 (nonlinear) preset over both innovation laws."""

    def __init__(self, name: str, seed: int, truth: tuple, replicates: int):
        self.name, self.seed = name, seed
        self.linear = name == "study-linear"
        self.preset = "table1" if self.linear else "table2"
        self.workers = WORKERS[name]
        self.replicates = replicates
        self.truth_reps, self.truth_len = truth
        # The preset reads its truth size from TRUTH_PROTOCOL by scale name.
        self.scale = f"perfbench-{truth[0]}x{truth[1]}"
        experiments.TRUTH_PROTOCOL[self.scale] = truth
        self.out_dir = new_out_dir(name)
        self.specs = {}
        for i, label in enumerate(LAWS):
            law = experiments.INNOVATIONS[label]
            model = (simulate.linear_ar1(experiments.STUDY_PHI, law) if self.linear else
                     simulate.nonlinear_ar1(experiments.STUDY_PHI, experiments.STUDY_DELTA, law))
            self.specs[label] = experiments.ExperimentSpec(
                model=model, n=experiments.STUDY_N, replicates=replicates,
                k_grid=experiments.DEFAULT_K_GRID, t=experiments.STUDY_T,
                master_seed=RngState(seed).derive_seed(i))
        burnin = self.specs["shifted"].model.burnin
        self.steps_per_round = len(LAWS) * (self.truth_reps * (burnin + self.truth_len)
                                            + replicates * (burnin + experiments.STUDY_N))

    def run_round(self, workers: int | None = None) -> dict:
        summaries = experiments.run_preset(self.preset, self.out_dir, replicates=self.replicates,
                                           seed=self.seed, scale=self.scale,
                                           workers=workers or self.workers)
        return {label: {"summary": summaries[label],
                        "json": (self.out_dir / label / "summary.json").read_text(),
                        "csv": (self.out_dir / label / "errors_vs_k.csv").read_text()}
                for label in LAWS}

    @staticmethod
    def output_bytes(result) -> bytes:
        return "".join(result[lab]["json"] + result[lab]["csv"] for lab in LAWS).encode()

    def with_estimates(self, label: str, summary):
        """The replicate stage again, serial and untimed, keeping the estimate array."""
        return experiments.run_quantile_experiment(
            self.specs[label], summary.true_value, summary.true_half_width, workers=1,
            keep_estimates=True)

    def check(self, result) -> list[str]:
        failures = []
        for i, label in enumerate(LAWS):
            spec = self.specs[label]
            s = self.with_estimates(label, result[label]["summary"])
            what = f"{self.name}/{label}"
            failures += checks.identical(
                f"{what} summary.json vs a workers=1 run that keeps the estimates",
                [result[label]["json"], serialize.dump_json(s.to_dict())])
            failures += checks.same_seed(f"{what} experiment seed", spec.master_seed,
                                         ref.stream_base(self.seed, (i,)))
            truth_path = (experiments._TRUTH_STREAM + i, 0)
            failures += checks.same_bits(
                f"{what} truth series 0 draws",
                RngState(self.seed).substream(truth_path[0]).substream(0).uniforms(16),
                ref.uniforms(ref.stream_base(self.seed, truth_path), 16))
            ks = list(spec.k_grid)
            for r in (0, spec.replicates - 1):
                fails, x = _series_checks(f"{what} replicate {r}", spec.model, spec.n,
                                          (r,), spec.master_seed)
                failures += fails
                failures += checks.close_values(f"{what} replicate {r} direct estimates",
                                                s.estimates[r, 0], ref.direct_curve(x, ks, spec.t))
                failures += checks.close_values(f"{what} replicate {r} model-based estimates",
                                                s.estimates[r, 1], ref.model_curve(x, ks, spec.t))
            failures += checks.summary_identity(what, s.rmse.tolist(), s.bias.tolist(),
                                                s.stderr.tolist(), s.missing.tolist(),
                                                s.estimates.tolist())
            failures += checks.csv_round_trip(
                f"{what} errors_vs_k.csv", result[label]["csv"], list(s.estimators), ks,
                {"rmse": s.rmse, "l1": s.l1, "bias": s.bias, "stderr": s.stderr,
                 "missing": s.missing})
            failures += checks.json_round_trip(
                f"{what} summary.json", result[label]["json"],
                {"true_value": s.true_value, "true_half_width": s.true_half_width,
                 "replicates": s.replicates, "k_grid": ks, "estimators": list(s.estimators),
                 "clamp_count": s.clamp_count})
        failures += self.check_properties(
            {lab: result[lab]["summary"] for lab in LAWS})
        return failures

    def check_properties(self, summaries) -> list[str]:
        direct, model = experiments.DIRECT, experiments.MODEL_BASED
        if self.linear:
            failures = []
            for label in LAWS:
                s = summaries[label]
                failures += checks.truth_matches_paper(f"{self.name}/{label}", s.true_value,
                                                       s.true_half_width, PAPER_TRUTH[label])
            s = summaries["unshifted"]
            failures += checks.first_beats_second(
                f"{self.name}/unshifted", (model, s.argmin_rmse[model][1]),
                (direct, s.argmin_rmse[direct][1]))
            return failures
        s = summaries["shifted"]
        failures = checks.first_beats_second(
            f"{self.name}/shifted", (direct, s.argmin_rmse[direct][1]),
            (model, s.argmin_rmse[model][1]))
        j = list(s.k_grid).index(s.argmin_rmse[model][0])
        failures += checks.positive_bias(
            f"{self.name}/shifted model-based", float(s.bias[1, j]), float(s.stderr[1, j]),
            s.replicates - int(s.missing[1, j]), s.true_half_width)
        return failures


class Power:
    """The power preset: nonlinear power and linear size of the residual tests."""

    name = "power"
    workers = 1

    def __init__(self, name: str, seed: int, replicates: int):
        self.seed, self.replicates = seed, replicates
        self.out_dir = new_out_dir(name)
        law = experiments.INNOVATIONS["shifted"]
        self.models = (simulate.nonlinear_ar1(experiments.STUDY_PHI, experiments.STUDY_DELTA, law),
                       simulate.linear_ar1(experiments.STUDY_PHI, law))
        self.steps_per_round = sum(replicates * (m.burnin + experiments.STUDY_N)
                                   for m in self.models)

    def run_round(self, workers: int | None = None) -> dict:
        reports = experiments.run_preset("power", self.out_dir, replicates=self.replicates,
                                         seed=self.seed)
        return {**reports, "json": (self.out_dir / "power.json").read_text()}

    @staticmethod
    def output_bytes(result) -> bytes:
        return result["json"].encode()

    def check(self, result) -> list[str]:
        failures = []
        for half, model in enumerate(self.models):
            fails, _ = _series_checks(f"power/{model.variant} replicate 0", model,
                                      experiments.STUDY_N,
                                      (experiments._POWER_STREAM, half, 0), self.seed)
            failures += fails
        failures += checks.json_round_trip(
            "power.json", result["json"],
            {"nonlinear_power": to_plain(result["power"].to_dict()),
             "linear_size": to_plain(result["size"].to_dict())})
        return failures + self.check_properties(result["size"])

    def check_properties(self, size) -> list[str]:
        rates = [size.turning_point, size.difference_sign,
                 float(size.portmanteau_by_h[PORTMANTEAU_H - 1])]
        return checks.binomial_rates("power/linear size", rates, SIZE_NOMINAL, size.replicates)


class Extremal:
    """One walk ensemble of the two-point driver, then all four functionals."""

    name = "extremal-all"
    workers = 1
    KMAX = 20
    QUERY = (1.0, 1.0)
    A_UP, A_DOWN, P_UP = 2.0, 0.5, 1.0 / 3.0
    THETA, JOINT_ALL, JOINT_SOME = 1.0 / 6.0, 2.0 / 3.0, 4.0 / 3.0
    CHECKED_PATHS = (0, 1)

    def __init__(self, name: str, seed: int, paths: int, horizon: int):
        self.seed, self.paths, self.horizon = seed, paths, horizon
        self.driver = simulate.SREDriver(simulate.TwoPointLaw(self.A_UP, self.A_DOWN, self.P_UP))
        self.kappa = simulate.solve_kappa(self.driver)
        self.queries = {mode: extremal.JointExceedanceQuery(self.QUERY, mode)
                        for mode in ("all", "some")}
        self.steps_per_round = paths * horizon

    def run_round(self, workers: int | None = None) -> dict:
        ens = simulate.simulate_walks(self.driver, self.kappa, self.horizon, self.paths,
                                      RngState(self.seed))
        theta, theta_se = extremal.extremal_index(ens)
        cluster = extremal.cluster_size_probs(ens, self.KMAX)
        avar = extremal.hill_avar_sre(ens)
        joint = {mode: extremal.joint_exceedance(ens, q) for mode, q in self.queries.items()}
        payload = {"schema_version": serialize.SCHEMA_VERSION, "kappa": self.kappa,
                   "paths": self.paths, "horizon": self.horizon, "seed": self.seed,
                   "theta": theta, "theta_stderr": theta_se,
                   "theta_k": cluster.theta_k, "theta_k_stderr": cluster.mc_stderr["theta_k"],
                   "pi_k": cluster.pi_k, "horizon_remainder": cluster.horizon_remainder,
                   "hill_avar": avar.variance, "hill_avar_stderr": avar.stderr,
                   "hill_avar_tail_bound": avar.tail_bound,
                   "joint_all": joint["all"][0], "joint_all_stderr": joint["all"][1],
                   "joint_some": joint["some"][0], "joint_some_stderr": joint["some"][1]}
        rows = {p: ens.paths[p].tolist() for p in (*self.CHECKED_PATHS, self.paths - 1)}
        return {"theta": (theta, theta_se), "cluster": cluster, "avar": avar, "joint": joint,
                "rows": rows, "json": serialize.dump_json(payload)}

    @staticmethod
    def output_bytes(result) -> bytes:
        return result["json"].encode()

    def check(self, result) -> list[str]:
        failures = []
        for p, row in result["rows"].items():
            u = ref.uniforms(ref.stream_base(self.seed, (p,)), self.horizon)
            program_u = rng.uniforms_for_bases(RngState(self.seed).child_bases(1, start=p), 16)
            failures += checks.same_bits(f"extremal-all path {p} draws", program_u[0].tolist(),
                                         u[:16])
            failures += checks.close_values(
                f"extremal-all path {p} walk", row,
                ref.walk(u, self.A_UP, self.A_DOWN, self.P_UP, self.kappa))
        failures += checks.json_round_trip(
            "extremal-all payload", result["json"],
            {"kappa": self.kappa, "theta": result["theta"][0],
             "hill_avar": result["avar"].variance, "joint_all": result["joint"]["all"][0]})
        return failures + self.check_properties(result)

    def check_properties(self, result) -> list[str]:
        theta, theta_se = result["theta"]
        cluster, avar, joint = result["cluster"], result["avar"], result["joint"]
        exact_avar = ref.two_point_hill_avar(round(math.log2(self.A_UP)), self.P_UP)
        return (checks.near("kappa", self.kappa, 1.0, 1e-10)
                + checks.near("theta", theta, self.THETA, checks.Z * theta_se)
                + checks.cluster_mass("cluster sizes",
                                      float(cluster.theta_k.sum() + cluster.horizon_remainder),
                                      float(cluster.theta_k[-1]),
                                      float(cluster.mc_stderr["theta_k"][-1]))
                + checks.near("joint all", joint["all"][0], self.JOINT_ALL,
                              checks.Z * joint["all"][1])
                + checks.near("joint some", joint["some"][0], self.JOINT_SOME,
                              checks.Z * joint["some"][1])
                + checks.near("hill avar", avar.variance, exact_avar,
                              checks.Z * avar.stderr + avar.tail_bound))


def make(name: str, seed: int, size: str = "bench"):
    """Set up workload ``name``: build its models, specs and driver."""
    cls = {"study-linear": Study, "study-nonlinear": Study,
           "power": Power, "extremal-all": Extremal}[name]
    return cls(name, seed, **SIZES[size][name])
