"""Command-line interface.

One executable with six subcommands: ``simulate``, ``estimate``, ``theory``,
``extremal``, ``diagnose``, ``experiment``. Results go to stdout (or files
under ``--out``); messages go to stderr. Exit codes: 0 success, 2 usage or
configuration error, 3 numerical/domain error. Every run is a pure function
of its flags: seeds default to a fixed constant, never the clock.

A ``--config file.json`` may supply any long-flag value by name (hyphens or
underscores); explicit flags win, unknown keys are rejected, and each value is
checked like its flag.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import diagnostics, estimators, experiments, extremal, serialize, simulate, theory
from .errors import ConfigurationError, DomainError, NoRootError, SimulationError, TailSeriesError
from .rng import RngState

DEFAULT_SEED = experiments.DEFAULT_SEED

_RMSE_RATIO_MATCH_TOL = 0.005


def _read_series(path: str) -> np.ndarray:
    """Series from a CSV with an ``x`` column (as written by ``simulate``) or
    a headerless single column."""
    text = Path(path).read_text().strip().splitlines()
    if not text:
        raise ConfigurationError(f"empty input file {path}")
    header = text[0].split(",")
    try:
        float(header[-1])
        col, start = len(header) - 1, 0
    except ValueError:
        if "x" not in header:
            raise ConfigurationError(f"no 'x' column in {path} header {header}")
        col, start = header.index("x"), 1
    if len(text) == start:
        raise ConfigurationError(f"no data rows in {path}")
    try:
        series = np.array([float(line.split(",")[col]) for line in text[start:]])
    except (ValueError, IndexError) as exc:
        raise ConfigurationError(f"cannot parse {path}: {exc}")
    bad = np.flatnonzero(~np.isfinite(series))
    if bad.size:
        line = bad[0] + start
        raise ConfigurationError(f"non-finite value in {path} line {line + 1}: {text[line]!r}")
    return series


def _load_json_file(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigurationError(f"file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"invalid JSON in {path}: {exc}")
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path} must hold a JSON object")
    return data


def _emit(payload: dict, out: str | None):
    text = serialize.dump_json(payload)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


# --- subcommand implementations -------------------------------------------


def _cmd_simulate(args) -> int:
    model_obj = _load_json_file(args.model) if isinstance(args.model, str) else args.model
    model = simulate.SeriesModel.from_json(model_obj)
    series = simulate.simulate_series(model, args.n, RngState(args.seed))
    csv = serialize.dump_csv(["t", "x"], zip(range(1, args.n + 1), series))
    if args.out:
        Path(args.out).write_text(csv)
    else:
        sys.stdout.write(csv)
    return 0


def _cmd_estimate(args) -> int:
    if args.no_center and args.method != "weissman-model":
        raise ConfigurationError("--no-center applies to --method weissman-model only")
    series = _read_series(args.input)
    n = series.size
    # one check for every method, with the exit code of hill's own
    if not (1 <= args.k <= n - 1):
        raise DomainError(f"k must satisfy 1 <= k <= n - 1 = {n - 1}, got {args.k}")
    flags = []
    payload = {"schema_version": serialize.SCHEMA_VERSION, "method": args.method,
               "k": args.k, "n": n}
    if args.method == "hill":
        sample = np.abs(series) if args.abs else series
        gamma = estimators.hill(sample, args.k)
        payload.update({"estimate": gamma, "gamma_hat": gamma})
    elif args.method == "weissman-direct":
        target = estimators.QuantileTarget(t=args.t, k=args.k, n=n)
        gamma = estimators.hill(np.abs(series) if args.abs else series, args.k)
        est = estimators.weissman_direct(series, target, use_abs=args.abs)
        payload.update({"estimate": est, "gamma_hat": gamma, "t": args.t})
    else:  # weissman-model
        target = estimators.QuantileTarget(t=args.t, k=args.k, n=n)
        fit = estimators.weissman_model_ar1_fit(series, target, use_abs=args.abs,
                                                center=not args.no_center)
        gamma = fit.gamma_hat
        if fit.clamped:
            flags.append("clamped")
        payload.update({"estimate": fit.estimate, "gamma_hat": fit.gamma_hat,
                        "phi_hat": fit.phi_hat, "t": args.t})
    if gamma == 0.0:
        flags.append("zero_gamma")
    payload["flags"] = flags
    _emit(payload, args.out)
    return 0


def _cmd_theory(args) -> int:
    phi, gamma, p = args.phi, args.gamma, args.p
    payload = {"schema_version": serialize.SCHEMA_VERSION, "quantity": args.quantity,
               "phi": phi, "gamma": gamma}
    if args.quantity == "tail-ratio":
        payload["p"] = p
        payload["value"] = theory.tail_ratio_ar1(phi, gamma, p)
    elif args.quantity == "hill-avar":
        payload["value"] = theory.hill_avar_ar1(phi, gamma)
    elif args.quantity == "rmse-ratio":
        value = theory.rmse_ratio_ar1(phi, gamma)
        payload["value"] = value
        reported = theory.RMSE_RATIO_REPORTED.get((abs(phi), gamma))
        if reported is not None:
            payload["paper_reported"] = reported
            payload["matches_paper_reported"] = bool(abs(value - reported) <= _RMSE_RATIO_MATCH_TOL)
    else:  # second-order
        payload["p"] = p
        seq = theory.CoefficientSequence.ar1(phi, gamma)
        tail = theory.shifted_pareto_tail(gamma, p)
        d_psi, big_d = theory.second_order_constants(seq, gamma, tail)
        payload.update({"tail_constants": {"c": tail.c, "d": tail.d,
                                           "c_tilde": tail.c_tilde, "d_tilde": tail.d_tilde},
                        "d_psi": d_psi, "D_psi": big_d})
    _emit(payload, args.out)
    return 0


def _cmd_extremal(args) -> int:
    driver = simulate.SREDriver.from_json(_load_json_file(args.driver))
    kappa = simulate.solve_kappa(driver) if args.kappa == "auto" else args.kappa
    ensemble = simulate.simulate_walks(driver, kappa, args.horizon, args.paths,
                                       RngState(args.seed))
    payload = {"schema_version": serialize.SCHEMA_VERSION, "quantity": args.quantity,
               "kappa": kappa, "paths": args.paths, "horizon": args.horizon,
               "seed": args.seed}
    if args.quantity == "theta":
        theta, se = extremal.extremal_index(ensemble)
        payload.update({"theta": theta, "stderr": se})
    elif args.quantity == "cluster":
        summary = extremal.cluster_size_probs(ensemble, args.kmax)
        payload.update({
            "theta": summary.theta, "theta_stderr": summary.mc_stderr["theta"],
            "theta_k": summary.theta_k, "theta_k_stderr": summary.mc_stderr["theta_k"],
            "pi_k": summary.pi_k, "pi_k_stderr": summary.mc_stderr["pi_k"],
            "mean_cluster_size": summary.mean_cluster_size(),
            "horizon_remainder": summary.horizon_remainder,
        })
    elif args.quantity == "hill-avar":
        result = extremal.hill_avar_sre(ensemble)
        payload.update({"variance": result.variance, "stderr": result.stderr,
                        "tail_bound": result.tail_bound})
    else:  # joint
        query = extremal.JointExceedanceQuery(x=args.x, mode=args.mode)
        limit, se = extremal.joint_exceedance(ensemble, query)
        payload.update({"x": list(args.x), "mode": args.mode,
                        "limit": limit, "stderr": se})
    _emit(payload, args.out)
    return 0


_TEST_NAMES = {"tp": "turning-point", "ds": "difference-sign", "lb": "portmanteau"}


def _cmd_diagnose(args) -> int:
    series = _read_series(args.input)
    wanted = args.tests.split(",")
    unknown = set(wanted) - set(_TEST_NAMES)
    if unknown:
        raise ConfigurationError(f"unknown tests {sorted(unknown)}; choose from tp,ds,lb")
    reports = []
    for short in wanted:
        if short == "tp":
            rep = diagnostics.turning_point_test(series)
        elif short == "ds":
            rep = diagnostics.difference_sign_test(series)
        else:
            rep = diagnostics.portmanteau_test(series, args.h)
        entry = {"test": _TEST_NAMES[short], "statistic": rep.statistic,
                 "z_or_q": rep.z_or_q, "p_value": rep.p_value,
                 "reject_at_5pct": rep.reject_at_5pct}
        if short == "lb":
            entry["h"] = args.h
        reports.append(entry)
    _emit({"schema_version": serialize.SCHEMA_VERSION, "reports": reports}, args.out)
    return 0


def _cmd_experiment(args) -> int:
    out = Path(args.out)
    experiments.run_preset(args.preset, out, replicates=args.replicates,
                           seed=args.seed, scale=args.scale, workers=args.workers)
    files = sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file())
    _emit({"schema_version": serialize.SCHEMA_VERSION, "preset": args.preset,
           "out": str(out), "scale": args.scale, "seed": args.seed,
           "files": files}, None)
    return 0


# --- option table -----------------------------------------------------------
# One row per option: (name, type, default, help). A type is int, float, str,
# bool, a list of choices, or a parser function whose docstring says what it takes.

REQUIRED = object()  # default of an option that must be given


def _convert(kind, value):
    """``value``, a flag string or a JSON value from --config, as ``kind``."""
    if isinstance(kind, list) or kind in (str, bool):
        if value in kind if isinstance(kind, list) else isinstance(value, kind):
            return value
    elif kind in (int, float):
        if isinstance(value, (str, int, float)) and not isinstance(value, bool):
            number = kind(value)
            if isinstance(value, str) or number == value:  # an int takes no fraction
                return number
    else:
        return kind(value)
    raise ValueError(value)


def _kappa(value):
    """'auto' or a positive number"""
    kappa = value if value == "auto" else _convert(float, value)
    if kappa != "auto" and not 0 < kappa < float("inf"):
        raise ValueError(value)
    return kappa


def _thresholds(value):
    """comma-separated numbers such as 1,1"""
    return tuple(float(v) for v in _convert(str, value).split(","))


def _model_source(value):
    """a model JSON file (in --config, also the model object itself)"""
    return value if isinstance(value, dict) else _convert(str, value)


_SEED = ("seed", int, DEFAULT_SEED, "master seed")
_INPUT = ("input", str, REQUIRED, "input CSV in simulate format")
_OUT = ("out", str, None, "output JSON path (default stdout)")

# subcommand -> (handler, help, positional (name, choices) or None, option rows)
_COMMANDS = {
    "simulate": (_cmd_simulate, "simulate a series to CSV (header t,x)", None, [
        ("model", _model_source, REQUIRED, "model JSON file"),
        ("n", int, 2000, "series length"),
        _SEED,
        ("out", str, None, "output CSV path (default stdout)")]),
    "estimate": (_cmd_estimate, "tail/quantile estimate from a CSV series", None, [
        _INPUT,
        ("method", ["hill", "weissman-direct", "weissman-model"], REQUIRED, "estimator"),
        ("k", int, REQUIRED, "number of upper order statistics"),
        ("t", float, 0.001, "exceedance probability"),
        ("abs", bool, False, "Hill step on absolute values"),
        ("no-center", bool, False, "uncentered AR(1) fit (weissman-model only)"),
        _OUT]),
    "theory": (_cmd_theory, "closed-form tail quantities for AR(1)",
               ("quantity", ["tail-ratio", "hill-avar", "rmse-ratio", "second-order"]), [
        ("phi", float, REQUIRED, "AR(1) coefficient"),
        ("gamma", float, REQUIRED, "extreme value index"),
        ("p", float, 0.5, "right-tail balance"),
        _OUT]),
    "extremal": (_cmd_extremal, "extremal-dependence quantities of an SRE",
                 ("quantity", ["theta", "cluster", "hill-avar", "joint"]), [
        ("driver", str, REQUIRED, "driver JSON file"),
        ("kappa", _kappa, "auto", _kappa.__doc__),
        ("paths", int, 100_000, "Monte Carlo paths"),
        ("horizon", int, 200, "walk horizon J"),
        ("kmax", int, 20, "largest cluster size"),
        ("x", _thresholds, None, "comma-separated thresholds for joint queries"),
        ("mode", ["all", "some"], "all", "joint mode"),
        _SEED,
        _OUT]),
    "diagnose": (_cmd_diagnose, "residual randomness tests on a CSV series", None, [
        _INPUT,
        ("tests", str, "tp,ds,lb", "comma list from tp,ds,lb"),
        ("h", int, 20, "portmanteau lags"),
        _OUT]),
    "experiment": (_cmd_experiment, "run a named study preset",
                   ("preset", list(experiments.PRESETS)), [
        ("replicates", int, None, "Monte Carlo replicates"),
        _SEED,
        ("out", str, REQUIRED, "output directory"),
        ("scale", ["desk", "paper"], "desk", "ground-truth protocol"),
        ("workers", int, 1, "parallel worker processes, >= 1 (capped at the usable CPUs)")]),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailseries", description="Extreme value analysis for heavy-tailed time series.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, text, positional, options) in _COMMANDS.items():
        cmd = sub.add_parser(command, help=text)
        if positional:
            cmd.add_argument(positional[0], choices=positional[1])
        for name, kind, default, text in options:
            if default is not None and kind is not bool:
                text += " (required)" if default is REQUIRED else f" (default {default})"
            extra = ({"action": "store_true", "default": None} if kind is bool else
                     {"metavar": "{" + ",".join(kind) + "}"} if isinstance(kind, list) else {})
            cmd.add_argument("--" + name, help=text, **extra)
        cmd.add_argument("--config", help="JSON file with flag values")
    return parser


def _merge_config(args) -> None:
    """Set each option from its flag, else its --config value, else its default."""
    options = _COMMANDS[args.command][3]
    config = _load_json_file(args.config) if args.config else {}
    config = {key.replace("_", "-"): value for key, value in config.items()}
    known = sorted(name for name, *_ in options)
    if set(config) - set(known):
        raise ConfigurationError(f"unknown config key(s) {sorted(set(config) - set(known))} "
                                 f"for {args.command}; known: {known}")
    missing = []
    for name, kind, default, _ in options:
        dest = name.replace("-", "_")
        value = next((v for v in (getattr(args, dest), config.get(name)) if v is not None), default)
        if value is REQUIRED:
            missing.append("--" + name)
        elif value is not None:
            try:
                setattr(args, dest, _convert(kind, value))
            except (ValueError, OverflowError):
                what = ("one of " + ", ".join(kind) if isinstance(kind, list) else
                        kind.__name__ if kind in (int, float, str, bool) else kind.__doc__)
                raise ConfigurationError(f"--{name} must be {what}, got {value!r}") from None
    if missing:
        raise ConfigurationError(
            f"missing required option(s) for {args.command}: " + ", ".join(missing))
    if args.command == "extremal" and args.quantity == "joint" and args.x is None:
        raise ConfigurationError("joint queries need --x, e.g. --x 1,1")


def parse_and_dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _merge_config(args)
        return _COMMANDS[args.command][0](args)
    except (ConfigurationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, SimulationError, NoRootError, TailSeriesError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(parse_and_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
