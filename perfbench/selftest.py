"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. A tiny-size pass of all four workloads: one traced and one untraced round
   each, every check passing, every per-layer metric reported, the per-round
   counts of two traced rounds equal, and (study-nonlinear) the same bytes
   from workers=1 and workers=2.
2. One perturbed input per check, which that check must reject.

Prints one PASS/FAIL line per item; the exit code is the number of failures.
"""

from __future__ import annotations

import dataclasses
import json
import struct
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import reference as ref  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 1
failures = 0


def report(name: str, ok: bool, detail: str = ""):
    global failures
    failures += not ok
    print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail else ''}", flush=True)


def tiny_pass(name: str):
    wl = workloads.make(name, SEED, "tiny")
    tracer = tracing.Tracer()
    results = []
    for group in (0, 1):
        tracer.group = group
        with tracer.active():
            results.append(wl.run_round(workers=1))
    untraced = wl.run_round()
    outputs = [wl.output_bytes(r) for r in (*results, untraced)]
    problems = checks.identical("traced and untraced rounds", outputs)
    problems += checks.identical("per-round counts", [
        json.dumps(tracer.round_counts(g), sort_keys=True) for g in (0, 1)])
    problems += wl.check(untraced)
    metrics = tracer.layer_metrics([0, 1])
    missing = set(tracing.LAYER_METRICS) - set(metrics)
    if missing:
        problems.append(f"per-layer metrics missing: {sorted(missing)}")
    report(f"tiny {name}", not problems, "; ".join(problems[:3]))
    return wl, untraced


def must_fail(name: str, found: list[str]):
    report(f"perturbed {name} is rejected", bool(found),
           found[0] if found else "the check passed")


def main() -> int:
    linear, lin_res = tiny_pass("study-linear")
    nonlinear, nl_res = tiny_pass("study-nonlinear")
    report("study-nonlinear workers=1 vs workers=2 bytes",
           not checks.identical("", [nonlinear.output_bytes(nl_res),
                                     nonlinear.output_bytes(nonlinear.run_round(workers=2))]))
    power, pow_res = tiny_pass("power")
    walks, ext_res = tiny_pass("extremal-all")

    # study checks, on the tiny study-linear output
    spec = linear.specs["unshifted"]
    s = linear.with_estimates("unshifted", lin_res["unshifted"]["summary"])
    base = ref.stream_base(spec.master_seed, (0,))
    draws = ref.uniforms(base, 16)
    bits = struct.unpack("<Q", struct.pack("<d", draws[3]))[0] ^ 1
    flipped = draws[:3] + [struct.unpack("<d", struct.pack("<Q", bits))[0]] + draws[4:]
    must_fail("SplitMix64 draws", checks.same_bits("draws", flipped, draws))
    must_fail("experiment seed", checks.same_seed("seed", spec.master_seed + 1,
                                                  ref.stream_base(SEED, (0,))))
    x = workloads.simulate.simulate_series(spec.model, spec.n,
                                           workloads.RngState(spec.master_seed).substream(0))
    x_ref = ref.linear_ar1([ref.pareto_quantile(False, 0.5, 0.5, u)
                            for u in ref.uniforms(base, spec.model.burnin + spec.n)],
                           spec.model.phi1)[spec.model.burnin:]
    report("reference series matches", not checks.close_values("series", x, x_ref, 1.0))
    must_fail("series value off by 1e-8", checks.close_values(
        "series", x, x_ref[:7] + [x_ref[7] * (1 + 1e-8)] + x_ref[8:], 1.0))
    direct = ref.direct_curve(x_ref, list(spec.k_grid), spec.t)
    report("reference direct curve matches", not checks.close_values(
        "direct", s.estimates[0, 0], direct))
    must_fail("direct estimate off by 1e-8", checks.close_values(
        "direct", s.estimates[0, 0], [direct[0] * (1 + 1e-8)] + direct[1:]))
    must_fail("estimate NaN where the reference has a value", checks.close_values(
        "model", s.estimates[0, 1], [float("nan")] + s.estimates[0, 1, 1:].tolist()))
    rmse = s.rmse.tolist()
    rmse[0][0] *= 1 + 1e-6
    must_fail("rmse off the identity", checks.summary_identity(
        "summary", rmse, s.bias.tolist(), s.stderr.tolist(), s.missing.tolist(),
        s.estimates.tolist()))
    missing = s.missing.tolist()
    missing[1][-1] += 1
    must_fail("missing count off the NaN count", checks.summary_identity(
        "summary", s.rmse.tolist(), s.bias.tolist(), s.stderr.tolist(), missing,
        s.estimates.tolist()))
    text = lin_res["unshifted"]["csv"]
    row = text.splitlines()[5].split(",")
    row[2] = repr(float(row[2]) * (1 + 1e-12))
    bad_csv = "\n".join(text.splitlines()[:5] + [",".join(row)] + text.splitlines()[6:]) + "\n"
    must_fail("CSV cell changed in the last digits", checks.csv_round_trip(
        "csv", bad_csv, list(s.estimators), list(s.k_grid),
        {"rmse": s.rmse, "l1": s.l1, "bias": s.bias, "stderr": s.stderr,
         "missing": s.missing}))
    must_fail("summary.json field changed", checks.json_round_trip(
        "json", lin_res["unshifted"]["json"], {"true_value": s.true_value + 1e-9}))
    summaries = {lab: lin_res[lab]["summary"] for lab in workloads.LAWS}
    wrong_truth = dict(summaries, unshifted=dataclasses.replace(
        s, true_value=workloads.PAPER_TRUTH["unshifted"] * 1.05, true_half_width=0.0))
    must_fail("truth 5% off the paper", linear.check_properties(wrong_truth))
    swapped = dict(summaries, unshifted=dataclasses.replace(s, argmin_rmse={
        "direct": s.argmin_rmse["model-based"], "model-based": s.argmin_rmse["direct"]}))
    must_fail("direct beating model-based on the linear model",
              linear.check_properties(swapped))
    sn = nl_res["shifted"]["summary"]
    nl_summaries = {lab: nl_res[lab]["summary"] for lab in workloads.LAWS}
    must_fail("model-based beating direct on the nonlinear model",
              nonlinear.check_properties(dict(nl_summaries, shifted=dataclasses.replace(
                  sn, argmin_rmse={"direct": sn.argmin_rmse["model-based"],
                                   "model-based": sn.argmin_rmse["direct"]}))))
    must_fail("negative model-based bias", nonlinear.check_properties(
        dict(nl_summaries, shifted=dataclasses.replace(sn, bias=-sn.bias))))

    # power and extremal checks
    size = pow_res["size"]
    must_fail("test size 0.5", power.check_properties(
        dataclasses.replace(size, turning_point=0.5)))
    must_fail("power.json field changed", checks.json_round_trip(
        "power.json", pow_res["json"].replace("\"replicates\": ", "\"replicates\": 1", 1),
        {"nonlinear_power": workloads.to_plain(pow_res["power"].to_dict()),
         "linear_size": workloads.to_plain(size.to_dict())}))
    theta, se = ext_res["theta"]
    cluster = ext_res["cluster"]
    for name, bad in (
            ("theta 10 se off 1/6", dict(ext_res, theta=(1 / 6 + 10 * se, se))),
            ("joint all 10 se off 2/3", dict(ext_res, joint=dict(
                ext_res["joint"], all=(2 / 3 + 10 * ext_res["joint"]["all"][1] + 1e-9,
                                       ext_res["joint"]["all"][1])))),
            ("joint some 10 se off 4/3", dict(ext_res, joint=dict(
                ext_res["joint"], some=(4 / 3 - 10 * ext_res["joint"]["some"][1] - 1e-9,
                                        ext_res["joint"]["some"][1])))),
            ("Hill avar 1 off 17", dict(ext_res, avar=dataclasses.replace(
                ext_res["avar"], variance=18.0, stderr=0.01, tail_bound=0.0))),
            ("cluster mass above 1", dict(ext_res, cluster=dataclasses.replace(
                cluster, horizon_remainder=cluster.horizon_remainder + 0.05)))):
        must_fail(name, walks.check_properties(bad))
    must_fail("cluster mass far below 1", checks.cluster_mass("cluster", 0.9, 0.01, 0.001))
    must_fail("kappa 1e-9 off 1", checks.near("kappa", 1.0 + 1e-9, 1.0, 1e-10))
    row = ext_res["rows"][0]
    u = ref.uniforms(ref.stream_base(SEED, (0,)), walks.horizon)
    must_fail("walk value off by 1e-8", checks.close_values(
        "walk", [row[0] * (1 + 1e-8)] + row[1:],
        ref.walk(u, walks.A_UP, walks.A_DOWN, walks.P_UP, walks.kappa)))
    must_fail("one output byte changed", checks.identical(
        "outputs", [b"abc", b"abd"]))
    for wl in (linear, nonlinear, power, walks):
        workloads.close(wl)
    print(f"{failures} failure(s)")
    return failures


if __name__ == "__main__":
    sys.exit(main())
