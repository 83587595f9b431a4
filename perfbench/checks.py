"""Output checks. Each returns a list of failure messages (empty when it passes).

The checks take plain values so that the self-test can feed each one a
perturbed input and see it fail. Tolerances on Monte Carlo quantities are
``Z`` standard errors of the run's own estimate, so they tighten as a run
grows; comparisons with the reference computations use ``REL_TOL``.
"""

from __future__ import annotations

import csv
import io
import json
import math

REL_TOL = 1e-9   # reference vs program; not bit-exact because np.power may use SIMD
Z = 5.0          # standard errors allowed on a Monte Carlo property


def _close(a: float, b: float, scale_floor: float = 0.0) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), scale_floor)


def same_bits(what: str, program, reference) -> list[str]:
    """Exact equality of two float sequences (SplitMix64 draws)."""
    program, reference = list(program), list(reference)
    if len(program) != len(reference):
        return [f"{what}: {len(program)} draws vs {len(reference)} in the reference"]
    for i, (a, b) in enumerate(zip(program, reference)):
        if a.hex() != b.hex():
            return [f"{what}: draw {i + 1} is {a.hex()}, reference {b.hex()}"]
    return []


def same_seed(what: str, program: int, reference: int) -> list[str]:
    return [] if program == reference else [f"{what}: {program:#x} vs reference {reference:#x}"]


def close_values(what: str, program, reference, scale_floor: float = 0.0) -> list[str]:
    """Elementwise relative agreement within REL_TOL; NaN must match NaN."""
    program, reference = [float(v) for v in program], [float(v) for v in reference]
    if len(program) != len(reference):
        return [f"{what}: {len(program)} values vs {len(reference)} in the reference"]
    for i, (a, b) in enumerate(zip(program, reference)):
        if not _close(a, b, scale_floor):
            return [f"{what}: element {i} is {a!r}, reference {b!r}"]
    return []


def summary_identity(what: str, rmse, bias, stderr, missing, estimates) -> list[str]:
    """rmse**2 = bias**2 + stderr**2 * (c-1)/c over the c completed replicates,
    and missing = number of NaN estimates, for every (estimator, k) cell.

    ``estimates`` is indexed [replicate][estimator][k]; the others [estimator][k].
    """
    failures = []
    n_rep = len(estimates)
    for e in range(len(rmse)):
        for j in range(len(rmse[e])):
            nans = sum(1 for r in range(n_rep) if math.isnan(estimates[r][e][j]))
            if int(missing[e][j]) != nans:
                failures.append(f"{what}: missing[{e}][{j}] = {int(missing[e][j])}, "
                                f"{nans} NaN estimates")
            c = n_rep - nans
            if c < 2:
                continue
            lhs = float(rmse[e][j]) ** 2
            rhs = float(bias[e][j]) ** 2 + float(stderr[e][j]) ** 2 * (c - 1) / c
            if not _close(lhs, rhs):
                failures.append(f"{what}: rmse^2 {lhs!r} != bias^2 + stderr^2 (c-1)/c "
                                f"{rhs!r} at [{e}][{j}]")
        if failures:
            return failures
    return failures


def csv_round_trip(what: str, text: str, estimators, k_grid, columns: dict) -> list[str]:
    """Rows of errors_vs_k.csv parse back to exactly the summary's arrays.

    ``columns`` maps a CSV column name to its [estimator][k] array.
    """
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != len(estimators) * len(k_grid):
        return [f"{what}: {len(rows)} CSV rows, expected {len(estimators) * len(k_grid)}"]
    for idx, row in enumerate(rows):
        e, j = divmod(idx, len(k_grid))
        if row["estimator"] != estimators[e] or int(row["k"]) != k_grid[j]:
            return [f"{what}: row {idx} is ({row['estimator']}, {row['k']})"]
        for name, arr in columns.items():
            a, b = float(row[name]), float(arr[e][j])
            if not (a == b or (math.isnan(a) and math.isnan(b))):
                return [f"{what}: row {idx} {name} reads {row[name]}, value {b!r}"]
    return []


def json_round_trip(what: str, text: str, expected: dict) -> list[str]:
    """The JSON text parses, and the listed top-level fields equal ``expected``."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"{what}: not JSON ({exc})"]
    for key, value in expected.items():
        if data.get(key) != value:
            return [f"{what}: {key} = {data.get(key)!r}, expected {value!r}"]
    return []


def truth_matches_paper(what: str, value: float, half_width: float, paper: float) -> list[str]:
    """Ground truth within 2% of the paper's value plus the run's half-width."""
    tol = 0.02 * abs(paper) + half_width
    if abs(value - paper) <= tol:
        return []
    return [f"{what}: truth {value:.6g} vs paper {paper} (tolerance {tol:.4g})"]


def first_beats_second(what: str, better: tuple, worse: tuple) -> list[str]:
    """Minimal RMSE of ``better`` (name, value) is below that of ``worse``."""
    if better[1] < worse[1]:
        return []
    return [f"{what}: min RMSE {better[0]} {better[1]:.4g} is not below {worse[0]} {worse[1]:.4g}"]


def positive_bias(what: str, bias: float, stderr: float, completed: int,
                  half_width: float) -> list[str]:
    """Bias above zero by more than Z standard errors of the mean plus the
    truth's own half-width."""
    margin = Z * stderr / math.sqrt(completed) + half_width
    if bias > margin:
        return []
    return [f"{what}: bias {bias:.4g} is not above {margin:.4g}"]


def near(what: str, value: float, target: float, tol: float) -> list[str]:
    if abs(value - target) <= tol:
        return []
    return [f"{what}: {value!r} is not within {tol:.3g} of {target!r}"]


def binomial_rates(what: str, rates, nominal: float, replicates: int) -> list[str]:
    """Each rejection rate within Z binomial standard errors of the nominal size."""
    tol = Z * math.sqrt(nominal * (1.0 - nominal) / replicates)
    for i, rate in enumerate(rates):
        if abs(rate - nominal) > tol:
            return [f"{what}: rate {i} is {rate:.4g}, nominal {nominal} ± {tol:.3g}"]
    return []


def cluster_mass(what: str, theta_sum_plus_remainder: float, theta_kmax: float,
                 theta_kmax_se: float) -> list[str]:
    """sum theta_k + remainder = 1 - theta_{kmax+1}, with 0 <= theta_{kmax+1} <= theta_kmax."""
    deficit = 1.0 - theta_sum_plus_remainder
    if -1e-12 <= deficit <= theta_kmax + Z * theta_kmax_se:
        return []
    return [f"{what}: 1 - (sum theta_k + remainder) = {deficit:.4g} outside "
            f"[0, theta_kmax {theta_kmax:.4g} + {Z} se]"]


def identical(what: str, outputs) -> list[str]:
    """All byte strings equal."""
    outputs = list(outputs)
    if all(o == outputs[0] for o in outputs[1:]):
        return []
    return [f"{what}: outputs differ"]
