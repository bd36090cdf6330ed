"""Output checks.  Each raises CheckError on a wrong output and returns None.

The checks compare what an operation produced with expected values that the
benchmark computed itself (:mod:`refmath`) or with committed simulation
references.  Monte Carlo outputs are compared within a combined-standard-error
bound, so a correct estimator passes whatever its random stream.
"""

from __future__ import annotations

import json
import math
import re
from statistics import NormalDist

import numpy as np

#: Distinct Monte Carlo subset comparisons one run may make, at most.  The
#: bound below is Bonferroni-corrected for this many, so that a correct
#: estimator fails a run with probability below 1e-3.
MC_COMPARISONS = 256
MC_FAILURE_PER_RUN = 1e-3
Z_MC = NormalDist().inv_cdf(1.0 - MC_FAILURE_PER_RUN / (2 * MC_COMPARISONS))

EXACT_TOL = 1e-9


class CheckError(Exception):
    """An operation's output is wrong."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckError(message)


def close(actual, expected, what: str, tol: float = 1e-9) -> None:
    a = np.asarray(actual, dtype=np.float64)
    e = np.asarray(expected, dtype=np.float64)
    require(a.shape == e.shape, f"{what}: shape {a.shape} != {e.shape}")
    err = np.abs(a - e) - tol * np.maximum(1.0, np.abs(e))
    if a.size and not np.all(err <= 0):  # also rejects NaN
        i = int(np.argmax(np.where(np.isnan(err), np.inf, err)))
        raise CheckError(f"{what}: {a.ravel()[i]!r} != {e.ravel()[i]!r} at {i}")


def _reject_constant(name):
    raise ValueError(f"non-finite JSON number {name}")


def strict_loads(text: str):
    """json.loads that rejects NaN and Infinity."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        raise CheckError(f"output is not strict JSON: {exc}") from None


def subset_array(mapping, index: dict, what: str) -> np.ndarray:
    """Dense array from a {subset key: value} map covering every non-empty subset."""
    require(isinstance(mapping, dict), f"{what}: not an object")
    require(len(mapping) == len(index), f"{what}: {len(mapping)} keys, want {len(index)}")
    arr = np.zeros(len(index) + 1)
    try:
        for key, value in mapping.items():
            arr[index[key]] = value
    except KeyError as exc:
        raise CheckError(f"{what}: unknown subset key {exc}") from None
    return arr


def mc_close(p, stderr, n, ref_p, ref_n, what: str, z: float = Z_MC) -> None:
    """Estimate p (n samples) against a reference (ref_n samples, 0 = exact).

    The standard error is pooled from both estimates, with p floored at
    0.5 / n away from 0 and 1 so that a subset the reference never saw still
    gets a non-zero bound.
    """
    p, ref_p = np.asarray(p, dtype=np.float64), np.asarray(ref_p, dtype=np.float64)
    require(np.all(np.isfinite(p)), f"{what}: non-finite estimate")
    pooled = (p * n + ref_p * ref_n) / (n + ref_n) if ref_n else ref_p
    floor = 0.5 / n
    pt = np.clip(pooled, floor, 1.0 - floor)
    se = np.sqrt(pt * (1.0 - pt) * (1.0 / n + (1.0 / ref_n if ref_n else 0.0)))
    excess = np.abs(p - ref_p) - z * se
    if np.any(excess > 0):
        i = int(np.argmax(excess))
        raise CheckError(
            f"{what}: p[{i}] = {p[i]!r} vs reference {ref_p[i]!r}, "
            f"beyond {z:.2f} standard errors ({se[i]:.3g})"
        )
    if stderr is not None:
        close(stderr, np.sqrt(p * (1.0 - p) / n), f"{what} stderr", 1e-12)


_SIX_DECIMALS = re.compile(r"-?\d+\.\d{6}(?!\d)")


def table_numbers(text: str) -> list[float]:
    """Every number a table prints with six decimals, in order."""
    return [float(t) for t in _SIX_DECIMALS.findall(text)]


def table_matches(text: str, expected, what: str, tol: float = 1.5e-6) -> None:
    """The six-decimal numbers of a table equal ``expected`` as multisets."""
    got = sorted(table_numbers(text))
    want = sorted(float(v) for v in expected)
    require(len(got) == len(want), f"{what}: {len(got)} numbers in table, want {len(want)}")
    worst = max((abs(a - b) for a, b in zip(got, want)), default=0.0)
    require(worst <= tol, f"{what}: table number off by {worst:.3g}")


def finite_number(x, what: str) -> float:
    require(
        isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x),
        f"{what}: {x!r} is not a finite number",
    )
    return float(x)
