"""The benchmark's own subset-lattice arithmetic, independent of axiometer.

Inputs are generated and expected outputs are computed with these functions,
so that a defect in the program's transforms cannot hide in its own checks.
Masks follow the program's encoding: bit i of a mask is axiom ``labels[i]``,
and a subset key joins the member labels in bit order with ``+``.
"""

from __future__ import annotations

import numpy as np

TOL = 1e-9


def zeta_superset(values: np.ndarray) -> np.ndarray:
    """x[S] = sum of values[T] over supersets T of S."""
    x = np.array(values, dtype=np.float64)
    for b in range(x.shape[0].bit_length() - 1):
        v = x.reshape(-1, 2, 1 << b)
        v[:, 0, :] += v[:, 1, :]
    return x


def moebius_superset(values: np.ndarray) -> np.ndarray:
    """Inverse of :func:`zeta_superset`."""
    x = np.array(values, dtype=np.float64)
    for b in range(x.shape[0].bit_length() - 1):
        v = x.reshape(-1, 2, 1 << b)
        v[:, 0, :] -= v[:, 1, :]
    return x


def popcounts(j: int) -> np.ndarray:
    masks = np.arange(1 << j)
    return sum((masks >> b) & 1 for b in range(j))


def subset_keys(labels) -> list[str]:
    """Key of every mask 0..2**J - 1 (mask 0 gets the empty string)."""
    keys = [""]
    for b, label in enumerate(labels):
        keys += [label if not k else k + "+" + label for k in keys]
    return keys


def key_index(labels) -> dict[str, int]:
    return {k: m for m, k in enumerate(subset_keys(labels)) if m}


def dirichlet_collection(rng: np.random.Generator, j: int) -> np.ndarray:
    """Feasible p: Dirichlet weights over the 2**J worlds, then subset sums."""
    p = zeta_superset(rng.dirichlet(np.ones(1 << j)))
    np.clip(p, 0.0, 1.0, out=p)
    p[0] = 1.0
    return p


def break_collection(p: np.ndarray) -> np.ndarray:
    """Known-infeasible copy of p: raise p[{a0, a1}] past what the exact
    weights of {a0} and {a1} allow, so both contributions turn negative."""
    alpha = moebius_superset(p)
    bad = p.copy()
    bad[0b11] += max(alpha[0b01], alpha[0b10]) + 0.02
    return bad


def convex_cardinality(rng: np.random.Generator, j: int) -> np.ndarray:
    """u[S] = g[|S|] for a strictly convex g: monotone and superadditive."""
    g = np.concatenate([[0.0], np.cumsum(np.sort(rng.uniform(0.5, 1.5, j)))])
    return g[popcounts(j)]


def strict_superset_max(p: np.ndarray) -> np.ndarray:
    best = p.copy()
    j = p.shape[0].bit_length() - 1
    for b in range(j):
        v = best.reshape(-1, 2, 1 << b)
        np.maximum(v[:, 0, :], v[:, 1, :], out=v[:, 0, :])
    out = np.full(p.shape[0], -np.inf)
    for b in range(j):
        o = out.reshape(-1, 2, 1 << b)[:, 0, :]
        np.maximum(o, best.reshape(-1, 2, 1 << b)[:, 1, :], out=o)
    out[-1] = 0.0
    return out


def measure_weights(p: np.ndarray, measure: str) -> np.ndarray:
    if measure == "moebius":
        w = moebius_superset(p)
    elif measure == "weighted_sum":
        w = p.copy()
    else:
        w = p - strict_superset_max(p)
    w[0] = 0.0
    return w


def perf_value(u: np.ndarray, p: np.ndarray, measure: str) -> float:
    return float(np.dot(u, measure_weights(p, measure)))


def shapley(p: np.ndarray) -> np.ndarray:
    """Each exact-satisfaction weight split equally among the axioms it misses."""
    j = p.shape[0].bit_length() - 1
    missing = j - popcounts(j)
    share = np.where(missing > 0, moebius_superset(p) / np.maximum(missing, 1), 0.0)
    return np.array(
        [share.reshape(-1, 2, 1 << b)[:, 0, :].sum() for b in range(j)]
    )


def banzhaf(p: np.ndarray) -> np.ndarray:
    j = p.shape[0].bit_length() - 1
    return np.array(
        [
            (lambda v: (v[:, 0, :] - v[:, 1, :]).sum())(p.reshape(-1, 2, 1 << b))
            for b in range(j)
        ]
    ) / 2.0 ** (j - 1)


def negative_contributions(p: np.ndarray, tol: float = TOL) -> list[list]:
    alpha = moebius_superset(p)
    return [[int(m), float(alpha[m])] for m in np.nonzero(alpha < -tol)[0]]


def frechet_violations(p: np.ndarray, tol: float = TOL) -> list[list]:
    """[mask, kind, bit, slack] for every violated pairwise bound."""
    out = []
    j = p.shape[0].bit_length() - 1
    masks = np.arange(p.shape[0])
    for b in range(j):
        v = p.reshape(-1, 2, 1 << b)
        with_b = masks.reshape(-1, 2, 1 << b)[:, 1, :].ravel()
        mono = (v[:, 1, :] - v[:, 0, :]).ravel()
        low = ((v[:, 0, :] - (1.0 - p[1 << b])) - v[:, 1, :]).ravel()
        for kind, slack in (("monotonicity", mono), ("lower_bound", low)):
            out += [[int(with_b[i]), kind, b, float(slack[i])] for i in np.nonzero(slack > tol)[0]]
    return sorted(out)


def verdict(vf, vg, criterion: str, alpha: float = 0.5, tol: float = TOL):
    """The comparison rules as documented in axiometer.robustness."""
    vf, vg = np.asarray(vf), np.asarray(vg)
    if criterion == "alpha_maxmin":
        sf = alpha * vf.max() + (1 - alpha) * vf.min()
        sg = alpha * vg.max() + (1 - alpha) * vg.min()
        if abs(sf - sg) <= tol:
            return "equivalent", sf, sg
        return ("better" if sf > sg else "worse"), sf, sg
    if criterion == "pointwise":
        diffs = vf - vg
    else:  # max_and_min
        diffs = np.array([vf.max() - vg.max(), vf.min() - vg.min()])
    if np.all(np.abs(diffs) <= tol):
        return "equivalent", None, None
    if np.all(diffs >= -tol):
        return "better", None, None
    if np.all(diffs <= tol):
        return "worse", None, None
    return "incomparable", None, None
