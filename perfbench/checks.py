"""Output checks that share no arithmetic with the package.

Distances, error floors, quality loss and posteriors are recomputed here
from positions, priors and the emitted probabilities. Each function
returns a list of problems (empty when the output passes).
"""

import math

import numpy as np

FLOOR_RTOL = 1e-9  # the program's admission test is exact; recomputed distances may differ by an ulp


def distance_matrix(a, b=None, chunk=512):
    """Euclidean distances between the rows of a and b, built in row chunks."""
    b = a if b is None else b
    out = np.empty((len(a), len(b)))
    for lo in range(0, len(a), chunk):
        dx = a[lo:lo + chunk, 0, None] - b[None, :, 0]
        dy = a[lo:lo + chunk, 1, None] - b[None, :, 1]
        out[lo:lo + chunk] = np.sqrt(dx * dx + dy * dy)
    return out


def whole_floor(dist, priors):
    """Smallest prior-weighted mean distance from any location to all of them."""
    return float((dist @ priors).min() / priors.sum())


def set_floor(dist, priors, members):
    """Error floor of one set: best guess anywhere in the domain."""
    w = priors[members]
    return float((dist[:, members] @ w).min() / w.sum())


def weighted_diameter(dist, priors, sets):
    """Mass-weighted mean of the sets' largest pairwise distances."""
    mass = np.array([priors[s].sum() for s in sets])
    diam = np.array([dist[np.ix_(s, s)].max() for s in sets])
    return float(mass @ diam / mass.sum())


def quality_loss(dist, priors, rows, chunk=512):
    """Prior-weighted expected distance between true and reported location."""
    total = 0.0
    for lo in range(0, len(rows), chunk):
        total += float(priors[lo:lo + chunk] @ (rows[lo:lo + chunk] * dist[lo:lo + chunk]).sum(axis=1))
    return total


def cond_error(dist, priors, rows, pseudo):
    """Optimal-attack expected distance after observing one pseudo-location."""
    post = priors * rows[:, pseudo]
    post = post / post.sum()
    return float((dist @ post).min())


def check_rows(rows, label):
    problems = []
    if not np.isfinite(rows).all():
        problems.append(f"{label}: non-finite probabilities")
    if (rows < 0).any():
        problems.append(f"{label}: negative probabilities")
    worst = float(np.abs(rows.sum(axis=1) - 1.0).max())
    if not worst <= 1e-9:
        problems.append(f"{label}: a row sums to 1 +- {worst:.3g}")
    return problems


def check_cover(sets, n):
    problems = []
    seen = np.zeros(n, dtype=int)
    for s in sets:
        if len(s) < 2:
            problems.append(f"set {list(s)} has fewer than 2 members")
        seen[s] += 1
    if not (seen == 1).all():
        problems.append(f"{int((seen != 1).sum())} locations are not in exactly one set")
    return problems


def check_floors(dist, priors, sets, eps_regions, em):
    problems = []
    for s, eps in zip(sets, eps_regions):
        need = math.exp(eps) * em
        floor = set_floor(dist, priors, s)
        if floor < need * (1.0 - FLOOR_RTOL):
            problems.append(f"set {list(s)[:4]}... floor {floor:.12g} < exp(eps)*em {need:.12g}")
    return problems


def sets_over_bound(rows, sets, eps_regions):
    """Sets whose rows break the in-set log-ratio bound eps_region.

    A column where one member reports with probability 0 and another
    with a positive probability is an infinite ratio.
    """
    over = []
    for s, eps in zip(sets, eps_regions):
        sub = rows[s]
        zero = sub == 0.0
        mixed = bool((zero.any(axis=0) & ~zero.all(axis=0)).any())
        keep = ~zero.any(axis=0)
        gap = 0.0
        if keep.any():
            logs = np.log(sub[:, keep])
            gap = float((logs.max(axis=0) - logs.min(axis=0)).max())
        if mixed or not gap <= eps + 1e-9:
            over.append(s)
    return over


def tv_bound(row, draws, delta=1e-9):
    """Total-variation radius that N iid draws from row stay within w.p. 1-delta.

    E[TV] <= 1/2 sum_j sqrt(p_j (1 - p_j) / N), and TV moves by at most
    1/N per draw, so McDiarmid adds sqrt(ln(1/delta) / (2N)).
    """
    mean = 0.5 * float(np.sqrt(row * (1.0 - row) / draws).sum())
    return mean + math.sqrt(math.log(1.0 / delta) / (2.0 * draws))
