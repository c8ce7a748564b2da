"""The release path equals its whole-matrix originals and stays within its memory budget.

Distances, both matrix builders and every MetricsReport field are
checked bit for bit against the copies in reference_impls, which hold
every n x n temporary at once. The block sizes (128 rows for the
distances, 256 for the attack table) are crossed by the sizes below.
The tracemalloc peaks are in units of one n x n float64 array.
"""

import tracemalloc

import numpy as np
import pytest

from locobf import (
    LocationDomain,
    ObfuscationMatrix,
    Partition,
    Pls,
    PrivacyParams,
    best_hilbert_partition,
    build_matrix,
    build_matrix_constant,
    compute_metrics,
    synth_domain,
)
from reference_impls import reference_compute_metrics, reference_distances, reference_exp_rows


def _assert_release_matches(dom, eps, em):
    """Check both builders and their metrics; returns the partition used."""
    assert np.array_equal(dom.distances, reference_distances(dom.positions))
    if dom.n >= 4:
        part = best_hilbert_partition(dom, PrivacyParams(eps, em))
    else:  # too small to partition: one set of every location
        part = Partition((Pls.build(dom, dom.ids, eps),), None, "one set")
    groups = [(list(p.members), p.diam, p.eps_region) for p in part.plss]
    d_max = max(p.diam for p in part.plss)
    matrices = [
        (build_matrix(dom, part), reference_exp_rows(dom, groups)),
        (build_matrix_constant(dom, d_max, eps),
         reference_exp_rows(dom, [(slice(None), d_max, eps)])),
    ]
    for matrix, want_rows in matrices:
        assert np.array_equal(matrix.rows, want_rows)
        _assert_metrics_match(dom, matrix)
    return part


def _assert_metrics_match(dom, matrix):
    report = compute_metrics(dom, matrix)
    exp_err, qloss, cond, avg, success = reference_compute_metrics(dom, matrix.rows)
    assert report.exp_err == exp_err
    assert report.qloss == qloss
    for got, want in ((report.cond_err, cond), (report.avg_err, avg),
                      (report.success, success)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("n", [2, 50, 255, 256, 257, 777])
def test_release_path_matches_reference(n):
    side = max(16, int(np.ceil(np.sqrt(2 * n))))
    _assert_release_matches(synth_domain(n, seed=[n, 9], grid_side=side), 1.0, 0.1)


@pytest.mark.parametrize("n", [3, 4, 17, 255, 256, 257, 600])
def test_metrics_match_reference_on_ties(n):
    """Equal posteriors and equal attack costs, so the mode and the attack
    are decided by the lowest-id rule, in and across the 256-row blocks,
    and rows that are the mode of one, two and many columns."""
    rng = np.random.default_rng(n)
    side = max(2, int(np.sqrt(n)) // 2)  # about four locations per grid point
    dom = LocationDomain(rng.integers(0, side, size=(n, 2)), np.ones(n))
    modes = []
    for matrix in [build_matrix_constant(dom, d, 1.0) for d in (0.5, 3.0, 1e3)] + [
            ObfuscationMatrix(np.full((n, n), 1.0 / n))]:
        _assert_metrics_match(dom, matrix)
        post = dom.priors[:, None] * matrix.rows
        modes.append(np.bincount((post / post.sum(axis=0)).argmax(axis=0), minlength=n))
    counts = set(np.concatenate(modes).tolist())
    assert n in counts and (n < 255 or {1, 2, 3} <= counts)


def test_off_grid_domain_matches_reference():
    rng = np.random.default_rng(23)
    dom = LocationDomain(rng.uniform(-40.0, 40.0, size=(300, 2)), rng.uniform(0.01, 0.03, 300))
    _assert_release_matches(dom, 1.0, 0.5)


def test_wide_domain_matches_reference_without_underflow():
    # release-large's wide instance: without the exponent cap, far entries
    # of its matrix underflow to 0.0 or a subnormal
    dom = synth_domain(1500, seed=1, grid_side=1024)
    part = _assert_release_matches(dom, 2.0, 0.05)
    rows = build_matrix(dom, part).rows
    assert rows.min() >= np.finfo(float).tiny
    for pls in part.plss:
        logs = np.log(rows[list(pls.members)])
        assert (logs.max(axis=0) - logs.min(axis=0)).max() <= pls.eps_region


def _traced_peak(fn, *args):
    """fn(*args) and its tracemalloc peak above the memory traced at the call."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return result, peak


def test_release_path_peaks():
    n = 1000
    square = n * n * 8
    dom = synth_domain(n, seed=5, grid_side=40)
    _, peak = _traced_peak(LocationDomain, dom.positions, dom.priors)
    assert peak <= 1.2 * square
    matrix, peak = _traced_peak(build_matrix_constant, dom, 5.0, 1.0)
    assert peak <= 1.1 * square
    _, peak = _traced_peak(compute_metrics, dom, matrix)
    assert peak <= 2.1 * square
