"""End-to-end guarantee checks, one test per numbered criterion.

The terminal summary lists one PASS/FAIL line per criterion; the
machinery lives in conftest.py. Corpus-wide checks share one set of
prebuilt domains, partitions and matrices, and the experiment tests
freeze their own seeds so every run sees the same instances.
"""

import math
import time

import numpy as np
import pytest

from locobf import (
    LocationDomain,
    PrivacyParams,
    QkConfig,
    ROTATIONS,
    all_rotations,
    assign_personal_eps,
    best_hilbert_partition,
    build_matrix,
    build_matrix_constant,
    compute_metrics,
    conditional_error,
    diameter,
    hilbert_cell,
    hilbert_rank,
    min_mean_distance,
    min_mean_distance_within,
    optimal_attack,
    partition_on_ordering,
    posterior,
    qk_partition,
    quality_loss,
    rotate_cell,
    sample_pseudo,
    synth_domain,
    weighted_avg_diameter,
)
from reference_impls import (
    brute_avg_error,
    brute_cond_err,
    brute_min_mean_distance,
    brute_optimal_attack,
    brute_success_prob,
)


class _Corpus:
    """100 mixed-parameter domains with tree-walk partitions and matrices."""

    def __init__(self):
        t0 = time.perf_counter()
        self.cases = []
        for i in range(100):
            n = 20 + (i % 31)
            params = PrivacyParams(
                (0.5, 1.0, 2.0)[i % 3], (0.05, 0.1, 0.2)[(i // 3) % 3]
            )
            dom = synth_domain(n, seed=4000 + i)
            part = best_hilbert_partition(dom, params)
            self.cases.append((dom, params, part, build_matrix(dom, part)))
        self.build_seconds = time.perf_counter() - t0


@pytest.fixture(scope="module")
def corpus():
    return _Corpus()


@pytest.fixture(scope="module")
def qk_corpus(corpus):
    """Clustering partitions (uniform and per-location budgets) per case."""
    out = []
    for i, (dom, params, _, _) in enumerate(corpus.cases):
        config = QkConfig(max_samp=2, seed=i)
        part = qk_partition(dom, params, config)
        pdom = assign_personal_eps(dom, 0.5, 1.5, seed=i)
        ppart = qk_partition(pdom, params, config, personalized=True)
        out.append((dom, params, part, pdom, ppart))
    return out


@pytest.fixture
def line3():
    return LocationDomain([(float(i), 0.0) for i in range(3)], [1 / 3] * 3)


@pytest.mark.criterion(1, "triangle fixture error floors")
def test_triangle_error_floors(triangle):
    members = (0, 1, 2)
    within = min_mean_distance_within(triangle, members)
    floor = min_mean_distance(triangle, members)
    assert within == pytest.approx(76.67, abs=0.05)
    assert floor < within
    min_mean_distance_within(triangle, members)  # warm
    t0 = time.perf_counter()
    min_mean_distance_within(triangle, members)
    assert time.perf_counter() - t0 < 1e-3


@pytest.mark.criterion(2, "same-set reports are budget-indistinguishable")
def test_same_set_indistinguishability(corpus):
    t0 = time.perf_counter()
    for dom, params, part, mat in corpus.cases:
        logs = np.log(mat.rows)
        for pls in part.plss:
            idx = list(pls.members)
            gap = logs[idx][:, None, :] - logs[idx][None, :, :]
            assert gap.max() <= pls.eps_region + 1e-9
    assert corpus.build_seconds + time.perf_counter() - t0 < 30.0


@pytest.mark.criterion(3, "distance-scaled bound within a set")
def test_geo_distinguishability_bound(corpus):
    for dom, params, part, mat in corpus.cases:
        logs = np.log(mat.rows)
        for pls in part.plss:
            scale = pls.eps_region / (2.0 * pls.diam)
            idx = list(pls.members)
            for ai, a in enumerate(idx):
                for b in idx[ai + 1:]:
                    gap = float(np.abs(logs[a] - logs[b]).max())
                    limit = scale * (dom.distances[a, b] + pls.diam)
                    assert gap <= limit + 1e-9


@pytest.mark.criterion(4, "cross-set and whole-domain report bounds")
def test_cross_set_bounds(corpus):
    for dom, params, part, mat in corpus.cases:
        logs = np.log(mat.rows)
        worst = np.abs(logs[:, None, :] - logs[None, :, :]).max(axis=2)
        dom_diam = diameter(dom, range(dom.n))
        sens = mat.row_sensitivity
        limit = (dom_diam / sens[:, None] + dom_diam / sens[None, :]) * params.eps / 2
        cross = mat.row_pls[:, None] != mat.row_pls[None, :]
        assert (worst[cross] <= limit[cross] + 1e-9).all()
        assert worst.max() <= params.eps * dom_diam / sens.min() + 1e-9


@pytest.mark.criterion(5, "attack error never dips under the floor")
def test_error_floor_holds(corpus, qk_corpus):
    for dom, params, part, mat in corpus.cases:
        assert compute_metrics(dom, mat).cond_err.min() >= params.em
    for dom, params, part, pdom, ppart in qk_corpus:
        mat = build_matrix(dom, part)
        assert compute_metrics(dom, mat).cond_err.min() >= params.em
        pmat = build_matrix(pdom, ppart)
        assert compute_metrics(pdom, pmat).cond_err.min() >= params.em


@pytest.mark.criterion(6, "every produced partition is valid")
def test_partitions_validate(corpus, qk_corpus):
    for dom, params, part, mat in corpus.cases:
        part.validate(dom)
        # every rotation's walk, not only the one best_hilbert_partition keeps
        for ordering in all_rotations(dom):
            partition_on_ordering(dom, ordering, params).validate(dom)
    for dom, params, part, pdom, ppart in qk_corpus:
        part.validate(dom)
        ppart.validate(pdom)


@pytest.mark.criterion(7, "clustering beats the tree walk on average spread")
def test_clustering_beats_tree_walk():
    t0 = time.perf_counter()
    params = PrivacyParams(1.0, 0.1)
    qk_wads, walk_wads = [], []
    for i in range(20):
        dom = synth_domain(50, seed=3000 + i)
        walk = best_hilbert_partition(dom, params)
        clustered = qk_partition(dom, params, QkConfig(max_samp=30, seed=i))
        walk_wads.append(weighted_avg_diameter(walk.plss))
        qk_wads.append(weighted_avg_diameter(clustered.plss))
    assert np.mean(qk_wads) <= np.mean(walk_wads)
    assert time.perf_counter() - t0 < 120.0


@pytest.mark.criterion(8, "uniform-sensitivity baseline costs more utility")
def test_baseline_costs_more(corpus):
    ratios = []
    for dom, params, part, mat in corpus.cases:
        d_max = max(p.diam for p in part.plss)
        base = build_matrix_constant(dom, d_max, params.eps)
        q_part = quality_loss(dom, mat)
        q_base = quality_loss(dom, base)
        assert q_base >= q_part - 1e-12
        ratios.append(q_base / q_part)
    assert np.mean(ratios) > 1.0


def _blob_inputs(n, seed, blobs=5, side=16.0, spread=1.2):
    """Positions and raw priors of a clustered town: blobs of occupied grid cells."""
    rng = np.random.default_rng([seed, 11])
    centers = rng.uniform(2.0, side - 2.0, size=(blobs, 2))
    cells = {}
    while len(cells) < n:
        c = centers[rng.integers(blobs)]
        p = c + rng.normal(0.0, spread, size=2)
        cell = (int(p[0]), int(p[1]))
        if 0 <= cell[0] < side and 0 <= cell[1] < side and cell not in cells:
            cells[cell] = None
    priors = rng.uniform(0.01, 0.03, size=n)
    return [(cx + 0.5, cy + 0.5) for cx, cy in sorted(cells)], priors


def _blob_domain(n, seed):
    return LocationDomain(*_blob_inputs(n, seed))


@pytest.mark.criterion(9, "per-location budgets help, and so does the weight")
def test_personalized_budgets_help():
    em = 0.1
    weighted, unweighted, flat = [], [], []
    for i in range(40):
        dom = _blob_domain(50, i)
        pdom = assign_personal_eps(dom, 0.5, 1.5, seed=i)
        config = QkConfig(max_samp=5, seed=i)
        pw = qk_partition(pdom, PrivacyParams(1.0, em), config, personalized=True)
        pu = qk_partition(pdom, PrivacyParams(1.0, em), config,
                          personalized=True, weighted=False)
        # the conservative alternative: everyone gets the smallest budget
        pf = qk_partition(dom, PrivacyParams(0.5, em), config)
        weighted.append(quality_loss(pdom, build_matrix(pdom, pw)))
        unweighted.append(quality_loss(pdom, build_matrix(pdom, pu)))
        flat.append(quality_loss(dom, build_matrix(dom, pf)))
    assert np.mean(weighted) <= np.mean(flat)
    assert np.mean(weighted) <= np.mean(unweighted)


@pytest.mark.criterion(10, "sampler tracks its row distribution")
def test_sampler_distribution(line3):
    mat = build_matrix_constant(line3, 1.0, 2.0)
    draws = sample_pseudo(mat, 0, np.random.default_rng(2026), size=100_000)
    freq = np.bincount(draws, minlength=3) / draws.size
    tv = 0.5 * float(np.abs(freq - mat.rows[0]).sum())
    assert tv <= 0.01


@pytest.mark.criterion(11, "vectorized metrics match brute force")
def test_matches_brute_force(triangle, two_loc):
    assert min_mean_distance(triangle, (0, 1, 2)) == pytest.approx(
        brute_min_mean_distance(triangle, (0, 1, 2)), rel=1e-12
    )
    dom2, mat2 = two_loc
    for j in range(2):
        assert conditional_error(dom2, mat2, j) == pytest.approx(
            brute_cond_err(dom2, mat2.rows, j), rel=1e-12
        )
        assert optimal_attack(dom2, posterior(dom2, mat2, j)) == \
            brute_optimal_attack(dom2, mat2.rows, j)[0]
    for i in range(50):
        dom = synth_domain(10, seed=5000 + i)
        mat = build_matrix_constant(dom, 2.0, 1.0)
        rng = np.random.default_rng([6000, i])
        members = sorted(rng.choice(10, size=int(rng.integers(2, 6)), replace=False))
        assert min_mean_distance(dom, members) == pytest.approx(
            brute_min_mean_distance(dom, members), rel=1e-12
        )
        marginal = dom.priors @ mat.rows
        report = compute_metrics(dom, mat)
        mix = 0.0
        for j in range(10):
            brute = brute_cond_err(dom, mat.rows, j)
            assert conditional_error(dom, mat, j) == pytest.approx(brute, rel=1e-12)
            assert optimal_attack(dom, posterior(dom, mat, j)) == \
                brute_optimal_attack(dom, mat.rows, j)[0]
            assert report.avg_err[j] == pytest.approx(
                brute_avg_error(dom, mat.rows, j), rel=1e-12
            )
            assert report.success[j] == pytest.approx(
                brute_success_prob(dom, mat.rows, j), rel=1e-12
            )
            mix += marginal[j] * brute
        assert report.exp_err == pytest.approx(mix, rel=1e-12)


@pytest.mark.criterion(12, "space-filling walks stay bijective and adjacent")
def test_walks_bijective_adjacent():
    t0 = time.perf_counter()
    for order in (1, 2, 3, 4):
        side = 1 << order
        for rotation in ROTATIONS:
            seen = set()
            prev = None
            for rank in range(side * side):
                cell = hilbert_cell(rank, order)
                assert hilbert_rank(*cell, order) == rank
                spun = rotate_cell(cell, side, rotation)
                assert spun not in seen
                seen.add(spun)
                if prev is not None:
                    assert abs(spun[0] - prev[0]) + abs(spun[1] - prev[1]) == 1
                prev = spun
            assert seen == {(x, y) for x in range(side) for y in range(side)}
    assert time.perf_counter() - t0 < 1.0
