import math

import numpy as np
import pytest

import locobf.domain as domain_mod
from locobf import (
    InfeasibleParamsError,
    LocationDomain,
    PrivacyParams,
    QkConfig,
    assign_personal_eps,
    assign_round,
    eps_weight,
    qk_partition,
    satisfies_error_bound,
    seed_centers,
    synth_domain,
    weighted_avg_diameter,
)
from reference_impls import reference_assign_round, reference_feasible, reference_seed_centers


def test_config_validation():
    QkConfig()
    with pytest.raises(ValueError):
        QkConfig(max_samp=0)
    with pytest.raises(ValueError):
        QkConfig(max_iter=0)
    with pytest.raises(ValueError):
        QkConfig(seed=-1)


def test_eps_weight():
    lam = 0.5
    assert eps_weight(1.0, 1.0, lam) == pytest.approx(0.5)
    # a mismatch above the cluster budget costs less than the same
    # mismatch below it, in absolute terms
    assert eps_weight(1.5, 1.0, lam) == pytest.approx(1.5 - 1.0 / 1.5)
    assert eps_weight(0.5, 1.0, lam) == pytest.approx(1.0)
    assert eps_weight(0.5, 1.0, lam) == eps_weight(1.0, 0.5, lam)
    assert eps_weight(100.0, 1.0, lam) == pytest.approx(1.5, abs=0.02)
    with pytest.raises(ValueError):
        eps_weight(0.0, 1.0, lam)
    budgets = np.array([0.5, 1.0, 1.5, 100.0])
    weights = eps_weight(budgets, 1.0, lam)
    assert weights.tolist() == [eps_weight(float(b), 1.0, lam) for b in budgets]
    with pytest.raises(ValueError):
        eps_weight(np.array([1.0, 0.0]), 1.0, lam)


def test_seed_centers_extremes():
    dom = synth_domain(10, seed=0)
    rng = np.random.default_rng(1)
    one = seed_centers(dom, 1, rng)
    assert one.shape == (1, 2)
    assert any(np.allclose(one[0], p) for p in dom.positions)
    rng = np.random.default_rng(2)
    full = seed_centers(dom, 10, rng)
    assert {tuple(c) for c in full.tolist()} == {tuple(p) for p in dom.positions.tolist()}
    with pytest.raises(ValueError):
        seed_centers(dom, 11, rng)


def test_seed_centers_spread():
    """With two tight groups far apart the second center lands opposite."""
    pts = [(0.0, 0.0), (0.1, 0.0), (0.0, 0.1), (0.05, 0.05), (0.1, 0.1), (0.02, 0.08)]
    pts += [(10.0 + x, y) for x, y in pts]
    dom = LocationDomain(pts, [1.0 / len(pts)] * len(pts))
    opposite = 0
    for trial in range(1000):
        centers = seed_centers(dom, 2, np.random.default_rng([7, trial]))
        sides = {centers[0][0] > 5.0, centers[1][0] > 5.0}
        opposite += len(sides) == 2
    assert opposite >= 900


def test_assign_round_single_cluster(line6):
    members, complete = assign_round(
        line6, np.array([[2.5, 0.0]]), PrivacyParams(0.1, 0.4)
    )
    assert complete
    assert sorted(members[0]) == [0, 1, 2, 3, 4, 5]


def test_assign_round_pairs_on_the_line(line6):
    centers = np.array([[0.5, 0.0], [2.5, 0.0], [4.5, 0.0]])
    members, complete = assign_round(line6, centers, PrivacyParams(0.1, 0.4))
    assert complete
    assert [sorted(m) for m in members] == [[0, 1], [2, 3], [4, 5]]


def test_assign_round_unplaceable_leftover():
    """A heavy-prior point at every cluster's sweet spot sinks the round.

    The two flanking pairs close at floor 1.0, and adding the midpoint
    drops either pair's floor to ~0.35, below the 0.95 threshold.
    """
    dom = LocationDomain(
        [(0.0, 0.0), (2.0, 0.0), (0.0, 6.0), (2.0, 6.0), (1.0, 3.0)],
        [0.05, 0.05, 0.05, 0.05, 0.80],
    )
    params = PrivacyParams(0.1, 0.95 / math.exp(0.1))
    centers = np.array([[1.0, 0.0], [1.0, 6.0]])
    members, complete = assign_round(dom, centers, params)
    assert not complete
    assert 4 not in members[0] + members[1]


def test_assign_round_weight_flips_the_join():
    dom = LocationDomain(
        [(0.0, 0.0), (3.0, 0.0), (1.8, 0.0)], [1 / 3] * 3, personal_eps=[1.0, 5.0, 1.0]
    )
    params = PrivacyParams(1.0, 10.0)  # floor unreachable: nothing closes
    centers = np.array([[0.0, 0.0], [3.0, 0.0]])
    plain, _ = assign_round(dom, centers, params, personalized=True, weighted=False)
    weighted, _ = assign_round(dom, centers, params, personalized=True, weighted=True)
    # id 2 sits nearer the right center but shares a budget with the left
    assert 2 in plain[1]
    assert 2 in weighted[0]


def test_qk_partition_line(line6):
    part = qk_partition(line6, PrivacyParams(0.1, 0.4), QkConfig(seed=0))
    assert part.k == 3
    assert sorted(p.members for p in part.plss) == [(0, 1), (2, 3), (4, 5)]
    assert weighted_avg_diameter(line6, part.plss) == pytest.approx(1.0)
    assert part.provenance.startswith("qk(")


def test_qk_partition_whole_domain_fallback():
    dom = LocationDomain([(float(i), 0.0) for i in range(5)], [0.2] * 5)
    eps = 0.5
    em = 1.1 / math.exp(eps)  # only the full domain clears this
    part = qk_partition(dom, PrivacyParams(eps, em), QkConfig(seed=0))
    assert part.k == 1
    assert part.plss[0].members == tuple(range(5))


def test_qk_partition_deterministic():
    dom = synth_domain(30, seed=8)
    params = PrivacyParams(1.0, 0.1)
    a = qk_partition(dom, params, QkConfig(max_samp=3, seed=5))
    b = qk_partition(dom, params, QkConfig(max_samp=3, seed=5))
    assert a.plss == b.plss
    assert a.provenance == b.provenance


def test_qk_partition_validates_inputs(line6):
    with pytest.raises(InfeasibleParamsError):
        qk_partition(line6, PrivacyParams(1.0, 10.0))
    with pytest.raises(ValueError, match="budget"):
        qk_partition(line6, PrivacyParams(1.0, 0.1), personalized=True)
    tiny = LocationDomain([(0.0, 0.0)], [1.0])
    with pytest.raises(ValueError):
        qk_partition(tiny, PrivacyParams(1.0, 0.0))


def test_budget_weight_needs_personalized(line6):
    params = PrivacyParams(0.1, 0.4)
    with pytest.raises(ValueError, match="personalized=True"):
        qk_partition(line6, params, personalized=False, weighted=True)
    with pytest.raises(ValueError, match="personalized=True"):
        assign_round(line6, np.array([[0.0, 0.0]]), params, weighted=True)


def test_qk_personalized_budgets():
    dom = assign_personal_eps(synth_domain(30, seed=8), 0.5, 1.5, seed=2)
    part = qk_partition(
        dom, PrivacyParams(1.0, 0.1), QkConfig(max_samp=3, seed=5), personalized=True
    )
    part.validate(dom)
    for pls in part.plss:
        assert pls.eps_region == pytest.approx(
            float(dom.personal_eps[list(pls.members)].min())
        )
    assert "personalized" in part.provenance


_MODES = {
    "uniform": (False, False),
    "personalized-weighted": (True, True),
    "personalized-unweighted": (True, False),
}


@pytest.mark.parametrize("mode", sorted(_MODES))
def test_assign_round_matches_reference(mode):
    """Same members in the same join order, and feasibility as recomputed."""
    personalized, weighted = _MODES[mode]
    for s in range(24):
        rng = np.random.default_rng([90, s])
        dom = synth_domain(int(rng.integers(10, 41)), seed=7000 + s)
        if personalized:
            dom = assign_personal_eps(dom, 0.5, 1.5, seed=s)
        params = PrivacyParams(float(rng.choice([0.5, 1.0, 2.0])),
                               float(rng.choice([0.05, 0.1, 0.2])))
        for _ in range(3):
            k = int(rng.integers(1, dom.n // 2 + 1))
            if rng.random() < 0.5:
                centers = seed_centers(dom, k, rng)
            else:
                centers = rng.uniform(0.0, 16.0, size=(k, 2))
            got, feasible = assign_round(dom, centers, params, personalized, weighted)
            want, complete = reference_assign_round(dom, centers, params, personalized, weighted)
            assert got == want
            assert feasible == (complete and reference_feasible(dom, want, params, personalized))


def test_seed_centers_matches_reference():
    for s in range(10):
        dom = synth_domain(30, seed=7100 + s)
        for k in (1, 2, 7, 30):
            got = seed_centers(dom, k, np.random.default_rng([91, s, k]))
            want = reference_seed_centers(dom, k, np.random.default_rng([91, s, k]))
            assert np.array_equal(got, want)


def test_assign_round_decides_ties_exactly(line6, line6_tie, monkeypatch):
    """A floor equal to exp(eps) * em is left to the exact test, and passes."""
    eps, em = line6_tie
    calls = []

    def counting(*args):
        calls.append(args)
        return satisfies_error_bound(*args)

    monkeypatch.setattr(domain_mod, "satisfies_error_bound", counting)
    params = PrivacyParams(eps, em)
    centers = np.array([[0.5, 0.0], [2.5, 0.0], [4.5, 0.0]])
    members, feasible = assign_round(line6, centers, params)
    assert calls
    assert feasible
    assert members == reference_assign_round(line6, centers, params)[0]
    assert [sorted(m) for m in members] == [[0, 1], [2, 3], [4, 5]]


def test_assign_round_open_cluster_is_infeasible():
    """Every location placed while a cluster stays open: not a partition."""
    dom = LocationDomain([(x, 0.0) for x in (0.0, 1.0, 10.0, 11.0, 12.0)], [0.2] * 5)
    params = PrivacyParams(1.0, 0.6 / math.exp(1.0))  # pairs reach 0.5, the triple 2/3
    centers = np.array([[0.5, 0.0], [11.0, 0.0]])
    members, feasible = assign_round(dom, centers, params)
    want, complete = reference_assign_round(dom, centers, params)
    assert members == want == [[0, 1], [3, 2, 4]]
    assert complete
    assert not feasible
