import math
import re

import numpy as np
import pytest

import locobf.qkmeans as qkmeans_mod
from locobf import (
    InfeasibleParamsError,
    LocationDomain,
    PrivacyParams,
    QkConfig,
    assign_personal_eps,
    assign_round,
    eps_weight,
    qk_partition,
    seed_centers,
    synth_domain,
    weighted_avg_diameter,
)
from locobf.domain import _margin
from reference_impls import (
    reference_assign_round,
    reference_feasible,
    reference_seed_centers,
    serial_assign_round,
    serial_search_k,
)


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
    assert weighted_avg_diameter(part.plss) == pytest.approx(1.0)
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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("personalized", [False, True])
def test_qk_partition_refuses_an_overflowing_span(personalized):
    # 12 locations up to 1e200 km apart: their hypot distances are finite,
    # but the squared distances the qk fill compares overflow float64
    positions = np.random.default_rng(0).uniform(-1e200, 1e200, size=(12, 2))
    dom = LocationDomain(positions, np.ones(12), personal_eps=np.linspace(0.5, 1.5, 12))
    span = (dom.positions.max(axis=0) - dom.positions.min(axis=0)).max()
    with pytest.raises(ValueError, match=re.escape(f"a span of {span:.6g} km is too wide")):
        qk_partition(dom, PrivacyParams(1.0, 0.1), personalized=personalized)


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


def test_assign_round_decides_ties_exactly(line6, line6_tie, watch_admits):
    """A floor equal to exp(eps) * em is left to the exact floor, which is
    computed once, and passes."""
    eps, em = line6_tie
    calls = watch_admits(qkmeans_mod)
    params = PrivacyParams(eps, em)
    centers = np.array([[0.5, 0.0], [2.5, 0.0], [4.5, 0.0]])
    members, feasible = assign_round(line6, centers, params)
    assert any(undecided for undecided, _ in calls)
    assert all(undecided == floors for undecided, floors in calls)
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


@pytest.mark.parametrize("n, seed, qk_seed", [(28, 4008, 8), (38, 4080, 80)])
def test_refused_leftovers_match_references(n, seed, qk_seed, monkeypatch):
    """Fills in which a nearest cluster refuses a leftover, so that it moves
    on to its next-nearest cluster, equal both references: the members in
    join order and the feasibility."""
    dom = synth_domain(n, seed=seed)
    params = PrivacyParams(2.0, 0.2)
    stacks = []
    real_round, real_admits = qkmeans_mod.assign_round, qkmeans_mod._admits

    def recording(domain, centers, *args):
        stacks.append(centers.copy())
        return real_round(domain, centers, *args)

    monkeypatch.setattr(qkmeans_mod, "assign_round", recording)
    qk_partition(dom, params, QkConfig(max_samp=2, seed=qk_seed))
    monkeypatch.setattr(qkmeans_mod, "assign_round", real_round)
    refused = []

    def counting(domain, members, low_sum, *args):
        got = real_admits(domain, members, low_sum, *args)
        if isinstance(low_sum, np.ndarray):  # the leftover phase's batched joins
            refused.append(not got.all())
        return got

    monkeypatch.setattr(qkmeans_mod, "_admits", counting)
    retried = 0
    for centers in (c for stack in stacks for c in stack):
        refused.clear()
        got = assign_round(dom, centers, params)
        if not any(refused):
            continue
        retried += 1
        assert got == serial_assign_round(dom, centers, params)
        want, complete = reference_assign_round(dom, centers, params)
        assert got[0] == want
        assert got[1] == (complete and reference_feasible(dom, want, params, False))
    assert retried > 0


def _search_cases():
    """(domain, params, config, k, personalized, weighted) on 66 domains."""
    cases = []
    for s in range(60):
        rng = np.random.default_rng([95, s])
        dom = synth_domain(int(rng.integers(12, 41)), seed=9000 + s)
        personalized, weighted = _MODES[sorted(_MODES)[s % 3]]
        if personalized:
            dom = assign_personal_eps(dom, 0.5, 1.5, seed=s)
        params = PrivacyParams(float(rng.choice([0.5, 1.0, 2.0])),
                               float(rng.choice([0.05, 0.1, 0.2])))
        config = QkConfig(max_samp=int(rng.integers(2, 7)), max_iter=(1, 2, 3, 100)[s % 4], seed=s)
        cases.append((dom, params, config, int(rng.integers(2, dom.n // 2 + 1)),
                      personalized, weighted))
    # a 2 x 4 grid of equal priors: every pairing of neighbours has w = 1 exactly
    grid = LocationDomain([(float(x), float(y)) for x in range(4) for y in range(2)], [0.125] * 8)
    for s in range(6):
        cases.append((grid, PrivacyParams(0.1, 0.3), QkConfig(max_samp=8, seed=s), 4, False, False))
    return cases


def test_search_k_matches_serial(monkeypatch):
    """The lockstep search returns the serial search's best family and w and
    makes the same fills, on cut-offs, shared centers and ties in w included."""
    batches = []
    real = qkmeans_mod.assign_round

    def recording(domain, centers, *args):
        got = real(domain, centers, *args)
        batches.append((centers.copy(), got))
        return got

    monkeypatch.setattr(qkmeans_mod, "assign_round", recording)
    seen = dict.fromkeys(("cut", "shared", "tie", "batched"), 0)
    for dom, params, config, k, personalized, weighted in _search_cases():
        batches.clear()
        rounds = []
        got = qkmeans_mod._search_k(qkmeans_mod._Search(dom, config, personalized, weighted),
                                    params, k)
        assert got == serial_search_k(dom, params, config, k, personalized, weighted, rounds)
        fills = {key: fill for _, key, fill in rounds if fill is not None}
        assert {c.tobytes(): (f, ok) for stack, got in batches
                for c, (f, ok) in zip(stack, got)} == fills
        assert len(batches) <= config.max_iter
        seen["batched"] += max(len(stack) for stack, _ in batches) > 1
        paths = {}
        for restart, key, _ in rounds:
            paths.setdefault(restart, []).append(key)
        seen["cut"] += any(len(path) == config.max_iter < 100 for path in paths.values())
        seen["shared"] += any(len({path[t] for path in paths.values() if len(path) > t})
                              < sum(len(path) > t for path in paths.values())
                              for t in range(config.max_iter))
        # distinct families from different restarts at the best w
        best_w = got[1]
        at_best = {(frozenset(map(frozenset, fill[0])), restart) for restart, _, fill in rounds
                   if fill is not None and fill[1] and
                   qkmeans_mod._sets_wad(dom, fill[0]) == best_w}
        seen["tie"] += len({family for family, _ in at_best}) > 1 and \
            len({restart for _, restart in at_best}) > 1
    assert min(seen.values()) > 0, seen


@pytest.mark.parametrize("batch", [None, 1000])
@pytest.mark.parametrize("mode", sorted(_MODES))
def test_assign_round_stack_matches_single_fills(mode, batch, monkeypatch):
    """A stack of fills equals its single fills, also when the leftover
    phase takes the fills a few at a time."""
    if batch is not None:
        monkeypatch.setattr(qkmeans_mod, "_LEFTOVER_FLOATS", batch)
    personalized, weighted = _MODES[mode]
    rng = np.random.default_rng(96)
    for s in range(6):
        dom = synth_domain(int(rng.integers(12, 41)), seed=9100 + s)
        if personalized:
            dom = assign_personal_eps(dom, 0.5, 1.5, seed=s)
        params = PrivacyParams(1.0, float(rng.choice([0.05, 0.1])))
        k = int(rng.integers(1, dom.n // 2 + 1))
        stack = np.array([seed_centers(dom, k, rng) for _ in range(5)])
        got = assign_round(dom, stack, params, personalized, weighted)
        assert got == [serial_assign_round(dom, c, params, personalized, weighted) for c in stack]
        assert assign_round(dom, stack[2], params, personalized, weighted) == got[2]


def test_next_centers_match_mean():
    """Bit for bit the per-cluster positions[f].mean(axis=0), empty clusters
    keeping their centers and a column of -0.0 coordinates included."""
    rng = np.random.default_rng(97)
    xy = rng.uniform(-1e3, 1e3, size=(400, 2)) * rng.choice([1e-6, 1.0, 1e6], size=(400, 1))
    xy[:5, 0] = -0.0  # ids 0-4 form a cluster whose x column is all -0.0
    xy[5:9] = -xy[9:13]  # and ids 5-12 one whose coordinates cancel
    dom = LocationDomain(xy, np.ones(400))
    k = 7
    families = []
    for _ in range(4):
        ids = rng.permutation(np.arange(13, 400)).tolist()
        cuts = np.sort(rng.choice(len(ids), size=k - 4, replace=False)).tolist()
        parts = [ids[a:b] for a, b in zip([0] + cuts, cuts + [len(ids)])]
        families.append([list(rng.permutation(5)), []] + parts[:1]
                        + [rng.permutation(np.arange(5, 13)).tolist()] + parts[1:])
    centers = rng.uniform(-5.0, 5.0, size=(4, k, 2))
    nxt, moved = qkmeans_mod._next_centers(dom, centers, families)
    assert any(len(f) > 300 for family in families for f in family)
    for r, family in enumerate(families):
        want = np.array([dom.positions[f].mean(axis=0) if f else centers[r, j]
                         for j, f in enumerate(family)])
        assert nxt[r].tobytes() == want.tobytes()
        assert moved[r] == float(np.linalg.norm(want - centers[r], axis=1).max())


def test_limits_are_the_last_x_a_comparison_holds_at():
    """_limits gives the largest float x >= 0 with (scale * x) * factor <=
    floor, on zero, subnormal, tiny, huge and infinite floors, at every
    factor a fill record uses and at threshold scales up to e^700."""
    rng = np.random.default_rng(5)
    floors = np.concatenate([[0.0, 5e-324, 2.0 ** -1060, 2.0 ** -1022, 2.0 ** -900, 2.0 ** 900],
                             rng.uniform(0.0, 10.0, 400), np.exp(rng.uniform(-600, 600, 400))])
    scales = [1.0, *(math.exp(e) for e in np.linspace(0.5, 1.5, 11).tolist()), math.exp(700)]
    ones = np.ones(len(floors) + 1)
    for rtol in (_margin(30), _margin(3000)):
        for factor in (1.0, 1.0 + rtol, 1.0 - rtol):
            for scale in scales:
                limit = qkmeans_mod._limits(np.append(floors, math.inf), scale * ones, factor * ones)
                assert limit[-1] == math.inf
                limit = limit[:-1]
                assert (limit >= 0).all()
                assert ((scale * limit) * factor <= floors).all()
                assert (floors < (scale * np.nextafter(limit, math.inf)) * factor).all()


def _ems_crossing(floor, scale, factor):
    """em values around the smallest em whose threshold scale * em * factor
    reaches floor: one ulp below it, it, and one ulp above."""
    def reaches(em):
        return scale * em * factor >= floor

    em = floor / (scale * factor)
    while not reaches(em):
        em = math.nextafter(em, math.inf)
    while em > 0 and reaches(math.nextafter(em, 0.0)):
        em = math.nextafter(em, 0.0)
    return math.nextafter(em, 0.0), em, math.nextafter(em, math.inf)


@pytest.mark.parametrize("personalized", [False, True])
def test_fill_record_agrees_with_its_decisions(personalized, monkeypatch):
    """A kept fill's record agrees with params exactly when every admission
    decision _answers reduced into it comes out the same at params, as
    domain._admits decides it: a certified answer by the margin, an exact
    one by the floor. Thresholds on recorded floors, on their margins and
    one ulp either side of each are included."""
    raw = []
    real = qkmeans_mod._answers

    def keeping(*args):
        records = real(*args)
        raw.append((args, records))
        return records

    monkeypatch.setattr(qkmeans_mod, "_answers", keeping)
    dom = synth_domain(30)
    if personalized:
        dom = assign_personal_eps(dom, 0.5, 1.5, seed=1)
    search = qkmeans_mod._Search(dom, QkConfig(max_samp=3), personalized, None, keep=True)
    search.partition(PrivacyParams(1.0, 0.1))
    # then at thresholds on floors of the first search, which leaves those sets to the exact floor
    (_, floor, scale, certified, _, _, _, rtol), _ = raw[0]
    for t in np.flatnonzero(certified[:40]).tolist()[::8]:
        search.partition(PrivacyParams(1.0, _ems_crossing(floor[t], scale[t], 1.0)[1]))
    records, decisions = [], []  # per fill its record and its raw decisions with a floor
    for (fill, *decided, count, _, _), kept in raw:
        assert len(kept) == count
        records += kept
        for r in range(count):
            decisions.append([d[(fill == r) & ~np.isnan(decided[0])] for d in decided])
    starts = np.cumsum([0] + [len(d[0]) for d in decisions])  # each fill's, then the end
    floor, scale, certified, answer = (np.concatenate(d) for d in zip(*decisions))
    certified, answer = certified != 0, answer != 0
    assert certified.any() and not certified.all()  # certified and exact answers
    # thresholds at and around recorded floors and their margins, exact ones and certified ones
    grid = set()
    for t in [*np.flatnonzero(~certified)[::20][:3], *np.flatnonzero(certified)[::2000][:3]]:
        for eps in ((1.0,) if personalized else (0.5, 2.0)):
            s = scale[t] if personalized else math.exp(eps)
            for factor in (1.0, 1.0 + rtol, 1.0 - rtol):
                grid.update((eps, em) for em in _ems_crossing(floor[t], s, factor))
    verdicts = {True: 0, False: 0}
    for eps, em in sorted(grid):
        threshold = scale * em if personalized else math.exp(eps) * em
        again = np.where(
            certified,
            np.where(answer, floor >= threshold * (1.0 + rtol), floor < threshold * (1.0 - rtol)),
            (floor >= threshold) == answer,
        )
        changed = np.cumsum(np.append(0, ~again))[starts]  # answers changed before each start
        for record, same in zip(records, np.diff(changed) == 0):
            assert search.agree(record, PrivacyParams(eps, em)) == same
            verdicts[bool(same)] += 1
    assert min(verdicts.values()) > 0, verdicts
