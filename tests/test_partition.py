import io
import math
import tracemalloc

import numpy as np
import pytest

import locobf.partition as partition_mod
import locobf.qkmeans as qkmeans_mod
from locobf import (
    InfeasibleParamsError,
    LocationDomain,
    Partition,
    Pls,
    PrivacyParams,
    QkConfig,
    assign_personal_eps,
    best_hilbert_partition,
    build_matrix,
    compute_metrics,
    load_partition,
    min_mean_distance,
    order_domain,
    partition_on_ordering,
    qk_partition,
    require_feasible,
    satisfies_error_bound,
    save_partition,
    synth_domain,
    weighted_avg_diameter,
)
from locobf.domain import _admits


def pair_domain(gap_a, start_b, gap_b, masses=(0.25, 0.25, 0.25, 0.25)):
    return LocationDomain(
        [(0.0, 0.0), (gap_a, 0.0), (start_b, 0.0), (start_b + gap_b, 0.0)], masses
    )


def test_pls_build():
    dom = pair_domain(2.0, 10.0, 4.0)
    pls = Pls.build(dom, [1, 0], 1.0)
    assert pls.members == (0, 1)
    assert pls.diam == pytest.approx(2.0)
    assert pls.mass == pytest.approx(0.5)
    with pytest.raises(ValueError):
        Pls.build(dom, [0], 1.0)
    with pytest.raises(ValueError):
        Pls.build(dom, [0, 1], 0.0)


def test_weighted_avg_diameter():
    dom = pair_domain(2.0, 10.0, 4.0)
    one = (Pls.build(dom, [0, 1], 1.0),)
    assert weighted_avg_diameter(one) == pytest.approx(2.0)
    both = (Pls.build(dom, [0, 1], 1.0), Pls.build(dom, [2, 3], 1.0))
    assert weighted_avg_diameter(both) == pytest.approx(3.0)
    skewed = pair_domain(4.0, 10.0, 2.0, masses=(0.125, 0.125, 0.375, 0.375))
    sets = (Pls.build(skewed, [0, 1], 1.0), Pls.build(skewed, [2, 3], 1.0))
    assert weighted_avg_diameter(sets) == pytest.approx(0.25 * 4 + 0.75 * 2)


def test_partition_validate_catches_corruption():
    dom = pair_domain(2.0, 10.0, 4.0)
    params = PrivacyParams(1.0, 0.0)
    good = Partition(
        (Pls.build(dom, [0, 1], 1.0), Pls.build(dom, [2, 3], 1.0)), params, "test"
    )
    good.validate(dom)

    overlap = Partition(
        (Pls.build(dom, [0, 1], 1.0), Pls.build(dom, [1, 2, 3], 1.0)), params, "test"
    )
    with pytest.raises(ValueError, match="two sets"):
        overlap.validate(dom)

    gap = Partition((Pls.build(dom, [0, 1], 1.0),), params, "test")
    with pytest.raises(ValueError, match="cover"):
        gap.validate(dom)

    tiny = Partition(
        (Pls((0,), 0.0, 0.25, 1.0), Pls.build(dom, [1, 2, 3], 1.0)), params, "test"
    )
    with pytest.raises(ValueError, match="2 members"):
        tiny.validate(dom)

    stale = Partition(
        (Pls((0, 1), 99.0, 0.5, 1.0), Pls.build(dom, [2, 3], 1.0)), params, "test"
    )
    with pytest.raises(ValueError, match="diameter"):
        stale.validate(dom)


def test_partition_validate_bound():
    dom = pair_domain(2.0, 10.0, 4.0)
    sets = (Pls.build(dom, [0, 1], 1.0), Pls.build(dom, [2, 3], 1.0))
    # pair {0,1} has floor 1.0; e^1 * 0.5 = 1.36 is out of reach
    bad = Partition(sets, PrivacyParams(1.0, 0.5), "test")
    with pytest.raises(ValueError, match="floor"):
        bad.validate(dom)


def test_require_feasible_reports_the_floor():
    dom = pair_domain(1.0, 2.0, 1.0)
    require_feasible(dom, 0.5, 0.1)
    floor = min_mean_distance(dom, list(dom.ids))
    with pytest.raises(InfeasibleParamsError) as err:
        require_feasible(dom, 2.0, 5.0)
    msg = str(err.value)
    assert "infeasible parameters" in msg
    assert "2" in msg and "5" in msg
    assert err.value.eps == 2.0
    assert err.value.em == 5.0
    assert err.value.domain_floor == pytest.approx(floor)


def test_curve_walk_pairs_up_the_line(line6):
    ordering = order_domain(line6)
    part = partition_on_ordering(line6, ordering, PrivacyParams(0.1, 0.4))
    assert [p.members for p in part.plss] == [(0, 1), (2, 3), (4, 5)]
    # each adjacent pair clears e^0.1 * 0.4 = 0.4421 with floor 0.5
    part.validate(line6)
    assert part.provenance.startswith("hilbert(")


def test_curve_walk_vacuous_floor(line6):
    part = partition_on_ordering(line6, order_domain(line6), PrivacyParams(1.0, 0.0))
    assert part.k == 3
    assert all(p.size == 2 for p in part.plss)
    part.validate(line6)


def test_curve_walk_decides_ties_exactly(line6, line6_tie, watch_admits):
    """A pair floor equal to exp(eps) * em is left to the exact floor, which
    is computed once, and passes."""
    eps, em = line6_tie
    calls = watch_admits(partition_mod)
    part = partition_on_ordering(line6, order_domain(line6), PrivacyParams(eps, em))
    assert any(undecided for undecided, _ in calls)
    assert all(undecided == floors for undecided, floors in calls)
    assert [p.members for p in part.plss] == [(0, 1), (2, 3), (4, 5)]
    part.validate(line6)


def test_curve_walk_merges_to_single_set():
    """Parameters reachable only by the whole domain collapse the walk."""
    dom = LocationDomain([(float(i), 0.0) for i in range(5)], [0.2] * 5)
    # proper contiguous subsets top out at floor 1.0; the domain reaches 1.2
    eps = 0.5
    em = 1.1 / math.exp(eps)
    part = partition_on_ordering(dom, order_domain(dom), PrivacyParams(eps, em))
    assert part.k == 1
    assert part.plss[0].members == tuple(range(5))
    part.validate(dom)


def test_curve_walk_infeasible():
    dom = pair_domain(1.0, 2.0, 1.0)
    with pytest.raises(InfeasibleParamsError):
        partition_on_ordering(dom, order_domain(dom), PrivacyParams(1.0, 10.0))


def test_best_hilbert_picks_rotation_zero_on_ties(line6):
    part = best_hilbert_partition(line6, PrivacyParams(0.1, 0.4))
    assert "rotation=0" in part.provenance


def test_best_hilbert_never_worse_than_any_rotation():
    """The kept walk is no worse than any rotation, and every rotation's walk is valid.

    The domains add the criterion 7 seeds and the walk domains of
    test_mechanism.py and test_adversary.py, because best_hilbert_partition
    validates only the walk it keeps.
    """
    from locobf import all_rotations

    cases = [(50, 21, 1.0, 0.1)] + [(50, 3000 + i, 1.0, 0.1) for i in range(20)]
    cases += [(30, 6, 1.0, 0.1), (40, 3, 1.0, 0.1), (25, 9, 0.5, 0.05)]
    for n, seed, eps, em in cases:
        dom = synth_domain(n, seed=seed)
        params = PrivacyParams(eps, em)
        best = best_hilbert_partition(dom, params)
        best.validate(dom)
        for ordering in all_rotations(dom):
            single = partition_on_ordering(dom, ordering, params)
            single.validate(dom)
            assert (
                weighted_avg_diameter(best.plss)
                <= weighted_avg_diameter(single.plss) + 1e-12
            )


def test_best_hilbert_propagates_infeasibility():
    dom = pair_domain(1.0, 2.0, 1.0)
    with pytest.raises(InfeasibleParamsError):
        best_hilbert_partition(dom, PrivacyParams(1.0, 10.0))


def test_best_hilbert_checks_the_whole_domain_once(monkeypatch):
    calls = []
    real = partition_mod.require_feasible
    monkeypatch.setattr(partition_mod, "require_feasible",
                        lambda *args: calls.append(args) or real(*args))
    dom = synth_domain(40, seed=3)
    best_hilbert_partition(dom, PrivacyParams(1.0, 0.1))
    assert len(calls) == 1
    # a walk on its own still checks
    with pytest.raises(InfeasibleParamsError):
        partition_on_ordering(dom, order_domain(dom), PrivacyParams(1.0, 1e3))
    assert len(calls) == 2


def test_pls_build_reports_unknown_ids():
    dom = synth_domain(6, seed=1)
    for members, bad in (([0, 6], 6), ([-1, 2], -1), ([-2, 9], -2)):
        with pytest.raises(ValueError, match=f"unknown location id {bad}$"):
            Pls.build(dom, members, 1.0)


def test_curve_walk_peaks_below_one_distance_table():
    """The walk's whole-domain floor tests read the distance table in place,
    so at n = 1000 it peaks below 0.2 n x n float64 arrays (a copy is one)."""
    n = 1000
    dom = synth_domain(n, seed=[n, 0], grid_side=45)
    tracemalloc.start()
    try:
        best_hilbert_partition(dom, PrivacyParams(1.0, 0.1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.2 * 8 * n * n


def test_partitioners_admit_exactly(monkeypatch):
    """Every running-floor decision of both partitioners equals the exact test,
    the qk leftover phase's batched decisions included."""
    agree = []
    batched = []

    def checked(domain, members, low_sum, mass, eps_region, em, record=None):
        got = _admits(domain, members, low_sum, mass, eps_region, em, record)
        if isinstance(low_sum, np.ndarray):
            for t, (verdict, eps) in enumerate(zip(got.tolist(), eps_region.tolist())):
                batched.append(verdict == satisfies_error_bound(domain, members(t), eps, em))
        else:
            agree.append(got == satisfies_error_bound(domain, members, eps_region, em))
        return got

    for mod in (partition_mod, qkmeans_mod):
        monkeypatch.setattr(mod, "_admits", checked)
    runs = {
        "walk": lambda dom, params, config: best_hilbert_partition(dom, params),
        "qk": lambda dom, params, config: qk_partition(dom, params, config),
        "qk-personalized": lambda dom, params, config: qk_partition(
            assign_personal_eps(dom, 0.5, 1.5, seed=config.seed), params, config,
            personalized=True,
        ),
    }
    counts = dict.fromkeys(runs, 0)
    for s in range(20):
        rng = np.random.default_rng([93, s])
        dom = synth_domain(int(rng.integers(20, 41)), seed=8000 + s)
        params = PrivacyParams(float(rng.choice([0.5, 1.0, 2.0])),
                               float(rng.choice([0.05, 0.1, 0.2])))
        for label, run in runs.items():
            before = len(agree)
            run(dom, params, QkConfig(max_samp=2, max_iter=20, seed=s))
            counts[label] += len(agree) - before
    assert all(agree)
    assert min(counts.values()) > 100, counts
    assert all(batched)
    assert len(batched) > 1000, len(batched)


def test_partition_roundtrip(tmp_path):
    dom = synth_domain(30, seed=4)
    part = best_hilbert_partition(dom, PrivacyParams(1.0, 0.1))
    path = tmp_path / "part.csv"
    save_partition(part, path)
    loaded = load_partition(dom, path)
    assert [p.members for p in loaded.plss] == [p.members for p in part.plss]
    assert [p.eps_region for p in loaded.plss] == [p.eps_region for p in part.plss]
    assert loaded.params is None


def test_load_partition_rejects_wrong_domain(tmp_path):
    dom = synth_domain(30, seed=4)
    part = best_hilbert_partition(dom, PrivacyParams(1.0, 0.1))
    path = tmp_path / "part.csv"
    save_partition(part, path)
    other = synth_domain(30, seed=5)
    with pytest.raises(ValueError, match="does not match"):
        load_partition(other, path)


def test_load_partition_format_errors():
    dom = pair_domain(2.0, 10.0, 4.0)
    with pytest.raises(ValueError, match="header"):
        load_partition(dom, io.StringIO("wrong,header\n"))
    header = "pls_id,location_id,eps_region,diam_km\n"
    with pytest.raises(ValueError, match="0..k-1"):
        load_partition(dom, io.StringIO(header + "0,0,1,2\n0,1,1,2\n5,2,1,4\n5,3,1,4\n"))
    with pytest.raises(ValueError, match="inconsistent"):
        load_partition(dom, io.StringIO(header + "0,0,1,2\n0,1,2,2\n1,2,1,4\n1,3,1,4\n"))


def test_repeated_members_and_non_finite_budgets_are_rejected():
    dom = pair_domain(2.0, 10.0, 4.0)
    with pytest.raises(ValueError, match="twice"):
        Pls.build(dom, [2, 2], 1.0)
    for eps in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            Pls.build(dom, [0, 1], eps)
    # built directly, so only validate can catch the repeat
    repeated = Partition(
        (Pls((0, 0, 1), 2.0, 0.5, 1.0), Pls.build(dom, [2, 3], 1.0)), None, "test"
    )
    with pytest.raises(ValueError, match="twice"):
        repeated.validate(dom)


@pytest.mark.parametrize("body, fragment", [
    ("0,0,1,2\n0,0,1,2\n0,1,1,2\n1,2,1,4\n1,3,1,4\n", "line 3: location 0 is already listed on line 2"),
    ("0,0,1,2\n0,1,1,2\n1,1,1,4\n1,2,1,4\n1,3,1,4\n", "line 4: location 1 is already listed on line 3"),
    ("0,0,inf,2\n0,1,inf,2\n1,2,1,4\n1,3,1,4\n", "line 2: eps_region and diam_km must be finite"),
    ("0,0,1,2\n0,1,1,2\n1,2,nan,4\n1,3,nan,4\n", "line 4: eps_region and diam_km must be finite"),
    ("0,0,1,nan\n0,1,1,nan\n1,2,1,4\n1,3,1,4\n", "line 2: eps_region and diam_km must be finite"),
], ids=["repeat-in-set", "repeat-across-sets", "inf-eps", "nan-eps", "nan-diam"])
def test_load_partition_names_the_bad_line(body, fragment):
    dom = pair_domain(2.0, 10.0, 4.0)
    with pytest.raises(ValueError, match=fragment):
        load_partition(dom, io.StringIO("pls_id,location_id,eps_region,diam_km\n" + body))


def test_zero_prior_locations_partition():
    """Locations of zero prior mass are covered like any other."""
    base = synth_domain(12, seed=0)
    # 4 and 5 are the two nearest locations, so both partitioners try them as a pair
    priors = base.priors.copy()
    priors[[4, 5]] = 0.0
    dom = LocationDomain(base.positions, priors)
    params = PrivacyParams(1.0, 0.1)
    for part in (best_hilbert_partition(dom, params),
                 qk_partition(dom, params, QkConfig(max_samp=3, seed=1))):
        part.validate(dom)
        report = compute_metrics(dom, build_matrix(dom, part))
        for values in (report.exp_err, report.qloss, report.cond_err,
                       report.avg_err, report.success):
            assert np.isfinite(values).all()
