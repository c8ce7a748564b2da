import io
import math

import numpy as np
import pytest

import locobf.domain as domain_mod
from locobf import (
    DomainFormatError,
    InfeasibleParamsError,
    LocationDomain,
    PrivacyParams,
    assign_personal_eps,
    diameter,
    load_domain,
    min_mean_distance,
    min_mean_distance_within,
    prior_mass,
    satisfies_error_bound,
    save_domain,
    synth_domain,
)
from locobf.domain import _admits
from reference_impls import (
    brute_diameter,
    brute_min_mean_distance,
    brute_min_mean_distance_within,
    reference_distances,
)


def test_diameter(triangle):
    assert diameter(triangle, [1]) == 0.0
    assert diameter(triangle, [0, 1, 2]) == pytest.approx(130.0)
    line = LocationDomain([(float(i), 0.0) for i in range(3)], [1 / 3] * 3)
    assert diameter(line, [0, 1, 2]) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        diameter(triangle, [])


def test_prior_mass(triangle):
    assert prior_mass(triangle, list(triangle.ids)) == pytest.approx(1.0)
    assert prior_mass(triangle, []) == 0.0
    dom = LocationDomain([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], [0.0153, 0.0241, 0.9606])
    assert prior_mass(dom, [0, 1]) == pytest.approx(0.0394, abs=1e-12)


def test_min_mean_distance_triangle(triangle):
    """The unrestricted minimizer lands on the interior point F."""
    e_prime = min_mean_distance(triangle, [0, 1, 2])
    assert e_prime == pytest.approx(68.8675, abs=5e-3)
    # per-candidate means: 86.67 at A, 76.67 at B and C, 68.87 at F
    assert brute_min_mean_distance(triangle, [0, 1, 2], [0]) == pytest.approx(260 / 3)
    assert brute_min_mean_distance(triangle, [0, 1, 2], [1]) == pytest.approx(230 / 3)


def test_min_mean_distance_within_triangle(triangle):
    e = min_mean_distance_within(triangle, [0, 1, 2])
    assert e == pytest.approx(230 / 3, abs=5e-3)  # 76.67, minimizer at B or C
    assert e > min_mean_distance(triangle, [0, 1, 2])


def test_mean_distance_degenerate_cases(triangle):
    assert min_mean_distance(triangle, [2]) == 0.0
    assert min_mean_distance_within(triangle, [2]) == 0.0
    pair = LocationDomain([(0.0, 0.0), (3.0, 0.0)], [0.5, 0.5])
    assert min_mean_distance(pair, [0, 1]) == pytest.approx(1.5)
    assert min_mean_distance_within(pair, [0, 1]) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        min_mean_distance(triangle, [0, 99])


def test_restricted_never_below_unrestricted():
    rng = np.random.default_rng(42)
    for trial in range(30):
        pts = rng.uniform(0, 10, size=(10, 2))
        pri = rng.uniform(0.5, 2.0, size=10)
        dom = LocationDomain(pts, pri)
        size = int(rng.integers(2, 6))
        ids = sorted(rng.choice(10, size=size, replace=False).tolist())
        e = min_mean_distance_within(dom, ids)
        ep = min_mean_distance(dom, ids)
        assert e >= ep - 1e-12
        assert e == pytest.approx(brute_min_mean_distance_within(dom, ids), rel=1e-12)
        assert diameter(dom, ids) == pytest.approx(brute_diameter(dom, ids), rel=1e-12)


def test_whole_domain_floor_matches_the_indexed_table():
    """The floors read the distance table itself (every id) or its member
    rows (a proper subset) and give the floats of the indexed column
    copies they replace."""
    rng = np.random.default_rng(7)
    for n, seed in ((2, 0), (3, 4), (50, 1), (300, 2), (1000, 3)):
        dom = synth_domain(n, seed=seed, grid_side=64)
        subsets = [np.arange(n)] + [
            np.sort(rng.choice(n, size=size, replace=False))
            for size in rng.integers(1, n, size=20).tolist()]
        for idx in subsets:
            weights = dom.priors[idx]
            mass = weights.sum()
            assert min_mean_distance(dom, idx) == float(
                (dom.distances[:, idx] @ weights).min() / mass)
            assert min_mean_distance_within(dom, idx) == float(
                (dom.distances[np.ix_(idx, idx)] @ weights).min() / mass)


@pytest.mark.parametrize("n", [1, 127, 128, 129, 1000])
def test_distances_are_symmetric_and_match_reference(n):
    """The upper triangle is computed and mirrored: the table equals its
    transpose and one whole-matrix hypot, across the 128-row tiles."""
    rng = np.random.default_rng(n)
    grid = rng.integers(0, 40, size=(n, 2)) + 0.5
    off_grid = rng.uniform(-50.0, 50.0, size=(n, 2))
    far = rng.uniform(-3.0, 3.0, size=(n, 2)) + rng.choice([-1e6, 1e6], size=(n, 1))
    for positions in (grid, off_grid, far):
        dom = LocationDomain(positions, np.ones(n))
        assert np.array_equal(dom.distances, dom.distances.T)
        assert np.array_equal(dom.distances, reference_distances(dom.positions))


def test_satisfies_error_bound():
    pair = LocationDomain([(0.0, 0.0), (1.0, 0.0)], [0.5, 0.5])
    assert satisfies_error_bound(pair, [0, 1], 5.0, 0.0)
    # 0.5 >= e^0.1 * 0.4 = 0.4421
    assert satisfies_error_bound(pair, [0, 1], 0.1, 0.4)
    assert not satisfies_error_bound(pair, [0, 1], 0.3, 0.4)
    assert not satisfies_error_bound(pair, [0], 0.1, 0.4)  # singleton floor is 0
    with pytest.raises(ValueError):
        satisfies_error_bound(pair, [0, 1], 0.0, 0.4)


def test_zero_mass_set_has_no_floor():
    dom = LocationDomain([(0.0, 0.0), (1.0, 0.0), (5.0, 0.0)], [0.0, 0.0, 1.0])
    assert not satisfies_error_bound(dom, [0, 1], 1.0, 0.0)
    assert satisfies_error_bound(dom, [0, 2], 1.0, 0.0)
    with pytest.raises(ValueError, match="zero prior mass"):
        min_mean_distance(dom, [0, 1])


def _running_floor_sum(domain, order):
    # smallest prior-weighted distance sum and mass, summed in join order
    sums = np.zeros(domain.n)
    mass = 0.0
    for i in order:
        p = float(domain.priors[i])
        sums += p * domain.distances[i]
        mass += p
    return float(sums.min()), mass


def _ems_around(floor, eps):
    """em values whose threshold exp(eps) * em sits just below, on and above floor."""
    em = floor / math.exp(eps)
    while math.exp(eps) * em < floor:
        em = math.nextafter(em, math.inf)
    while em > 0 and math.exp(eps) * math.nextafter(em, 0.0) >= floor:
        em = math.nextafter(em, 0.0)
    # em is now the smallest value whose threshold reaches the floor
    return math.nextafter(em, 0.0), em, math.nextafter(em, math.inf)


def _floor_cases():
    """(tiny domain, [(domain, members, eps)]) around which the floor tests run."""
    tiny = LocationDomain(  # every running sum is far below 2**-900
        [(i * 1e-290, 0.0) for i in range(4)], [0.25] * 4
    )
    cases = [(tiny, [0, 1], 1.0), (tiny, [1, 2, 3], 0.5)]
    for s in range(8):
        rng = np.random.default_rng([92, s])
        dom = synth_domain(int(rng.integers(10, 60)), seed=6000 + s)
        for _ in range(6):
            size = int(rng.integers(2, 9))
            members = rng.choice(dom.n, size=size, replace=False).tolist()
            cases.append((dom, members, float(rng.choice([0.25, 1.0, 2.0]))))
    return tiny, cases


def _counting_floors(monkeypatch):
    """Calls to domain._floor_or_none from now on, as a list of their arguments."""
    floors = []
    real = domain_mod._floor_or_none
    monkeypatch.setattr(domain_mod, "_floor_or_none",
                        lambda *args: floors.append(args) or real(*args))
    return floors


def test_running_floor_test_is_exact(monkeypatch):
    """Thresholds on a set's floor and one ulp either side get the exact answer,
    and a set the margin leaves undecided computes its exact floor once."""
    fallbacks = _counting_floors(monkeypatch)
    tiny, cases = _floor_cases()
    zero = LocationDomain([(0.0, 0.0), (1.0, 0.0), (5.0, 0.0)], [0.0, 0.0, 1.0])
    ties = 0
    for dom, members, eps in cases:
        floor = min_mean_distance(dom, members)
        for em in (0.0, *_ems_around(floor, eps)):
            ties += math.exp(eps) * em == floor
            want = satisfies_error_bound(dom, members, eps, em)
            for order in (members, members[::-1]):
                low_sum, mass = _running_floor_sum(dom, order)
                before = len(fallbacks)
                assert _admits(dom, members, low_sum, mass, eps, em) == want
                exact = len(fallbacks) > before
                assert fallbacks[before:] == [(dom, members)] * exact
                if math.exp(eps) * em == floor or dom is tiny:
                    assert exact
                # the recorder gets the floor that decided, the running one or the exact
                # one, and a recorded fallback computes that floor once too
                recorded = []
                before = len(fallbacks)
                assert _admits(dom, members, low_sum, mass, eps, em, recorded.append) == want
                assert len(fallbacks) == before + exact
                assert recorded == [(floor if exact else low_sum / mass, math.exp(eps),
                                     not exact, want)]
    assert ties >= len(cases) // 2
    for em in (0.0, 0.1):
        low_sum, mass = _running_floor_sum(zero, [0, 1])
        assert mass == 0.0
        assert _admits(zero, [0, 1], low_sum, mass, 1.0, em) is False
        assert not satisfies_error_bound(zero, [0, 1], 1.0, em)
        recorded = []
        before = len(fallbacks)
        assert _admits(zero, [0, 1], low_sum, mass, 1.0, em, recorded.append) is False
        assert len(fallbacks) == before
        assert math.isnan(recorded[0][0]) and recorded[0][2:] == (False, False)


def test_running_floor_array_form(monkeypatch):
    """The array form gives the exact answers, asks for members where the scalar
    form falls back, and computes one exact floor per entry it asks for."""
    _, cases = _floor_cases()
    zero = LocationDomain([(0.0, 0.0), (1.0, 0.0), (5.0, 0.0)], [0.0, 0.0, 1.0])
    cases.append((zero, [0, 1], 1.0))
    sums = [_running_floor_sum(dom, members) for dom, members, _ in cases]
    fallbacks = _counting_floors(monkeypatch)
    undecided = 0
    for dom, members, eps in cases:
        # every set of this domain, with the threshold around this one's floor
        same = [c for c, case in enumerate(cases) if case[0] is dom]
        ems = (0.0, 0.1) if dom is zero else (0.0, *_ems_around(min_mean_distance(dom, members), eps))
        arrays = (np.array([sums[c][0] for c in same]), np.array([sums[c][1] for c in same]),
                  np.array([cases[c][2] for c in same]))
        for em in ems:
            asked = []
            before = len(fallbacks)
            got = _admits(dom, lambda t: asked.append(t) or cases[same[t]][1], *arrays, em)
            assert fallbacks[before:] == [(dom, cases[same[t]][1]) for t in asked]
            assert got.dtype == bool
            assert got.tolist() == [satisfies_error_bound(dom, cases[c][1], cases[c][2], em)
                                    for c in same]
            recorded = []
            before = len(fallbacks)
            _admits(dom, lambda t: cases[same[t]][1], *arrays, em, recorded.append)
            assert len(fallbacks) == before + len(asked)
            floor, scale, certified, answer = recorded[0]
            assert answer.tolist() == got.tolist()
            assert scale.tolist() == [math.exp(cases[c][2]) for c in same]
            for t, c in enumerate(same):
                if dom is zero:
                    assert math.isnan(floor[t]) and not certified[t]
                elif t in asked:
                    assert not certified[t] and floor[t] == min_mean_distance(dom, cases[c][1])
                else:
                    assert certified[t] and floor[t] == sums[c][0] / sums[c][1]
            scalar_fallbacks = []
            for t, c in enumerate(same):
                before = len(fallbacks)
                _admits(dom, cases[c][1], *sums[c], cases[c][2], em)
                if len(fallbacks) > before:
                    scalar_fallbacks.append(t)
            assert asked == scalar_fallbacks
            undecided += len(asked)
    assert undecided >= len(cases) // 2


def test_location_validation():
    with pytest.raises(ValueError, match="coordinates must be finite"):
        LocationDomain([(float("nan"), 0.0)], [0.5])
    with pytest.raises(ValueError, match="priors must be finite and >= 0"):
        LocationDomain([(0.0, 0.0)], [-0.1])
    with pytest.raises(ValueError, match="personal eps must be finite and > 0"):
        LocationDomain([(0.0, 0.0)], [0.5], personal_eps=[0.0])


@pytest.mark.filterwarnings("error")
def test_domain_validation():
    pair = [(0.0, 0.0), (1.0, 0.0)]
    for positions, priors, eps, fragment in [
        ([], [], None, "shape (n, 2)"),
        ([(0.0, 0.0, 0.0)], [1.0], None, "shape (n, 2)"),
        (pair, [1.0], None, "priors must have shape (2,)"),
        ([(0.0, 0.0), (math.inf, 0.0)], [0.5, 0.5], None, "coordinates must be finite"),
        # finite coordinates whose difference, or whose hypot, overflows
        ([(-1e308, 0.0), (1e308, 0.0)], [0.5, 0.5], None, "pairwise distances overflow"),
        ([(0.0, 0.0), (1.5e308, 1.5e308)], [0.5, 0.5], None, "pairwise distances overflow"),
        (pair, [0.5, math.nan], None, "priors must be finite"),
        (pair, [0.5, math.inf], None, "priors must be finite"),
        (pair, [0.0, 0.0], None, "positive total mass"),
        # a budget for every location or none
        (pair, [0.5, 0.5], [1.0], "personal eps must have shape (2,)"),
        (pair, [0.5, 0.5], [1.0, math.inf], "finite and > 0"),
        (pair, [0.5, 0.5], [1.0, math.nan], "finite and > 0"),
        (pair, [0.5, 0.5], [1.0, -1.0], "finite and > 0"),
    ]:
        with pytest.raises(ValueError) as err:
            LocationDomain(positions, priors, eps)
        assert fragment in str(err.value)


def test_domain_arrays_are_read_only_copies():
    positions = np.array([[0.0, 0.0], [1.0, 0.0]])
    priors = np.array([1.0, 3.0])
    dom = LocationDomain(positions, priors, personal_eps=[1.0, 2.0])
    positions[0, 0] = 9.0
    priors[0] = 9.0
    assert dom.positions.tolist() == [[0.0, 0.0], [1.0, 0.0]]
    assert dom.priors.tolist() == [0.25, 0.75]
    assert dom.n == 2 and list(dom.ids) == [0, 1]
    for arr in (dom.positions, dom.priors, dom.distances, dom.personal_eps):
        assert not arr.flags.writeable


def test_priors_normalized():
    dom = LocationDomain([(0.0, 0.0), (1.0, 0.0)], [2.0, 2.0])
    assert dom.priors.tolist() == [0.5, 0.5]
    assert abs(dom.priors.sum() - 1.0) < 1e-9


def test_privacy_params():
    p = PrivacyParams(1.0, 0.1)
    assert p.lam == 0.5
    with pytest.raises(ValueError):
        PrivacyParams(0.0, 0.1)
    with pytest.raises(ValueError):
        PrivacyParams(1.0, -0.1)
    with pytest.raises(ValueError):
        PrivacyParams(1.0, 0.1, lam=-1.0)
    with pytest.raises(ValueError):
        PrivacyParams(1.0, float("nan"))
    with pytest.raises(ValueError):
        PrivacyParams(1.0, 0.1, float("nan"))
    for eps, em, lam in ((math.inf, 0.0, 0.5), (1.0, math.inf, 0.5), (1.0, 0.1, math.inf),
                         (math.nan, 0.1, 0.5)):
        with pytest.raises(ValueError, match="finite"):
            PrivacyParams(eps, em, lam)


def test_eps_bound_is_the_last_eps_whose_exp_is_finite():
    """Every eps check accepts budgets up to ln(float max), where math.exp is
    still finite, and refuses one ulp above it, where math.exp overflows."""
    bound = domain_mod._EPS_MAX
    above = math.nextafter(bound, math.inf)
    assert math.exp(bound) < math.inf
    with pytest.raises(OverflowError):
        math.exp(above)
    assert PrivacyParams(bound, 0.1).eps == bound
    with pytest.raises(ValueError, match=r"^eps must be .* e\^eps finite"):
        PrivacyParams(above, 0.1)
    pair = [(0.0, 0.0), (1.0, 0.0)]
    assert LocationDomain(pair, [0.5, 0.5], [1.0, bound]).personal_eps[1] == bound
    with pytest.raises(ValueError, match=r"^personal eps must be .* e\^eps finite"):
        LocationDomain(pair, [0.5, 0.5], [1.0, above])
    uniform = LocationDomain(pair, [0.5, 0.5])
    assert assign_personal_eps(uniform, bound, bound, 0).personal_eps.tolist() == [bound, bound]
    with pytest.raises(ValueError, match=r"e\^eps finite"):
        assign_personal_eps(uniform, above, 720.0, 0)
    text = "id,x_km,y_km,prior,eps\n0,0,0,0.5,1.0\n1,1,0,0.5,{}\n"
    assert load_domain(io.StringIO(text.format(repr(bound)))).personal_eps[1] == bound
    with pytest.raises(DomainFormatError, match=r"^line 3: eps must be .* e\^eps finite"):
        load_domain(io.StringIO(text.format(repr(above))))
    # the error's message reports the overflowing threshold instead of raising
    assert "exp(eps)*em = inf km" in str(InfeasibleParamsError(710, 0.1, 1.0))


def test_load_domain_roundtrip(tmp_path):
    dom = synth_domain(12, seed=5)
    path = tmp_path / "dom.csv"
    save_domain(dom, path)
    loaded = load_domain(path)
    assert loaded.n == 12
    assert np.allclose(loaded.positions, dom.positions)
    assert np.allclose(loaded.priors, dom.priors)


def test_load_domain_eps_roundtrip(tmp_path):
    dom = assign_personal_eps(synth_domain(8, seed=5), 0.5, 1.5, seed=1)
    path = tmp_path / "dom.csv"
    save_domain(dom, path)
    loaded = load_domain(path)
    assert np.allclose(loaded.personal_eps, dom.personal_eps)


@pytest.mark.parametrize("cell", ["inf", "nan", "0", "-1"])
def test_load_domain_rejects_bad_eps(cell):
    text = f"id,x_km,y_km,prior,eps\n0,0,0,0.5,1.0\n1,1,0,0.5,{cell}\n"
    with pytest.raises(DomainFormatError, match="line 3: eps must be finite and > 0"):
        load_domain(io.StringIO(text))


def test_load_domain_parses_and_normalizes(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("id,x_km,y_km,prior\n0,0,0,2\n1,1,0,2\n")
    dom = load_domain(path)
    assert dom.n == 2
    assert dom.priors.tolist() == [0.5, 0.5]


@pytest.mark.parametrize("body,fragment", [
    ("0,0,0,0.5\n1,1,0,-1\n", "line 3"),        # negative prior
    ("0,0,0,0.5\n0,1,0,0.5\n", "duplicate"),
    ("0,0,0\n1,1,0,0.5\n", "line 2"),           # short row
    ("0,0,0,0.5\n", "at least 2"),
    ("0,0,0,0.5\n2,1,0,0.5\n", "exactly 0..n-1"),     # id gap
    ("0,0,0,0.5\n1,nan,0,0.5\n", "line 3: location 1: coordinates must be finite"),
    ("0,0,0,inf\n1,1,0,0.5\n", "line 2: location 0: prior must be finite"),
])
def test_load_domain_errors(tmp_path, body, fragment):
    path = tmp_path / "bad.csv"
    path.write_text("id,x_km,y_km,prior\n" + body)
    with pytest.raises(DomainFormatError) as err:
        load_domain(path)
    assert fragment in str(err.value)


def test_synth_domain():
    a = synth_domain(50, seed=9)
    b = synth_domain(50, seed=9)
    assert a.n == 50
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.priors, b.priors)
    assert len({tuple(p) for p in a.positions.tolist()}) == 50
    assert abs(a.priors.sum() - 1.0) < 1e-9
    flat = synth_domain(10, prior_low=0.02, prior_high=0.02, seed=3)
    assert np.allclose(flat.priors, 0.1)
    with pytest.raises(ValueError):
        synth_domain(300, grid_side=16)  # only 256 cells


@pytest.mark.parametrize("low, high", [
    (-0.5, 0.03), (0.05, 0.01), (0.01, math.nan), (math.nan, 0.03), (0.01, math.inf),
    (math.inf, math.inf),
])
def test_synth_domain_rejects_bad_prior_range(low, high):
    with pytest.raises(ValueError, match="prior_low <= prior_high"):
        synth_domain(10, prior_low=low, prior_high=high)


def test_assign_personal_eps():
    dom = synth_domain(20, seed=1)
    assert dom.personal_eps is None
    got = assign_personal_eps(dom, 0.5, 1.5, seed=4)
    assert dom.personal_eps is None  # the source keeps no budgets
    again = assign_personal_eps(dom, 0.5, 1.5, seed=4)
    assert np.array_equal(got.personal_eps, again.personal_eps)
    assert got.personal_eps.min() >= 0.5 and got.personal_eps.max() <= 1.5
    assert got.n == dom.n
    for low, high in ((0.0, 1.0), (1.5, 0.5), (0.5, math.inf), (math.nan, 1.0), (0.5, math.nan)):
        with pytest.raises(ValueError, match="0 < low <= high < inf"):
            assign_personal_eps(dom, low, high, seed=4)


def test_distance_matrix_cache():
    dom = synth_domain(15, seed=2)
    i, j = 3, 11
    expect = math.hypot(*(dom.positions[i] - dom.positions[j]))
    assert dom.distances[i, j] == pytest.approx(expect, rel=1e-15)
    assert dom.distances[j, i] == dom.distances[i, j]
    assert np.all(np.diag(dom.distances) == 0.0)
