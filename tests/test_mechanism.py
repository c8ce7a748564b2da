import io
import math
import tracemalloc

import numpy as np
import pytest

from locobf import (
    InfeasibleParamsError,
    LocationDomain,
    ObfuscationMatrix,
    Partition,
    Pls,
    PrivacyParams,
    build_matrix,
    build_matrix_constant,
    best_hilbert_partition,
    load_matrix_rows,
    sample_pseudo,
    save_matrix,
    synth_domain,
    worker_travel_distance,
)
from locobf.mechanism import _TASK_BLOCK
from reference_impls import reference_sample_pseudo, reference_worker_travel_distance


@pytest.fixture
def line3():
    return LocationDomain([(float(i), 0.0) for i in range(3)], [1 / 3] * 3)


def test_constant_row_values(line3):
    m = build_matrix_constant(line3, 1.0, 2.0)
    z = 1.0 + math.exp(-1.0) + math.exp(-2.0)
    assert z == pytest.approx(1.503215, abs=5e-7)
    assert m.rows[0] == pytest.approx([1 / z, math.exp(-1) / z, math.exp(-2) / z])
    assert m.rows[0] == pytest.approx([0.6652, 0.2447, 0.0900], abs=5e-5)


def test_normalizer_identity(line3):
    m = build_matrix_constant(line3, 1.0, 2.0)
    scale = 2.0 / (2.0 * 1.0)
    for i in range(3):
        total = np.exp(-scale * line3.distances[i]).sum()
        # the self-report's weight is exp(0) = 1, so its probability is the normalizer
        assert m.rows[i, i] * total == pytest.approx(1.0, abs=1e-12)


def test_vanishing_eps_gives_uniform_rows(line3):
    m = build_matrix_constant(line3, 1.0, 1e-12)
    assert m.rows == pytest.approx(np.full((3, 3), 1 / 3), abs=1e-9)


def test_rows_mirror_under_reflection():
    dom = LocationDomain([(float(i), 0.0) for i in range(4)], [0.25] * 4)
    part = Partition(
        (Pls.build(dom, (0, 3), 1.0), Pls.build(dom, (1, 2), 1.0)),
        PrivacyParams(1.0, 0.0),
        "handmade",
    )
    m = build_matrix(dom, part)
    # reflecting the line swaps 0<->3 and 1<->2, so paired rows read
    # the same backwards
    assert m.rows[1] == pytest.approx(m.rows[2][::-1], abs=1e-12)
    assert m.rows[0] == pytest.approx(m.rows[3][::-1], abs=1e-12)


def test_matrix_is_row_stochastic():
    dom = synth_domain(40, seed=3)
    part = best_hilbert_partition(dom, PrivacyParams(1.0, 0.1))
    m = build_matrix(dom, part)
    assert m.rows.shape == (40, 40)
    assert (m.rows > 0).all()
    assert m.rows.sum(axis=1) == pytest.approx(np.ones(40), abs=1e-9)


def test_row_metadata_tracks_the_partition():
    dom = synth_domain(25, seed=9)
    part = best_hilbert_partition(dom, PrivacyParams(0.5, 0.05))
    m = build_matrix(dom, part)
    for j, pls in enumerate(part.plss):
        idx = list(pls.members)
        assert (m.row_pls[idx] == j).all()
        assert m.row_sensitivity[idx] == pytest.approx(pls.diam)
        assert m.row_eps[idx] == pytest.approx(pls.eps_region)


def test_same_set_rows_close_under_budget():
    dom = synth_domain(25, seed=9)
    part = best_hilbert_partition(dom, PrivacyParams(0.5, 0.05))
    m = build_matrix(dom, part)
    for pls in part.plss:
        for a in pls.members:
            for b in pls.members:
                ratios = np.log(m.rows[a]) - np.log(m.rows[b])
                assert ratios.max() <= pls.eps_region + 1e-9


def test_zero_diameter_set_is_rejected():
    dom = LocationDomain([(0.0, 0.0), (0.0, 0.0), (5.0, 0.0), (6.0, 0.0)], [0.25] * 4)
    part = Partition(
        (Pls.build(dom, (0, 1), 1.0), Pls.build(dom, (2, 3), 1.0)),
        None,
        "handmade",
    )
    with pytest.raises(ValueError, match="zero diameter"):
        build_matrix(dom, part)


def test_partial_cover_is_rejected(line3):
    dom = LocationDomain([(float(i), 0.0) for i in range(4)], [0.25] * 4)
    part = Partition((Pls.build(dom, (0, 1), 1.0),), None, "handmade")
    with pytest.raises(ValueError, match="cover"):
        build_matrix(dom, part)


def test_constant_argument_validation(line3):
    with pytest.raises(ValueError):
        build_matrix_constant(line3, 0.0, 1.0)
    with pytest.raises(ValueError):
        build_matrix_constant(line3, 1.0, 0.0)


@pytest.mark.parametrize("d_const, eps, name", [
    (math.inf, 1.0, "d_const"), (math.nan, 1.0, "d_const"),
    (2.0, math.inf, "eps"), (2.0, math.nan, "eps"),
])
def test_constant_rejects_non_finite_arguments(line3, d_const, eps, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite and > 0"):
        build_matrix_constant(line3, d_const, eps)


def test_constant_matches_single_set_partition(line3):
    part = Partition(
        (Pls.build(line3, (0, 1, 2), 0.7),), PrivacyParams(0.7, 0.0), "handmade"
    )
    a = build_matrix(line3, part)
    b = build_matrix_constant(line3, part.plss[0].diam, 0.7)
    assert np.array_equal(a.rows, b.rows)


def test_larger_sensitivity_flattens_rows(line3):
    def entropy(p):
        return float(-(p * np.log(p)).sum())

    h = [
        entropy(build_matrix_constant(line3, d, 2.0).rows[0])
        for d in (1.0, 2.0, 4.0)
    ]
    assert h[0] < h[1] < h[2]


def test_sampling_point_mass():
    m = ObfuscationMatrix(np.eye(3))
    rng = np.random.default_rng(0)
    assert sample_pseudo(m, 1, rng) == 1
    assert (sample_pseudo(m, 2, rng, size=50) == 2).all()
    with pytest.raises(ValueError):
        sample_pseudo(m, 3, rng)


def test_sampling_is_seed_deterministic(line3):
    m = build_matrix_constant(line3, 1.0, 2.0)
    a = sample_pseudo(m, 0, np.random.default_rng(42), size=200)
    b = sample_pseudo(m, 0, np.random.default_rng(42), size=200)
    assert (a == b).all()


def test_sampling_tracks_the_row(line3):
    m = build_matrix_constant(line3, 1.0, 2.0)
    draws = sample_pseudo(m, 0, np.random.default_rng(7), size=20000)
    freq = np.bincount(draws, minlength=3) / draws.size
    assert np.abs(freq - m.rows[0]).sum() <= 0.03


def test_matrix_roundtrip(line3):
    m = build_matrix_constant(line3, 1.0, 2.0)
    buf = io.StringIO()
    save_matrix(m, buf)
    buf.seek(0)
    rows = load_matrix_rows(buf)
    assert rows == pytest.approx(m.rows, rel=1e-10)


def test_matrix_roundtrip_via_path(tmp_path, line3):
    m = build_matrix_constant(line3, 1.0, 2.0)
    path = tmp_path / "matrix.csv"
    save_matrix(m, path)
    assert load_matrix_rows(path) == pytest.approx(m.rows, rel=1e-10)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("a,b\n", "header"),
        ("true_id,0,1\n0,0.5,0.5\n", "missing"),
        ("true_id,0,1\n0,0.5,0.5\nx,0.5\n", "malformed"),
        ("true_id,0,1\n0,0.5,0.5\n0,0.25,0.75\n1,0.5,0.5\n", "line 3: duplicate row for true id 0"),
        ("true_id,0,1\n0,0.5,0.5\n   \n", "missing rows"),
        ("true_id,0,1\n0,0.5,0.5\n  \n1,0.5,x\n", "line 4: malformed numeric field"),
        ("true_id,0,1\n0,0.5,0.5\n1,nan,0.5\n", "line 3: probabilities must be finite and >= 0"),
        ("true_id,0,1\n0,inf,0.5\n1,0.5,0.5\n", "line 2: probabilities must be finite and >= 0"),
        ("true_id,0,1,2\n0,-3,4,0\n", "line 2: probabilities must be finite and >= 0"),
        ("true_id,0,1\n1,0,7\n0,1,0\n", "line 2: row for true id 1 must sum to 1"),
        ("true_id,0,1\n0,0.5,0.5\n1,0.5,0.5000001\n", "line 3: row for true id 1 must sum to 1"),
    ],
)
def test_matrix_parse_errors(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        load_matrix_rows(io.StringIO(text))


def test_hand_built_matrix_validation():
    with pytest.raises(ValueError, match="square"):
        ObfuscationMatrix(np.ones((2, 3)) / 3)
    with pytest.raises(ValueError, match="sum"):
        ObfuscationMatrix(np.array([[0.5, 0.4], [0.5, 0.5]]))
    with pytest.raises(ValueError, match=">= 0"):
        ObfuscationMatrix(np.array([[1.5, -0.5], [0.5, 0.5]]))
    with pytest.raises(ValueError, match="finite"):
        ObfuscationMatrix(np.array([[np.nan, np.nan], [0.5, 0.5]]))
    with pytest.raises(ValueError, match="finite"):
        ObfuscationMatrix(np.array([[np.inf, 0.0], [0.5, 0.5]]))


def test_rows_are_a_read_only_view():
    base = np.eye(3)
    m = ObfuscationMatrix(base)
    with pytest.raises(ValueError, match="read-only"):
        m.rows[0, 0] = 1
    assert np.shares_memory(m.rows, base)
    base[1] = [0.0, 0.5, 0.5]  # the caller's array stays writable
    assert m.rows[1, 2] == 0.5


@pytest.mark.parametrize("broken", [
    [-1.0, 1.0, 1.0], [np.nan, 1.0, 0.0], [np.inf, 0.0, 0.0], [0.5, 0.5 + 2e-8, 0.0],
])
def test_sampler_rechecks_rows_broken_through_the_base(broken):
    """A row that Generator.choice refuses is refused by both draw paths."""
    base = np.eye(3)
    m = ObfuscationMatrix(base)
    base[0] = broken
    dom = synth_domain(3, seed=0)
    with pytest.raises(ValueError):
        reference_sample_pseudo(m, 0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        sample_pseudo(m, 0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        worker_travel_distance(dom, m, [[0.0, 0.0]], 3, np.random.default_rng(0))


def test_worker_travel_distance_rejects_a_matrix_of_another_domain():
    # a smaller matrix used to give a score for some rng seeds and an IndexError for others
    dom = synth_domain(70, seed=1)
    matrix = build_matrix_constant(synth_domain(60, seed=1), 2.0, 1.0)
    for seed in range(20):
        with pytest.raises(ValueError, match="matrix has 60 locations but the domain has 70"):
            worker_travel_distance(dom, matrix, [[0.0, 0.0]], 30, np.random.default_rng(seed))


def _release_matrices(dom, params):
    mats = [ObfuscationMatrix(np.eye(dom.n)), build_matrix_constant(dom, 2.0, 1.0)]
    try:
        mats.append(build_matrix(dom, best_hilbert_partition(dom, params)))
    except (InfeasibleParamsError, ValueError):
        pass  # no walk, or a zero-diameter set
    return mats


def _assert_same_draws(matrix, true_id, seed, size):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = sample_pseudo(matrix, true_id, rng, size=size)
    want = reference_sample_pseudo(matrix, true_id, ref, size=size)
    if size is None:
        assert type(got) is int and got == want
    else:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
    assert rng.random() == ref.random()


def _assert_same_wtd(dom, matrix, tasks, idle_count, seed):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = worker_travel_distance(dom, matrix, tasks, idle_count, rng)
    assert got == reference_worker_travel_distance(dom, matrix, tasks, idle_count, ref)
    assert rng.random() == ref.random()


def _grid_tasks(rng, side, count):
    # cell centres, edge midpoints and corners: often equidistant from several reports
    return rng.integers(0, 2 * side + 1, size=(count, 2)) / 2.0


def test_sampler_equals_choice_draws():
    for seed in range(12):
        dom = synth_domain(10 + 3 * seed, seed=seed, grid_side=8)
        for mi, m in enumerate(_release_matrices(dom, PrivacyParams(1.0, 0.2))):
            for size in (None, 0, 1, 7, (2, 3), (4, 1, 2)):
                for true_id in (0, dom.n // 2, dom.n - 1):
                    _assert_same_draws(m, true_id, [seed, mi, true_id], size)


def test_cached_rows_draw_what_choice_draws():
    """Draws that read a row's kept CDF still replay choice, id for id."""
    for seed in range(6):
        dom = synth_domain(12 + 5 * seed, seed=seed, grid_side=8)
        tasks = _grid_tasks(np.random.default_rng([seed, 1]), 8, 10)
        for mi, m in enumerate(_release_matrices(dom, PrivacyParams(1.0, 0.2))):
            rng, ref = np.random.default_rng([seed, mi]), np.random.default_rng([seed, mi])
            plan = np.random.default_rng([seed, mi, 1])
            drawn = set()
            # one row many times, then rows in random order, then draws mixed with wtd rounds
            steps = [("draw", dom.n // 3)] * 40
            steps += [("draw", int(i)) for i in plan.integers(dom.n, size=60)]
            steps += [("wtd", None) if plan.random() < 0.3 else ("draw", int(plan.integers(dom.n)))
                      for _ in range(60)]
            for kind, true_id in steps:
                if kind == "wtd":
                    idle_count = int(plan.integers(3, dom.n + 1))
                    got = worker_travel_distance(dom, m, tasks, idle_count, rng)
                    assert got == reference_worker_travel_distance(dom, m, tasks, idle_count, ref)
                    drawn = None  # from here the kept rows include idle workers not tracked
                    continue
                size = (None, 3)[int(plan.integers(2))]
                got = sample_pseudo(m, true_id, rng, size=size)
                assert np.array_equal(got, reference_sample_pseudo(m, true_id, ref, size=size))
                if drawn is not None:
                    drawn.add(true_id)
                    assert set(m._cdfs) == drawn  # one kept row per distinct id drawn
            assert rng.random() == ref.random()


def test_cached_cdf_rows_are_read_only():
    dom = synth_domain(20, seed=1)
    m = build_matrix_constant(dom, 2.0, 1.0)
    sample_pseudo(m, 4, np.random.default_rng(0))
    worker_travel_distance(dom, m, [[0.0, 0.0]], 5, np.random.default_rng(1))
    assert 4 in m._cdfs and len(m._cdfs) > 1
    for cdf in m._cdfs.values():
        with pytest.raises(ValueError, match="read-only"):
            cdf[0] = 0.0


def test_first_draw_keeps_one_row_not_the_matrix():
    n = 2000
    m = ObfuscationMatrix(np.full((n, n), 1.0 / n))
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        sample_pseudo(m, 7, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * n * 8
    assert list(m._cdfs) == [7]


def test_wtd_equals_the_per_task_loop_on_grid_domains():
    ties = 0
    for seed in range(200):
        side = 6 + seed % 3
        dom = synth_domain(8 + seed % 29, seed=seed, grid_side=side)
        tasks = _grid_tasks(np.random.default_rng([seed, 1]), side, 25)
        for mi, m in enumerate(_release_matrices(dom, PrivacyParams(1.0, 0.2))):
            for idle_count in (3, dom.n // 2 + 2, dom.n):
                _assert_same_wtd(dom, m, tasks, idle_count, [seed, mi, idle_count])
        # tasks x locations; a tie between the third and fourth nearest location
        to_task = np.hypot(*(dom.positions[None, :, :] - tasks[:, None, :]).transpose(2, 0, 1))
        nearest = np.sort(to_task, axis=1)
        ties += int((nearest[:, 2] == nearest[:, 3]).sum())
    assert ties > 1000  # the third-nearest choice is often decided by worker id


def test_wtd_equals_the_per_task_loop_with_duplicate_positions():
    spots = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    dom = LocationDomain([spots[i % 4] for i in range(14)], [1.0 + i % 3 for i in range(14)])
    tasks = _grid_tasks(np.random.default_rng(3), 1, 40)
    for mi, m in enumerate(_release_matrices(dom, PrivacyParams(1.0, 0.05))):
        for idle_count in (3, 7, dom.n):
            for seed in range(10):
                _assert_same_wtd(dom, m, tasks, idle_count, [mi, idle_count, seed])


def test_wtd_breaks_equal_distances_by_worker_id():
    # workers 0..3 sit 1 km from the task; the lowest three ids serve it
    dom = LocationDomain(
        [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0), (3.0, 3.0)], [0.2] * 5
    )
    ident = ObfuscationMatrix(np.eye(5))
    task = [[0.0, 0.0]]
    assert worker_travel_distance(dom, ident, task, 5, np.random.default_rng(0)) == 1.0
    for seed in range(20):
        for idle_count in (3, 4, 5):
            _assert_same_wtd(dom, ident, task, idle_count, seed)
            _assert_same_wtd(dom, build_matrix_constant(dom, 4.0, 1.0), task, idle_count, seed)


def test_wtd_equals_the_per_task_loop_across_task_blocks():
    dom = synth_domain(60, seed=4, grid_side=10)
    mats = _release_matrices(dom, PrivacyParams(1.0, 0.2))
    for count in (1, _TASK_BLOCK - 1, _TASK_BLOCK, _TASK_BLOCK + 1, 1000):
        tasks = _grid_tasks(np.random.default_rng(count), 10, count)
        for mi, m in enumerate(mats):
            for idle_count in (3, 31, dom.n):
                _assert_same_wtd(dom, m, tasks, idle_count, [count, mi, idle_count])


def test_wtd_picks_far_tasks_by_worker_id():
    """Reports whose squared distance overflows are inf, tied, and ranked by worker id."""
    # ids 0..7 near the origin, 8..11 on a line 1e200 km away
    near = [(float(i % 4), float(i // 4)) for i in range(8)]
    dom = LocationDomain(near + [(1e200, float(k)) for k in range(4)], [1.0] * 12)
    away = np.zeros((12, 12))
    away[np.arange(12), 8 + np.arange(12) % 4] = 1.0
    # every worker reports far away; then all but one or two of them do
    one_near, two_near = away.copy(), away.copy()
    one_near[5] = np.eye(12)[3]
    two_near[[2, 6]] = np.eye(12)[[0, 7]]
    tasks = np.vstack([_grid_tasks(np.random.default_rng(5), 3, 30),
                       [(1e200, 0.5), (-1e200, 0.0), (0.5, 1e200), (-1e200, -1e200)]])
    with np.errstate(over="ignore"):
        for rows in (away, one_near, two_near):
            m = ObfuscationMatrix(rows)
            for idle_count in (3, 4, 7, 12):
                for seed in range(15):
                    _assert_same_wtd(dom, m, tasks[:30], idle_count, [idle_count, seed])
                    _assert_same_wtd(dom, m, tasks, idle_count, [idle_count, seed])
        # the three lowest ids serve a task every report is out of range of
        got = worker_travel_distance(dom, ObfuscationMatrix(away), [(0.0, 0.0)], 12,
                                     np.random.default_rng(0))
    assert got == (0.0 + 1.0 + 2.0) / 3
