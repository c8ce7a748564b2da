import io
import math

import numpy as np
import pytest

from locobf import (
    Location,
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
)


@pytest.fixture
def line3():
    return LocationDomain(
        [Location(i, (float(i), 0.0), 1 / 3) for i in range(3)]
    )


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
        assert m.normalizers[i] * total == pytest.approx(1.0, abs=1e-12)


def test_vanishing_eps_gives_uniform_rows(line3):
    m = build_matrix_constant(line3, 1.0, 1e-12)
    assert m.rows == pytest.approx(np.full((3, 3), 1 / 3), abs=1e-9)


def test_rows_mirror_under_reflection():
    dom = LocationDomain(
        [Location(i, (float(i), 0.0), 0.25) for i in range(4)]
    )
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
    dom = LocationDomain([
        Location(0, (0.0, 0.0), 0.25),
        Location(1, (0.0, 0.0), 0.25),
        Location(2, (5.0, 0.0), 0.25),
        Location(3, (6.0, 0.0), 0.25),
    ])
    part = Partition(
        (Pls.build(dom, (0, 1), 1.0), Pls.build(dom, (2, 3), 1.0)),
        None,
        "handmade",
    )
    with pytest.raises(ValueError, match="zero diameter"):
        build_matrix(dom, part)


def test_partial_cover_is_rejected(line3):
    dom = LocationDomain(
        [Location(i, (float(i), 0.0), 0.25) for i in range(4)]
    )
    part = Partition((Pls.build(dom, (0, 1), 1.0),), None, "handmade")
    with pytest.raises(ValueError, match="cover"):
        build_matrix(dom, part)


def test_constant_argument_validation(line3):
    with pytest.raises(ValueError):
        build_matrix_constant(line3, 0.0, 1.0)
    with pytest.raises(ValueError):
        build_matrix_constant(line3, 1.0, 0.0)


def test_constant_matches_single_set_partition(line3):
    part = Partition(
        (Pls.build(line3, (0, 1, 2), 0.7),), PrivacyParams(0.7, 0.0), "handmade"
    )
    a = build_matrix(line3, part)
    b = build_matrix_constant(line3, part.plss[0].diam, 0.7)
    assert np.array_equal(a.rows, b.rows)
    assert np.array_equal(a.normalizers, b.normalizers)


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
