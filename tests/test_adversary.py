import io

import numpy as np
import pytest

from locobf import (
    LocationDomain,
    MetricsReport,
    ObfuscationMatrix,
    PrivacyParams,
    bayes_attack,
    best_hilbert_partition,
    build_matrix,
    build_matrix_constant,
    compute_metrics,
    conditional_error,
    load_metrics,
    optimal_attack,
    posterior,
    quality_loss,
    save_metrics,
    synth_domain,
)
from reference_impls import brute_avg_error, brute_success_prob


@pytest.fixture
def line3():
    return LocationDomain([(float(i), 0.0) for i in range(3)], [1 / 3] * 3)


def test_posterior_identity_channel(line3):
    m = ObfuscationMatrix(np.eye(3))
    for j in range(3):
        post = posterior(line3, m, j)
        expect = np.zeros(3)
        expect[j] = 1.0
        assert post == pytest.approx(expect)


def test_posterior_two_loc(two_loc):
    dom, m = two_loc
    assert posterior(dom, m, 0) == pytest.approx([6 / 7, 1 / 7])
    assert posterior(dom, m, 1) == pytest.approx([0.5, 0.5])
    assert posterior(dom, m, 0).sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        posterior(dom, m, 2)


def test_posterior_mixes_back_to_prior(two_loc):
    dom, m = two_loc
    marginal = dom.priors @ m.rows
    mixed = sum(
        marginal[j] * posterior(dom, m, j) for j in range(m.n)
    )
    assert mixed == pytest.approx(dom.priors, abs=1e-9)


def test_optimal_attack_point_mass(line3):
    assert optimal_attack(line3, [0.0, 1.0, 0.0]) == 1


def test_optimal_attack_breaks_ties_low(line3):
    # costs are 0.7, 0.7, 1.3: ids 0 and 1 tie
    assert optimal_attack(line3, [0.5, 0.3, 0.2]) == 0
    pair = LocationDomain([(0.0, 0.0), (1.0, 0.0)], [0.5, 0.5])
    assert optimal_attack(pair, [0.5, 0.5]) == 0


def test_bayes_attack():
    assert bayes_attack([0.5, 0.5]) == 0
    assert bayes_attack([0.2, 0.3, 0.5]) == 2


def test_conditional_error(two_loc):
    dom, m = two_loc
    assert conditional_error(dom, m, 0) == pytest.approx(1 / 7)
    assert conditional_error(dom, m, 1) == pytest.approx(0.5)


def test_expected_error(two_loc):
    dom, m = two_loc
    assert compute_metrics(dom, m).exp_err == pytest.approx(0.25)
    assert compute_metrics(dom, ObfuscationMatrix(np.eye(2))).exp_err == 0.0


def test_expected_error_is_marginal_mix(line3):
    m = build_matrix_constant(line3, 1.0, 1.0)
    marginal = line3.priors @ m.rows
    mixed = sum(
        marginal[j] * conditional_error(line3, m, j) for j in range(3)
    )
    assert compute_metrics(line3, m).exp_err == pytest.approx(mixed, abs=1e-9)


def test_quality_loss(two_loc):
    dom, m = two_loc
    assert quality_loss(dom, m) == pytest.approx(0.25)
    assert quality_loss(dom, ObfuscationMatrix(np.eye(2))) == 0.0
    flat = ObfuscationMatrix(np.full((2, 2), 0.5))
    assert quality_loss(dom, flat) == pytest.approx(0.5)


@pytest.mark.parametrize("metric", [
    compute_metrics, quality_loss,
    lambda dom, m: posterior(dom, m, 0), lambda dom, m: conditional_error(dom, m, 0),
], ids=["compute_metrics", "quality_loss", "posterior", "conditional_error"])
def test_metrics_reject_a_matrix_of_another_domain(metric):
    dom = synth_domain(7, seed=1)
    for n in (6, 8):
        with pytest.raises(ValueError, match=f"matrix has {n} locations but the domain has 7"):
            metric(dom, build_matrix_constant(synth_domain(n, seed=2), 2.0, 1.0))


def test_avg_error(two_loc):
    dom, m = two_loc
    avg_err = compute_metrics(dom, m).avg_err
    assert avg_err[0] == pytest.approx(0.0)
    assert avg_err[1] == pytest.approx(1.0)


def test_success_prob(two_loc):
    dom, m = two_loc
    success = compute_metrics(dom, m).success
    assert success[0] == pytest.approx(1.0)
    assert success[1] == pytest.approx(0.0)
    success = compute_metrics(dom, ObfuscationMatrix(np.eye(2))).success
    assert success[0] == pytest.approx(1.0)
    assert success[1] == pytest.approx(1.0)


def test_expected_error_survives_relabeling():
    dom = synth_domain(12, seed=4)
    m = build_matrix_constant(dom, 2.0, 1.0)
    rng = np.random.default_rng(11)
    perm = rng.permutation(12)
    relabeled = LocationDomain(dom.positions[perm], dom.priors[perm])
    m2 = ObfuscationMatrix(m.rows[np.ix_(perm, perm)])
    assert compute_metrics(relabeled, m2).exp_err == pytest.approx(
        compute_metrics(dom, m).exp_err, abs=1e-9
    )
    assert quality_loss(relabeled, m2) == pytest.approx(
        quality_loss(dom, m), abs=1e-9
    )


def test_compute_metrics_matches_pointwise():
    dom = synth_domain(30, seed=6)
    part = best_hilbert_partition(dom, PrivacyParams(1.0, 0.1))
    m = build_matrix(dom, part)
    report = compute_metrics(dom, m)
    marginal = dom.priors @ m.rows
    mixed = sum(marginal[j] * conditional_error(dom, m, j) for j in range(30))
    assert report.exp_err == pytest.approx(mixed, abs=1e-12)
    assert report.qloss == pytest.approx(quality_loss(dom, m), abs=1e-12)
    for j in range(0, 30, 7):
        assert report.cond_err[j] == pytest.approx(
            conditional_error(dom, m, j), abs=1e-12
        )
        assert report.avg_err[j] == pytest.approx(
            brute_avg_error(dom, m.rows, j), abs=1e-12
        )
        assert report.success[j] == pytest.approx(
            brute_success_prob(dom, m.rows, j), abs=1e-12
        )


def test_metrics_roundtrip(two_loc):
    dom, m = two_loc
    report = compute_metrics(dom, m)
    buf = io.StringIO()
    save_metrics(report, buf)
    buf.seek(0)
    loaded = load_metrics(buf)
    assert loaded["exp_err"] == pytest.approx(report.exp_err, rel=1e-10)
    assert loaded["qloss"] == pytest.approx(report.qloss, rel=1e-10)
    assert loaded["cond_err"] == {
        i: pytest.approx(float(v), rel=1e-10) for i, v in enumerate(report.cond_err)
    }
    assert set(loaded) == set(MetricsReport.NAMES)


def test_metrics_subset_and_unknown_name(two_loc):
    dom, m = two_loc
    report = compute_metrics(dom, m)
    buf = io.StringIO()
    save_metrics(report, buf, metrics=["qloss"])
    buf.seek(0)
    assert set(load_metrics(buf)) == {"qloss"}
    with pytest.raises(ValueError) as err:
        save_metrics(report, io.StringIO(), metrics=["qloss", "typo"])
    for name in MetricsReport.NAMES:
        assert name in str(err.value)


def test_metrics_parse_errors():
    with pytest.raises(ValueError, match="header"):
        load_metrics(io.StringIO("a,b,c\n"))
    header = "metric,location_or_pseudo_id,value\n"
    for body, fragment in [
        ("nope,,1.0\n", "nope"),
        ("qloss,\n", "line 2: expected 3 fields"),
        # the whitespace-only line is skipped, and the error names the line after it
        ("qloss,,1.0\n   \nqloss,\n", "line 4: expected 3 fields"),
        ("cond_err,x,1.0\n", "line 2: malformed numeric field"),
        ("qloss,,abc\n", "line 2: malformed numeric field"),
    ]:
        with pytest.raises(ValueError, match=fragment):
            load_metrics(io.StringIO(header + body))
    assert load_metrics(io.StringIO(header + "\n  \nqloss,,1.5\n")) == {"qloss": 1.5}


@pytest.mark.parametrize(
    "body, fragment",
    [
        ("qloss,,1\nqloss,0,2\n", "line 3: qloss already has a scalar value"),
        ("cond_err,0,1\ncond_err,,2\n", "line 3: cond_err already has per-id values"),
        ("qloss,,1\nqloss,,2\n", "line 3: qloss already has a value"),
        ("cond_err,0,1\ncond_err,1,2\ncond_err,0,3\n", "line 4: duplicate id 0 for cond_err"),
    ],
)
def test_metrics_mixed_or_repeated_rows_rejected(body, fragment):
    with pytest.raises(ValueError, match=fragment):
        load_metrics(io.StringIO("metric,location_or_pseudo_id,value\n" + body))


def test_repeated_metric_name_is_written_once(two_loc):
    dom, m = two_loc
    report = compute_metrics(dom, m)
    once, twice = io.StringIO(), io.StringIO()
    save_metrics(report, once, metrics=["qloss", "cond_err"])
    save_metrics(report, twice, metrics=["qloss", "cond_err", "qloss", "cond_err"])
    assert twice.getvalue() == once.getvalue()
    twice.seek(0)
    assert set(load_metrics(twice)) == {"qloss", "cond_err"}
