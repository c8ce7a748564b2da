"""Array-built domains and array curve orderings equal the record-based originals.

Each builder, and the curve ordering at every rotation, is checked bit
for bit against the record-based copies in reference_impls, on the
domains the acceptance criteria and the release-large benchmark use. A
personalized copy must hold its source's own arrays and the reference's
budgets.
"""

import io

import numpy as np
import pytest

from locobf import (
    ROTATIONS,
    LocationDomain,
    assign_personal_eps,
    load_domain,
    order_domain,
    synth_domain,
)
from reference_impls import (
    ReferenceDomain,
    ReferenceLocation,
    reference_assign_personal_eps,
    reference_order_ids,
    reference_synth_domain,
)
from test_acceptance import _blob_inputs


def _assert_same(got, want):
    for field in ("positions", "priors", "distances", "personal_eps"):
        a, b = getattr(got, field), getattr(want, field)
        if b is None:
            assert a is None, field
        else:
            assert a.dtype == b.dtype and a.shape == b.shape, field
            assert a.tobytes() == b.tobytes(), field  # bit equality, signed zeros included
    for rotation in ROTATIONS:
        for order in (None, 2):  # order 2 packs many locations per cell: ties go by id
            assert list(order_domain(got, order, rotation).ids) == \
                reference_order_ids(want, order, rotation)


def _assert_budgets_added(got, source, want):
    for field in ("positions", "priors", "distances"):
        assert getattr(got, field) is getattr(source, field), field
    assert got.personal_eps.dtype == want.personal_eps.dtype
    assert got.personal_eps.tobytes() == want.personal_eps.tobytes()
    assert not got.personal_eps.flags.writeable


def _synth_pair(n, seed, **kwargs):
    return synth_domain(n, seed=seed, **kwargs), reference_synth_domain(n, seed=seed, **kwargs)


def test_acceptance_corpus_domains_match():
    """The 100-domain corpus, each with the budgets its qk cases draw."""
    for i in range(100):
        dom, ref = _synth_pair(20 + (i % 31), 4000 + i)
        _assert_same(dom, ref)
        _assert_budgets_added(assign_personal_eps(dom, 0.5, 1.5, seed=i), dom,
                              reference_assign_personal_eps(ref, 0.5, 1.5, seed=i))


def test_experiment_domains_match():
    """Criterion 7's synthetic domains and criterion 9's clustered towns with budgets."""
    for i in range(20):
        _assert_same(*_synth_pair(50, 3000 + i))
    for i in range(40):
        positions, priors = _blob_inputs(50, i)
        dom = LocationDomain(positions, priors)
        ref = ReferenceDomain([
            ReferenceLocation(j, pos, float(priors[j])) for j, pos in enumerate(positions)
        ])
        _assert_same(dom, ref)
        _assert_budgets_added(assign_personal_eps(dom, 0.5, 1.5, seed=i), dom,
                              reference_assign_personal_eps(ref, 0.5, 1.5, seed=i))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_release_large_domains_match(seed):
    _assert_same(*_synth_pair(2000, [seed, 0], grid_side=56))
    _assert_same(*_synth_pair(1500, [seed, 1], grid_side=48))
    if seed == 1:  # the wide instance's seed is fixed
        _assert_same(*_synth_pair(1500, 1, grid_side=1024))


def test_loaded_shuffled_ids_match():
    rng = np.random.default_rng(17)
    n = 40
    xy = rng.uniform(-5.0, 5.0, size=(n, 2)).tolist()
    mass = rng.uniform(0.0, 3.0, size=n).tolist()
    eps = rng.uniform(0.2, 2.0, size=n).tolist()
    lines = ["id,x_km,y_km,prior,eps"]
    for i in rng.permutation(n).tolist():
        lines.append(f"{i},{xy[i][0]!r},{xy[i][1]!r},{mass[i]!r},{eps[i]!r}")
    got = load_domain(io.StringIO("\n".join(lines) + "\n"))
    want = ReferenceDomain(
        [ReferenceLocation(i, tuple(xy[i]), mass[i], eps[i]) for i in rng.permutation(n).tolist()]
    )
    _assert_same(got, want)
