"""The block runner: when it runs blocks on threads, and that they change no float.

Under one BLAS thread the matrix builds and compute_metrics run their
blocks on one thread per core of the affinity mask, and the attack table
in 512-column blocks. The checks of that path run in a fresh interpreter
with the BLAS variables set to 1 before numpy loads, and force the
worker count through os.sched_getaffinity. Every output is compared bit
for bit with the whole-matrix copies in reference_impls.
"""

import os
import subprocess
import sys
import tracemalloc
import traceback
from pathlib import Path

import numpy as np
import pytest

import locobf.domain as domain_mod
from locobf import (
    ObfuscationMatrix,
    PrivacyParams,
    best_hilbert_partition,
    build_matrix,
    build_matrix_constant,
    compute_metrics,
    synth_domain,
)
from reference_impls import reference_compute_metrics, reference_exp_rows

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("setting", [
    {}, {"OPENBLAS_NUM_THREADS": "2"}, {"OMP_NUM_THREADS": "4"},
    {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, {"MKL_NUM_THREADS": ""},
])
def test_one_worker_unless_blas_is_pinned_to_one_thread(monkeypatch, setting):
    for var in BLAS_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in setting.items():
        monkeypatch.setenv(var, value)
    assert domain_mod._workers() == 1


@pytest.mark.parametrize("var", BLAS_VARS)
def test_every_affinity_core_works_under_one_blas_thread(monkeypatch, var):
    for other in BLAS_VARS:
        monkeypatch.delenv(other, raising=False)
    monkeypatch.setenv(var, "1")
    assert domain_mod._workers() == len(os.sched_getaffinity(0))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert domain_mod._workers() == 3


def test_spans_cover_with_no_short_remainder():
    assert domain_mod._spans(3000, 512) == [(lo, lo + 512) for lo in range(0, 2560, 512)] + [
        (2560, 3000)]
    assert domain_mod._spans(1025, 512) == [(0, 512), (512, 1025)]
    assert domain_mod._spans(768, 512) == [(0, 768)]
    assert domain_mod._spans(769, 512) == [(0, 512), (512, 769)]
    assert domain_mod._spans(50, 512) == [(0, 50)]
    assert domain_mod._spans(1, 1) == [(0, 1)]


def _domains():
    """(domain, eps, em): sizes around the 512-column blocks, and the wide domain."""
    for n in (511, 512, 513, 1025):
        side = max(16, int(np.ceil(np.sqrt(2 * n))))
        yield synth_domain(n, seed=[n, 9], grid_side=side), 1.0, 0.1
    yield synth_domain(1500, seed=1, grid_side=1024), 2.0, 0.05


def _force_workers(count):
    os.sched_getaffinity = lambda pid: set(range(count))
    assert domain_mod._workers() == count


def _child_checks():
    """The one-thread-BLAS checks, run by test_blocks_match_whole_products."""
    _force_workers(2)
    small = synth_domain(50, seed=[50, 9])
    part = best_hilbert_partition(small, PrivacyParams(1.0, 0.1))
    compute_metrics(small, build_matrix(small, part))
    assert "concurrent.futures" not in sys.modules  # one block each: all inline

    for dom, eps, em in _domains():
        part = best_hilbert_partition(dom, PrivacyParams(eps, em))
        d_max = max(p.diam for p in part.plss)
        groups = [(list(p.members), p.diam, p.eps_region) for p in part.plss]
        wants = [reference_exp_rows(dom, groups),
                 reference_exp_rows(dom, [(slice(None), d_max, eps)])]
        reports = [reference_compute_metrics(dom, rows) for rows in wants]
        for count in (1, 2, 3):
            _force_workers(count)
            built = (build_matrix(dom, part), build_matrix_constant(dom, d_max, eps))
            for matrix, want, report in zip(built, wants, reports):
                assert np.array_equal(matrix.rows, want), (dom.n, count)
                got = compute_metrics(dom, matrix)
                for field, value in zip(("exp_err", "qloss", "cond_err", "avg_err", "success"),
                                        report):
                    assert np.array_equal(getattr(got, field), value), (dom.n, count, field)

    _force_workers(2)
    n = 1000
    rows = np.full((n, n), 1.0 / (n - 1))
    rows[:, -1] = 0.0  # column 999 is in the second block
    dom = synth_domain(n, seed=5, grid_side=40)
    try:
        compute_metrics(dom, ObfuscationMatrix(rows))
    except ValueError as exc:
        assert str(exc) == "some pseudo-location is never reported; posterior undefined"
        frames = traceback.extract_tb(exc.__traceback__)
        files = [Path(frame.filename).parts[-3:] for frame in frames]
        assert ("concurrent", "futures", "thread.py") in files  # raised in a worker
    else:
        raise AssertionError("a never-reported column must raise")

    matrix = build_matrix_constant(dom, 5.0, 1.0)
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    compute_metrics(dom, matrix)
    peak = tracemalloc.get_traced_memory()[1] - before
    tracemalloc.stop()
    assert peak <= 2.1 * n * n * 8, peak / (n * n * 8)


def test_blocks_match_whole_products():
    tests = Path(__file__).resolve().parent
    src = Path(domain_mod.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, (src, tests))))
    env.update({var: "1" for var in BLAS_VARS})
    proc = subprocess.run([sys.executable, "-c", "import test_blocks; test_blocks._child_checks()"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
