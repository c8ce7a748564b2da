"""A sweep's jobs on a process pool: the same bytes and errors as inline.

Under one BLAS thread run_sweep runs its jobs (per seed, the walk cells
and each qk algorithm's cells) on one forked process per core of the
affinity mask. The checks run in a fresh interpreter with the BLAS
variables set to 1 before numpy loads, and force the worker count
through os.sched_getaffinity, as test_blocks does.
"""

import contextlib
import io
import os
import subprocess
import sys
import threading
from multiprocessing.reduction import ForkingPickler
from pathlib import Path
from tempfile import TemporaryDirectory

import numpy as np

import locobf.domain as domain_mod
import locobf.experiment as experiment
from locobf import (
    LocationDomain,
    SweepConfig,
    build_matrix_constant,
    compute_metrics,
    run_sweep,
    synth_domain,
)
from locobf.cli import main
from test_blocks import BLAS_VARS, _force_workers

# sweep errors on 12 locations up to 1e200 km apart, by the config's algorithms
FAR_ERRORS = {
    "qk, hilbert": ("error: a span of 1.86467e+200 km is too wide for the qk fill: "
                    "its squared distances overflow float64\n"),
    "hilbert, qk": "error: a span of 1.86467e+200 km needs a grid order above 31\n",
}
# sweep errors on synth:n=16,cell_km=1e307, whose distances overflow at seed 2, not at 0
SYNTH_ERRORS = {
    "0, 2": ("error: a span of 1.5e+308 km is too wide for the qk fill: "
             "its squared distances overflow float64\n"),
    "2, 0": "error: pairwise distances overflow float64; coordinates are too far apart\n",
}


def _no_child_left():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _files(directory):
    return {path.name: path.read_bytes() for path in sorted(Path(directory).iterdir())}


def _run_main(argv):
    """(exit code, stdout, stderr) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _child_checks(tmp):
    """The pooled-sweep checks, run by test_sweep_jobs_run_on_forked_workers."""
    import test_cli_bytes

    tmp = Path(tmp)

    def refuse(domain):
        raise TypeError("a domain crossed a process boundary")

    ForkingPickler.register(LocationDomain, refuse)  # workers inherit domains through fork
    pids = tmp / "pids"
    real_cell = experiment._run_cell

    def logged_cell(*args):
        with open(pids, "a") as fh:
            fh.write(f"{os.getpid()},{domain_mod._workers()}\n")
        return real_cell(*args)

    experiment._run_cell = logged_cell
    threads_at_fork = []
    real_fork = os.fork

    def fork():
        threads_at_fork.append(threading.active_count())
        return real_fork()

    os.fork = fork

    # a live block pool first: the sweep must stop its threads before it forks
    _force_workers(2)
    dom = synth_domain(1025, seed=3, grid_side=46)
    compute_metrics(dom, build_matrix_constant(dom, 5.0, 1.0))
    assert domain_mod._pool is not None and threading.active_count() > 1
    assert "concurrent.futures.process" not in sys.modules  # imported when a pool is made

    # every pinned CLI command, the sweep through the pool
    (tmp / "cli").mkdir()
    out, err = io.StringIO(), io.StringIO()

    def capture():
        captured = out.getvalue(), err.getvalue()
        for stream in (out, err):
            stream.seek(0)
            stream.truncate()
        return captured

    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert test_cli_bytes.run_all(tmp / "cli", capture) == test_cli_bytes.EXPECTED
    assert threads_at_fork == [1, 1], threads_at_fork
    assert domain_mod._pool is None
    assert _no_child_left()
    cells = [line.split(",") for line in pids.read_text().split()]
    assert cells and all(pid != str(os.getpid()) and workers == "1" for pid, workers in cells)

    # the same directory from two workers and from one, the algorithms interleaved
    config = SweepConfig(
        dataset="synth:n=30", eps_values=(1.0, 0.5, 2.0), em_values=(0.05, 0.1, 5.0),
        algorithms=("qk-personalized", "hilbert", "qk", "em-baseline"), seeds=(4, 1),
        output_dir=str(tmp / "unused"),
    )
    outputs = {}
    for count in (2, 1):
        _force_workers(count)
        outputs[count] = _files(run_sweep(config, tmp / f"sweep{count}"))
        assert _no_child_left()
    assert outputs[2] == outputs[1]
    assert any(b",NA\n" in data for data in outputs[2].values())

    # a job that raises in a worker exits as it does inline. Both jobs raise
    # here, and the error is the one of the first cell in config order; a
    # seed's domain that cannot be built raises after the seeds before it
    positions = np.random.default_rng(0).uniform(-1e200, 1e200, size=(12, 2))
    far = tmp / "far.csv"
    far.write_text("id,x_km,y_km,prior\n" + "".join(
        f"{i},{x!r},{y!r},1\n" for i, (x, y) in enumerate(positions.tolist())))
    for algorithms, message in FAR_ERRORS.items():
        cfg = tmp / "far.cfg"
        cfg.write_text(f"dataset = {far}\neps_values = 1\nem_values = 0.1\n"
                       f"algorithms = {algorithms}\nseeds = 1, 2\noutput_dir = {tmp / 'far'}\n")
        for count in (2, 1):
            _force_workers(count)
            assert _run_main(["sweep", "--config", str(cfg)]) == (3, "", message), count
            assert _no_child_left()
    for seeds, message in SYNTH_ERRORS.items():
        cfg = tmp / "huge.cfg"
        cfg.write_text(f"dataset = synth:n=16,cell_km=1e307\neps_values = 1\nem_values = 0.1\n"
                       f"algorithms = qk, qk-personalized\nseeds = {seeds}\n"
                       f"output_dir = {tmp / 'far'}\n")
        for count in (2, 1):
            _force_workers(count)
            assert _run_main(["sweep", "--config", str(cfg)]) == (3, "", message), count
            assert _no_child_left()
    assert not (tmp / "far").exists()


def test_sweep_jobs_run_on_forked_workers():
    tests = Path(__file__).resolve().parent
    src = Path(domain_mod.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, (src, tests))))
    env.update({var: "1" for var in BLAS_VARS})
    with TemporaryDirectory() as tmp:
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, test_sweep_pool; "
             "test_sweep_pool._child_checks(sys.argv[1])", tmp],
            capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_one_worker_runs_the_jobs_inline(tmp_path, monkeypatch):
    """With one worker no pool is made and the cells run in this process."""
    for var in BLAS_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    pids = []
    real_cell = experiment._run_cell
    monkeypatch.setattr(experiment, "_run_cell",
                        lambda *args: pids.append(os.getpid()) or real_cell(*args))
    config = SweepConfig("synth:n=16", (1.0,), (0.05,), ("hilbert", "qk"), (1, 2),
                         str(tmp_path / "out"))
    run_sweep(config)
    assert pids == [os.getpid()] * 4
