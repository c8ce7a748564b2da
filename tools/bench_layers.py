"""Per-layer wall time and tracemalloc peak of the release path, as JSON.

    python tools/bench_layers.py --out BENCH.json
    python tools/bench_layers.py --out BENCH.json --tree parent=/path/to/other/checkout

Each tree is a source checkout (a directory holding src/locobf); the
default is the checkout this script lives in, labelled "current". The
run is split into steps, one per size and a last one for the sweep
layer; every step runs each tree twice, each time in a fresh
interpreter with BLAS on one thread: all trees once, then all again in
the same order (A B A B), each step starting one tree later than the
step before (B A B A next). A CPU that slows for a while inside a step
then slows the trees' runs in turn rather than two runs of one tree in
a row, and no tree always runs first. Each tree keeps both runs under
"runs", and its "layers" holds, per layer and size, the entry of the
run with the lower wall_s, whose "run" field says which (0 or 1). The
file's meta records blas_threads and affinity_cores, the cores in the
affinity mask that a one-thread-BLAS package may run its release-path
blocks on (taskset limits them). The inputs are fixed:
for n = 50, 200, 400, 1000 and 3000, synth_domain(n, seed=[n, 0],
grid_side=max(16, ceil(sqrt(2 n)))), partitioned by best_hilbert_partition at eps=1, em=0.1. The layers are
synth_domain, best_hilbert_partition, build_matrix,
build_matrix_constant (at the largest set diameter), compute_metrics
(on the build_matrix matrix), sample_pseudo (single-user draws, seed
[n, 1]) and worker_travel_distance (five rounds of min(300, n) idle workers and 1000 tasks uniform over the
domain's bounding box, seeds [n, 2] and [n, 3, round]). Both draw layers
reuse one matrix across the timed calls, as a server does, so after the
first call they read row CDFs the matrix already keeps. For n = 50, 200
and 400 the qk_partition layer runs the default QkConfig() search on the
same domain at the same eps and em, uniform and (as
qk_partition/personalized) on budgets from assign_personal_eps(..., 0.5,
1.5, seed=n); besides its time and peak it counts the fills of one
search and the assign_round calls that made them (the lockstep steps,
where restarts are filled together). The sweep layer is end to end:
run_sweep on the README's sweep config at config seed 1 (n = 50, eps
0.5/1/2, em 0.05/0.1, all four algorithms), the input of perfbench's
readme-sweep, its jobs on one process per affinity core. sweep/serial
runs the same sweep with the worker count held at one, all jobs in the
measuring process, and counts the fills over the whole sweep: calls
made in worker processes would not reach the counter. The pooled
layer's peak_mib is the measuring process's alone.

A layer's wall_s is the median of its untraced calls: at least five,
and more until they add up to half a second, so fast layers at small n
are not judged on a handful of calls. calls counts them and wall_iqr_s
is their interquartile range (statistics.quantiles, n=4). Its peak_mib
is the tracemalloc peak of one more, traced call, and peak_n2 the same
peak in units of one n x n float64 array.
"""

import argparse
import contextlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = (50, 200, 400, 1000, 3000)
QK_SIZES = (50, 200, 400)
EPS, EM = 1.0, 0.1
DRAWS = 2000  # single-user sample_pseudo calls per timed run
WTD_TASKS, WTD_IDLE, WTD_ROUNDS = 1000, 300, 5  # worker_travel_distance rounds per timed run
MIN_CALLS, MIN_WALL_S = 5, 0.5  # untraced calls per layer: at least this many and this long
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SWEEP_N = 50  # the README sweep's domain size
SWEEP_CONFIG = """\
dataset     = synth:n=50,grid_side=16
eps_values  = 0.5, 1.0, 2.0
em_values   = 0.05, 0.1
algorithms  = hilbert, qk, qk-personalized, em-baseline
seeds       = {seeds}
output_dir  = {output_dir}
"""
SWEEP_SEED = 1  # the config seed of the sweep layer


def _measure(fn):
    """(untraced wall time entries, traced peak bytes, result)."""
    times = []
    while len(times) < MIN_CALLS or sum(times) < MIN_WALL_S:
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    q1, _, q3 = statistics.quantiles(times, n=4)
    wall = {"wall_s": statistics.median(times), "wall_iqr_s": q3 - q1, "calls": len(times)}
    return wall, peak, result


def run_layers(n):
    """Every layer at size n, or the sweep layer for n = "sweep", from the
    locobf on sys.path."""
    import numpy as np

    import locobf as lb

    layers = {}

    def record(layer, n, fn, extra=None):
        entry, peak, result = _measure(fn)
        entry.update(peak_mib=peak / 2**20, peak_n2=peak / (8 * n * n))
        entry.update(extra(entry["wall_s"]) if extra else {})
        layers.setdefault(layer, {})[str(n)] = entry
        return result

    if n == "sweep":
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "sweep.cfg"
            config.write_text(SWEEP_CONFIG.format(seeds=SWEEP_SEED,
                                                  output_dir=Path(tmp) / "results"))

            def sweep():
                return lb.run_sweep(lb.parse_sweep_config(config))

            record("sweep", SWEEP_N, sweep)
            with _one_worker():
                record("sweep/serial", SWEEP_N, sweep, lambda wall: _count_fills(sweep))
        return layers
    side = max(16, math.ceil(math.sqrt(2 * n)))
    dom = record("synth_domain", n, lambda: lb.synth_domain(n, seed=[n, 0], grid_side=side))
    part = record("best_hilbert_partition", n,
                  lambda: lb.best_hilbert_partition(dom, lb.PrivacyParams(EPS, EM)))
    matrix = record("build_matrix", n, lambda: lb.build_matrix(dom, part))
    d_max = max(p.diam for p in part.plss)
    record("build_matrix_constant", n, lambda: lb.build_matrix_constant(dom, d_max, EPS))
    record("compute_metrics", n, lambda: lb.compute_metrics(dom, matrix))

    def draws():
        rng = np.random.default_rng([n, 1])
        users = rng.integers(n, size=DRAWS).tolist()
        return [lb.sample_pseudo(matrix, u, rng) for u in users]

    record("sample_pseudo", n, draws,
           lambda wall: {"draws": DRAWS, "draws_per_s": DRAWS / wall})
    lo, hi = dom.positions.min(axis=0), dom.positions.max(axis=0)
    tasks = lo + np.random.default_rng([n, 2]).uniform(size=(WTD_TASKS, 2)) * (hi - lo)
    idle = min(WTD_IDLE, n)

    def wtd_rounds():
        return [lb.worker_travel_distance(dom, matrix, tasks, idle,
                                          np.random.default_rng([n, 3, r]))
                for r in range(WTD_ROUNDS)]

    record("worker_travel_distance", n, wtd_rounds,
           lambda wall: {"rounds": WTD_ROUNDS, "idle": idle, "tasks": WTD_TASKS,
                         "round_s": wall / WTD_ROUNDS})
    if n not in QK_SIZES:
        return layers
    pdom = lb.assign_personal_eps(dom, 0.5, 1.5, seed=n)
    for layer, qk_dom, personalized in (("qk_partition", dom, False),
                                        ("qk_partition/personalized", pdom, True)):
        def search():
            return lb.qk_partition(qk_dom, lb.PrivacyParams(EPS, EM), lb.QkConfig(),
                                   personalized=personalized)

        record(layer, n, search, lambda wall: _count_fills(search))
    return layers


@contextlib.contextmanager
def _one_worker():
    """The package's worker count held at one: it counts the cores of the
    affinity mask (see locobf.domain._workers)."""
    real = os.sched_getaffinity
    os.sched_getaffinity = lambda pid: set(sorted(real(pid))[:1])
    try:
        yield
    finally:
        os.sched_getaffinity = real


def _count_fills(search):
    """Fills and assign_round calls of one more search() call."""
    import locobf.qkmeans as qkmeans

    real = qkmeans.assign_round
    counts = {"fills": 0, "lockstep_steps": 0}

    def counting(domain, centers, *args, **kwargs):
        counts["lockstep_steps"] += 1
        counts["fills"] += 1 if centers.ndim == 2 else len(centers)
        return real(domain, centers, *args, **kwargs)

    qkmeans.assign_round = counting
    try:
        search()
    finally:
        qkmeans.assign_round = real
    return counts


def run_in_tree(root, module, function, *args):
    """module.function(*args) from this directory, as JSON, in a fresh
    one-thread interpreter importing locobf from the tree's src/; args
    travel as JSON."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.update({var: "1" for var in BLAS_VARS})
    code = ("import importlib, json, sys; sys.path.insert(0, sys.argv[1]); "
            "fn = getattr(importlib.import_module(sys.argv[2]), sys.argv[3]); "
            "print(json.dumps(fn(*json.loads(sys.argv[4]))))")
    proc = subprocess.run([sys.executable, "-c", code, str(Path(__file__).resolve().parent),
                           module, function, json.dumps(args)],
                          env=env, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout)


def parse_trees(ap, specs):
    """(label, resolved root) per --tree LABEL=DIR; default current=<this checkout>."""
    trees = [spec.split("=", 1) for spec in specs] or [["current", str(ROOT)]]
    if any(len(t) != 2 for t in trees):
        ap.error("--tree takes LABEL=DIR")
    return [(label, Path(directory).resolve()) for label, directory in trees]


def _commit(root):
    """HEAD of root ("-dirty" when modified) for a git checkout, else None."""
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "-C", str(root), "describe", "--always", "--dirty", "--abbrev=40"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    return proc.stdout.strip() or None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--tree", action="append", default=[], metavar="LABEL=DIR",
                    help="a checkout to measure (repeatable); default current=<this checkout>")
    args = ap.parse_args(argv)
    trees = parse_trees(ap, args.tree)
    import numpy as np

    report = {
        "sizes": SIZES,
        "inputs": "synth_domain(n, seed=[n, 0], grid_side=max(16, ceil(sqrt(2n)))); "
                  f"eps={EPS}, em={EM}; sample_pseudo seed [n, 1]; worker_travel_distance "
                  f"{WTD_ROUNDS} rounds, idle min({WTD_IDLE}, n), {WTD_TASKS} tasks, "
                  "seeds [n, 2] and [n, 3, round]; qk_partition at n in "
                  f"{QK_SIZES} with QkConfig(), personalized budgets U[0.5, 1.5] seed n; "
                  "sweep: the README sweep config at config seed 1",
        "calls": f"untraced calls per layer: at least {MIN_CALLS} and {MIN_WALL_S} s",
        "blas_threads": 1,
        "affinity_cores": len(os.sched_getaffinity(0)),
        "tree_order": "one interpreter per tree and run of each step (each size, then the "
                      "sweep); each step runs all trees twice in one order (A B A B), and "
                      "step i starts from tree i mod the tree count (B A B A after A B A B); "
                      "layers keeps each tree's run with the lower wall_s",
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__, "platform": platform.platform()},
        "trees": {},
    }
    for label, root in trees:
        report["trees"][label] = {"commit": _commit(root), "layers": {}, "runs": [{}, {}]}
    for step, n in enumerate([*SIZES, "sweep"]):
        order = trees[step % len(trees):] + trees[:step % len(trees)]
        for run in (0, 1):
            for label, root in order:
                layers = report["trees"][label]["runs"][run]
                for layer, by_n in run_in_tree(root, "bench_layers", "run_layers", n).items():
                    layers.setdefault(layer, {}).update(by_n)
    for tree in report["trees"].values():
        for run, layers in enumerate(tree["runs"]):
            for layer, by_n in layers.items():
                best = tree["layers"].setdefault(layer, {})
                for n, entry in by_n.items():
                    if n not in best or entry["wall_s"] < best[n]["wall_s"]:
                        best[n] = dict(entry, run=run)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")


if __name__ == "__main__":
    main()
