"""locobf benchmark: one workload per process, closed loop, checked outputs.

    python3 perfbench/run.py --workload release-large --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from any directory; the package is imported from the src/ tree next
to this directory, never from an installed copy. The last line of
standard output is one JSON object with correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics
(plus the tracing overhead) with --trace 1. Exit code 0 means the
outputs passed every check, 1 that a check failed, 2 that the package
could not be imported.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = "1"  # one thread keeps runs steady on a shared 2-core machine
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
NAMES = ("release-large", "readme-sweep", "dispatch")
SETUP_REPEATS = 5


IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import numpy, locobf, locobf.cli; "
                "print(time.perf_counter() - t0)")


def import_package():
    """Import locobf from ROOT/src; returns (module, median import seconds).

    The import is timed in SETUP_REPEATS fresh interpreters, since a
    module is imported only once per process.
    """
    src = ROOT / "src"
    if not (src / "locobf" / "__init__.py").is_file():
        raise ImportError(f"no locobf package under {src}")
    sys.path.insert(0, str(src))
    import locobf
    import locobf.cli  # noqa: F401
    if Path(locobf.__file__).resolve().parent != (src / "locobf").resolve():
        raise ImportError(f"locobf imported from {locobf.__file__}, not {src}")
    env = dict(os.environ, PYTHONPATH=str(src))
    times = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                               stdout=subprocess.PIPE, text=True)
        times.append(float(probe.stdout))
    return locobf, statistics.median(times)


def timed_setup(workload, tracer):
    with tracer.span("bench.setup"):
        t0 = time.perf_counter()
        workload.setup()
        elapsed = time.perf_counter() - t0
    with tracer.paused():
        workload.prepare_checks()
    return elapsed


def measure(workload, seconds, tracer, first_index):
    """Whole rounds until `seconds` of wall time have passed (at least one)."""
    times, attempted, failed = [], 0, 0
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        tracer.round = first_index + len(times)
        with tracer.span("bench.round"):
            op_s, a, f = workload.run_round(tracer.round, tracer)
        times.append(op_s)
        attempted += a
        failed += f
    return times, attempted, failed


def run_workload(args):
    lb, import_s = import_package()
    from tracing import NullTracer, Tracer
    from workloads import WORKLOADS

    out_dir = ROOT / ".bench_out" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](lb, args.seed, out_dir)
    null = NullTracer()
    setups = [timed_setup(workload, null) for _ in range(SETUP_REPEATS)]
    times, attempted, failed = measure(workload, args.seconds, null, 0)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            timed_setup(workload, tracer)
            traced, a, f = measure(workload, args.seconds, tracer, len(times))
        finally:
            tracer.uninstall()
        attempted += a
        failed += f
        tracer.write(out_dir / "spans.tsv")

    lines = workload.finish(len(times))
    wad_km, qloss_km = workload.wad_qloss()
    op_s = statistics.median(times)
    print(f"workload={args.workload} seed={args.seed} rounds={len(times)} "
          f"attempted={attempted} failed={failed}")
    if workload.alias:
        print(f"{workload.alias}={op_s!r} s (median of {len(times)} rounds)")
    for line in lines:
        print(line)
    if args.trace:
        overhead = statistics.median(traced) - op_s
        metrics = tracer.layer_metrics(len(traced))
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.overhead_pct"] = (100.0 * overhead / op_s, "%")
        if tracer.missing:
            print(f"not traced (not found in locobf): {', '.join(tracer.missing)}")
        print(f"spans written to {out_dir / 'spans.tsv'}")
    else:
        metrics = {
            "setup_s": (import_s + statistics.median(setups), "s"),
            "round_s": (op_s, "s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
            "wad_km": (wad_km, "km"),
            "qloss_km": (qloss_km, "km"),
        }
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value!r} {unit}")
    for problem in workload.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = not workload.problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args):
    """Each workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 2
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        code = max(code, proc.returncode)
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged))
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    # before numpy loads, and inherited by the import probes and per-workload processes
    os.environ.update({var: BLAS_THREADS for var in BLAS_VARS})
    if args.workload == "all":
        return run_all(args)
    try:
        return run_workload(args)
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
