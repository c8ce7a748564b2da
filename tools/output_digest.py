"""One sha256 per group of locobf outputs, compared across checkouts.

    python tools/output_digest.py
    python tools/output_digest.py --tree parent=/path/to/other/checkout --tree change=.

Each tree is a source checkout (a directory holding src/locobf); the
default is the checkout this script lives in, labelled "current". Every
tree runs in its own interpreter with BLAS on one thread, through
bench_layers.run_in_tree, on the same fixed inputs:

- the 100-domain corpus of the acceptance tests (synth_domain(20 + i % 31,
  seed=4000 + i) with their mixed eps and em) and the 20 domains of
  criterion 7 (synth_domain(50, seed=3000 + i), eps=1, em=0.1): the
  walk, qk and personalized-qk partitions, each set's members, diam,
  mass, eps_region and the provenance;
- criterion 9's 40 clustered towns (test_acceptance._blob_inputs(50, i),
  budgets from assign_personal_eps(..., 0.5, 1.5, seed=i), eps=1,
  em=0.1, QkConfig(max_samp=5, seed=i)): the personalized qk partitions
  with and without the budget weight;
- the corpus again under QkConfig(max_samp=4, max_iter=2, seed=i): the
  qk partitions of a search cut off before its centers converge;
- release-large's three domains at seeds 0-2 (the wide one has a fixed
  seed, so it is hashed once) and one n = 3000 domain
  (synth_domain(3000, seed=3, grid_side=78)), whose attack table runs
  in six 512-column blocks under one BLAS thread, the last one 440
  wide, more blocks than a 2-core machine runs at once: the rows and meta arrays of both
  matrices (build_matrix on the walk, and build_matrix_constant at the
  largest set diameter) and every MetricsReport field of each;
- dispatch's domain at seeds 0-2 (synth_domain(1000, seed=[seed, 1],
  grid_side=40), walk partition at eps=1, em=0.1, build_matrix): from one
  rng, three worker_travel_distance scores (300 idle workers, 1000
  uniform tasks) around two bursts of 1,000 sample_pseudo ids, half of
  them from one heavy user, then the rng's next double;
- the README sweep (bench_layers.SWEEP_CONFIG) at config seeds 1-3, one
  run_sweep each: every result file's name and bytes. Its qk cells
  replay shared fills, which the one-shot searches above never do.

Prints one line per group with each tree's digest. With two or more
trees it exits 1 when any group differs between them.
"""

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

from bench_layers import ROOT, SWEEP_CONFIG, parse_trees, run_in_tree

# (label, n, grid side, eps, em, fixed synth seed or None): perfbench's release-large,
# then a domain whose attack table has more column blocks than workers
RELEASE = (
    ("dense", 2000, 56, 1.0, 0.1, None),
    ("large-em", 1500, 48, 1.0, 0.5, None),
    ("wide", 1500, 1024, 2.0, 0.05, 1),
    ("n3000", 3000, 78, 1.0, 0.1, 3),
)
RELEASE_SEEDS = (0, 1, 2)
# as perfbench's dispatch: n, grid side, eps, em, tasks, idle workers, draws per burst
DISPATCH = (1000, 40, 1.0, 0.1, 1000, 300, 1000)
SWEEP_SEEDS = (1, 2, 3)


def _feed(h, value):
    """Hash a value with its type, shape and exact bytes."""
    if isinstance(value, str):
        h.update(b"s" + value.encode() + b"\0")
    elif isinstance(value, (tuple, list)):
        h.update(b"t%d" % len(value))
        for item in value:
            _feed(h, item)
    else:
        arr = np.ascontiguousarray(value)
        h.update(f"a{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())


def _digest(*values):
    h = hashlib.sha256()
    for value in values:
        _feed(h, value)
    return h.hexdigest()


def _partition_values(part):
    return [part.provenance] + [
        (pls.members, pls.diam, pls.mass, pls.eps_region) for pls in part.plss
    ]


def _partition_groups(lb, name, cases, config_of):
    """Digests of the walk, qk and personalized-qk partitions of (domain, params) cases."""
    walk, qk, personal = [], [], []
    for i, (dom, params) in enumerate(cases):
        config = config_of(i)
        walk += _partition_values(lb.best_hilbert_partition(dom, params))
        qk += _partition_values(lb.qk_partition(dom, params, config))
        pdom = lb.assign_personal_eps(dom, 0.5, 1.5, seed=i)
        personal += _partition_values(lb.qk_partition(pdom, params, config, personalized=True))
    return {f"{name}/walk": _digest(walk), f"{name}/qk": _digest(qk),
            f"{name}/qk-personalized": _digest(personal)}


def _personal_groups(lb, name, towns, config_of):
    """Digests of the personalized qk partitions, with and without the budget weight."""
    weighted, unweighted = [], []
    for i, (dom, params) in enumerate(towns):
        pdom = lb.assign_personal_eps(dom, 0.5, 1.5, seed=i)
        weighted += _partition_values(
            lb.qk_partition(pdom, params, config_of(i), personalized=True))
        unweighted += _partition_values(
            lb.qk_partition(pdom, params, config_of(i), personalized=True, weighted=False))
    return {f"{name}/qk-personalized": _digest(weighted),
            f"{name}/qk-personalized-unweighted": _digest(unweighted)}


def _release_groups(lb, name, dom, eps, em):
    part = lb.best_hilbert_partition(dom, lb.PrivacyParams(eps, em))
    d_max = max(p.diam for p in part.plss)
    groups = {}
    for kind, matrix in (("per-set", lb.build_matrix(dom, part)),
                         ("baseline", lb.build_matrix_constant(dom, d_max, eps))):
        report = lb.compute_metrics(dom, matrix)
        groups[f"{name}/{kind}/rows"] = _digest(matrix.rows)
        groups[f"{name}/{kind}/meta"] = _digest(
            matrix.row_pls, matrix.row_sensitivity, matrix.row_eps)
        groups[f"{name}/{kind}/metrics"] = _digest(
            *(getattr(report, field) for field in lb.MetricsReport.NAMES))
    return groups


def _dispatch_values(lb, seed):
    """wtd scores and single-user draws from one matrix, so later calls read kept rows."""
    n, side, eps, em, task_count, idle, burst = DISPATCH
    dom = lb.synth_domain(n, seed=[seed, 1], grid_side=side)
    matrix = lb.build_matrix(dom, lb.best_hilbert_partition(dom, lb.PrivacyParams(eps, em)))
    inputs = np.random.default_rng([seed, 3])
    lo, hi = dom.positions.min(axis=0), dom.positions.max(axis=0)
    tasks = lo + inputs.uniform(size=(task_count, 2)) * (hi - lo)
    heavy = int(inputs.integers(n))
    rng = np.random.default_rng([seed, 5])
    values = [lb.worker_travel_distance(dom, matrix, tasks, idle, rng)]
    for _ in range(2):
        users = np.where(inputs.random(burst) < 0.5, heavy, inputs.integers(n, size=burst))
        values.append(np.array([lb.sample_pseudo(matrix, u, rng) for u in users.tolist()]))
        values.append(lb.worker_travel_distance(dom, matrix, tasks, idle, rng))
    values.append(rng.random())
    return values


def _sweep_files(lb, seed):
    """(name, bytes) of every file the README sweep writes at one config seed."""
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "sweep.cfg"
        config.write_text(SWEEP_CONFIG.format(seeds=seed, output_dir=Path(tmp) / "results"))
        out = lb.run_sweep(lb.parse_sweep_config(config))
        return [(path.name, np.frombuffer(path.read_bytes(), dtype=np.uint8))
                for path in sorted(out.iterdir())]


def run_digests():
    """Every group's digest, from the locobf on sys.path."""
    import locobf as lb

    corpus = []
    for i in range(100):
        params = lb.PrivacyParams((0.5, 1.0, 2.0)[i % 3], (0.05, 0.1, 0.2)[(i // 3) % 3])
        corpus.append((lb.synth_domain(20 + i % 31, seed=4000 + i), params))
    criterion7 = [(lb.synth_domain(50, seed=3000 + i), lb.PrivacyParams(1.0, 0.1))
                  for i in range(20)]
    groups = {}
    groups.update(_partition_groups(lb, "corpus", corpus,
                                    lambda i: lb.QkConfig(max_samp=2, seed=i)))
    groups.update(_partition_groups(lb, "criterion7", criterion7,
                                    lambda i: lb.QkConfig(max_samp=30, seed=i)))
    sys.path.insert(0, str(ROOT / "tests"))
    from test_acceptance import _blob_inputs

    towns = [(lb.LocationDomain(*_blob_inputs(50, i)), lb.PrivacyParams(1.0, 0.1))
             for i in range(40)]
    groups.update(_personal_groups(lb, "criterion9", towns,
                                   lambda i: lb.QkConfig(max_samp=5, seed=i)))
    cutoff = []
    for i, (dom, params) in enumerate(corpus):
        cutoff += _partition_values(
            lb.qk_partition(dom, params, lb.QkConfig(max_samp=4, max_iter=2, seed=i)))
    groups["corpus/qk-cutoff"] = _digest(cutoff)
    for k, (label, n, side, eps, em, fixed) in enumerate(RELEASE):
        for seed in (RELEASE_SEEDS if fixed is None else (None,)):
            dom = lb.synth_domain(n, seed=fixed if seed is None else [seed, k], grid_side=side)
            name = f"release/{label}" + ("" if seed is None else f"/seed{seed}")
            groups.update(_release_groups(lb, name, dom, eps, em))
    groups["dispatch"] = _digest([_dispatch_values(lb, seed) for seed in RELEASE_SEEDS])
    for seed in SWEEP_SEEDS:
        groups[f"sweep/seed{seed}"] = _digest(_sweep_files(lb, seed))
    return groups


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", action="append", default=[], metavar="LABEL=DIR",
                    help="a checkout to hash (repeatable); default current=<this checkout>")
    args = ap.parse_args(argv)
    trees = parse_trees(ap, args.tree)
    digests = {label: run_in_tree(root, "output_digest", "run_digests")
               for label, root in trees}
    differ = 0
    for group in next(iter(digests.values())):
        values = [digests[label].get(group) for label, _ in trees]
        same = len(set(values)) == 1
        differ += not same
        cells = "  ".join(f"{label}={(v or 'missing')[:16]}" for (label, _), v in zip(trees, values))
        print(f"{'equal ' if same else 'DIFFER'}  {group:40s}  {cells}")
    print(f"{differ} of {len(next(iter(digests.values())))} groups differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
