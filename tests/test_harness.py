import io
import math
import os
import subprocess
import sys
import traceback
from pathlib import Path

import numpy as np
import pytest

from locobf import (
    InfeasibleParamsError,
    LocationDomain,
    ObfuscationMatrix,
    PrivacyParams,
    SweepConfig,
    aggregate_cells,
    build_matrix_constant,
    load_domain,
    load_matrix_rows,
    load_metrics,
    load_partition,
    parse_sweep_config,
    qk_partition,
    run_sweep,
    save_domain,
    synth_domain,
    worker_travel_distance,
)
from locobf.cli import main
from locobf.experiment import (
    ALGORITHMS,
    SWEEP_METRICS,
    _parse_synth_spec,
    _walk,
    run_partition,
    run_wtd,
)


@pytest.fixture
def line6_file(tmp_path, line6):
    path = tmp_path / "line6.csv"
    save_domain(line6, path)
    return str(path)


def test_synth_writes_a_loadable_dataset(tmp_path):
    out = tmp_path / "dom.csv"
    assert main(["synth", "--n", "20", "--seed", "4", "--out", str(out)]) == 0
    dom = load_domain(str(out))
    assert dom.n == 20
    assert dom.personal_eps is None


def test_synth_eps_range(tmp_path):
    out = tmp_path / "dom.csv"
    code = main([
        "synth", "--n", "15", "--seed", "4", "--eps-range", "0.5,1.5",
        "--out", str(out),
    ])
    assert code == 0
    dom = load_domain(str(out))
    assert dom.personal_eps is not None
    assert (dom.personal_eps >= 0.5).all() and (dom.personal_eps <= 1.5).all()


def test_synth_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["synth", "--n", "20", "--seed", "4", "--eps-range", "0.5,1.5"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_synth_rejects_overfull_grid(tmp_path, capsys):
    code = main(["synth", "--n", "300", "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert "error" in capsys.readouterr().err


def test_partition_command(tmp_path, line6, line6_file, capsys):
    out = tmp_path / "part.csv"
    code = main([
        "partition", "--dataset", line6_file, "--eps", "0.1", "--em", "0.4",
        "--out", str(out),
    ])
    assert code == 0
    assert "k=3" in capsys.readouterr().out
    part = load_partition(line6, str(out))
    assert sorted(p.members for p in part.plss) == [(0, 1), (2, 3), (4, 5)]


def test_partition_command_qk_deterministic(tmp_path, line6_file):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = [
        "partition", "--dataset", line6_file, "--algorithm", "qk",
        "--eps", "0.1", "--em", "0.4", "--seed", "7",
    ]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_partition_infeasible_params(line6_file, capsys):
    code = main([
        "partition", "--dataset", line6_file, "--eps", "1.0", "--em", "10.0",
    ])
    assert code == 2
    assert "infeasible" in capsys.readouterr().err


def test_partition_rejects_baseline(tmp_path, line6, line6_file, capsys):
    # a usage error, checked before the dataset is read
    for dataset in (line6_file, str(tmp_path / "missing.csv")):
        code = main([
            "partition", "--dataset", dataset, "--algorithm", "em-baseline",
            "--eps", "1.0", "--em", "0.1",
        ])
        assert code == 1
        assert "usage error" in capsys.readouterr().err
    with pytest.raises(ValueError, match="does not produce a partition"):
        run_partition(line6, "em-baseline", PrivacyParams(1.0, 0.1), 0)


def test_evaluate_command(tmp_path, line6_file):
    part = tmp_path / "part.csv"
    main(["partition", "--dataset", line6_file, "--eps", "0.1", "--em", "0.4",
          "--out", str(part)])
    metrics_out = tmp_path / "metrics.csv"
    matrix_out = tmp_path / "matrix.csv"
    code = main([
        "evaluate", "--dataset", line6_file, "--partition", str(part),
        "--matrix-out", str(matrix_out), "--out", str(metrics_out),
    ])
    assert code == 0
    loaded = load_metrics(str(metrics_out))
    assert set(loaded) == {"exp_err", "qloss", "cond_err", "avg_err", "success"}
    assert min(loaded["cond_err"].values()) >= 0.4
    rows = load_matrix_rows(str(matrix_out))
    assert rows.shape == (6, 6)
    assert rows.sum(axis=1) == pytest.approx(np.ones(6), abs=1e-9)


def test_evaluate_metric_subset(tmp_path, line6_file):
    part = tmp_path / "part.csv"
    main(["partition", "--dataset", line6_file, "--eps", "0.1", "--em", "0.4",
          "--out", str(part)])
    out = tmp_path / "metrics.csv"
    code = main([
        "evaluate", "--dataset", line6_file, "--partition", str(part),
        "--metrics", "qloss,exp_err", "--out", str(out),
    ])
    assert code == 0
    assert set(load_metrics(str(out))) == {"qloss", "exp_err"}


def test_evaluate_unknown_metric(tmp_path, line6_file, capsys):
    part = tmp_path / "part.csv"
    main(["partition", "--dataset", line6_file, "--eps", "0.1", "--em", "0.4",
          "--out", str(part)])
    code = main([
        "evaluate", "--dataset", line6_file, "--partition", str(part),
        "--metrics", "qloss,entropy",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "entropy" in err and "cond_err" in err


def test_evaluate_partition_dataset_mismatch(tmp_path, line6_file, capsys):
    part = tmp_path / "part.csv"
    main(["partition", "--dataset", line6_file, "--eps", "0.1", "--em", "0.4",
          "--out", str(part)])
    other = tmp_path / "other.csv"
    main(["synth", "--n", "6", "--seed", "9", "--out", str(other)])
    code = main([
        "evaluate", "--dataset", str(other), "--partition", str(part),
    ])
    assert code == 3
    assert "does not match" in capsys.readouterr().err


def test_parse_sweep_config():
    text = """
    # comment line
    dataset = synth:n=16
    eps_values = 0.5, 1.0
    em_values = 0.05
    algorithms = hilbert, qk
    seeds = 1,2,3
    output_dir = out
    """
    config = parse_sweep_config(io.StringIO(text))
    assert config.eps_values == (0.5, 1.0)
    assert config.em_values == (0.05,)
    assert config.algorithms == ("hilbert", "qk")
    assert config.seeds == (1, 2, 3)


_SWEEP_BASE = (
    "dataset = synth:n=16\neps_values = 0.5\nem_values = 0.05\n"
    "algorithms = hilbert\nseeds = 1\noutput_dir = out\n"
)


@pytest.mark.parametrize(
    "text, fragment",
    [
        (_SWEEP_BASE + "dataset = twice\n", "duplicate"),
        (_SWEEP_BASE.replace("seeds = 1\n", ""), "missing config keys"),
        (_SWEEP_BASE + "surprise = 1\n", "unknown config keys"),
        (
            _SWEEP_BASE.replace("= hilbert", "= hilbert, voronoi"),
            "unknown algorithm",
        ),
        (_SWEEP_BASE.replace("eps_values = 0.5", "eps_values = a,b"),
         "could not convert"),
        (_SWEEP_BASE + "no equals sign\n", "expected key = value"),
        (_SWEEP_BASE.replace("eps_values = 0.5", "eps_values = 1, x"),
         "line 2: eps_values: could not convert"),
        (_SWEEP_BASE.replace("seeds = 1", "seeds = 1, 2.5"), "line 5: seeds: invalid literal"),
        (_SWEEP_BASE.replace("synth:n=16", "synth:n=abc"), "line 1: dataset: invalid literal"),
        (_SWEEP_BASE.replace("synth:n=16", "synth:n=16,shape=disc"),
         "line 1: dataset: unknown synth"),
        (_SWEEP_BASE.replace("eps_values = 0.5", "eps_values = 1.0, 1.0"),
         "line 2: eps_values: repeated value"),
        (_SWEEP_BASE.replace("eps_values = 0.5", "eps_values = 1, 0.5, 1.0"),
         "line 2: eps_values: repeated value"),
        (_SWEEP_BASE.replace("em_values = 0.05", "em_values = 0.05, 5e-2"),
         "line 3: em_values: repeated value"),
        (_SWEEP_BASE.replace("= hilbert", "= hilbert, qk,hilbert"),
         "line 4: algorithms: repeated value"),
        (_SWEEP_BASE.replace("seeds = 1", "seeds = 3, 3"), "line 5: seeds: repeated value"),
        (_SWEEP_BASE.replace("eps_values = 0.5", "eps_values = 1, 710"),
         r"line 2: eps_values: value 710.0 must be finite and > 0 with e\^eps finite"),
        (_SWEEP_BASE.replace("em_values = 0.05", "em_values = 0.05, inf"),
         "line 3: em_values: value inf must be finite and >= 0"),
        (_SWEEP_BASE.replace("seeds = 1", "seeds = 1, -2"), "line 5: seeds: value -2 must be >= 0"),
    ],
)
def test_parse_sweep_config_errors(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        parse_sweep_config(io.StringIO(text))


def test_parse_synth_spec():
    kwargs = _parse_synth_spec("synth:n=12,grid_side=8,cell_km=2.0")
    assert kwargs == {"n": 12, "grid_side": 8, "cell_km": 2.0}
    with pytest.raises(ValueError, match="unknown synth"):
        _parse_synth_spec("synth:n=12,shape=disc")
    with pytest.raises(ValueError, match="n="):
        _parse_synth_spec("synth:grid_side=8")


def test_run_sweep_layout(tmp_path):
    config = SweepConfig(
        dataset="synth:n=16",
        eps_values=(1.0,),
        em_values=(0.05,),
        algorithms=("hilbert", "qk"),
        seeds=(1, 2),
        output_dir=str(tmp_path / "sweep"),
    )
    out_dir = run_sweep(config)
    results = (out_dir / "results.csv").read_text().splitlines()
    assert results[0] == "algorithm,eps,em,seed,metric,value"
    assert len(results) == 1 + 2 * 2 * len(SWEEP_METRICS)
    assert not any(",NA" in line for line in results[1:])
    for metric in SWEEP_METRICS:
        for algorithm in ("hilbert", "qk"):
            table = (out_dir / f"{metric}__{algorithm}.csv").read_text().splitlines()
            assert table[0] == "eps,em,seed,value"
            assert [r.split(",")[:3] for r in table[1:]] == [
                ["1", "0.05", "1"], ["1", "0.05", "2"],
            ]


def test_run_sweep_marks_infeasible_cells(tmp_path):
    config = SweepConfig(
        dataset="synth:n=16",
        eps_values=(1.0,),
        em_values=(0.05, 50.0),
        algorithms=("hilbert",),
        seeds=(1,),
        output_dir=str(tmp_path / "sweep"),
    )
    out_dir = run_sweep(config)
    rows = (out_dir / "results.csv").read_text().splitlines()[1:]
    na_rows = [r for r in rows if r.endswith(",NA")]
    assert len(na_rows) == len(SWEEP_METRICS)
    assert all(",50," in r for r in na_rows)


def test_run_sweep_computes_shared_cells_once(tmp_path, monkeypatch):
    """em-baseline reuses the hilbert walk, also when it is infeasible, and
    qk-personalized cells that differ only in eps are one computation."""
    import locobf.experiment as experiment

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # one worker: calls count here

    def logged(log, fn):
        def wrapper(*args, **kwargs):
            log.append(args[1])
            return fn(*args, **kwargs)
        return wrapper

    walks, cells = [], []  # params per walk, algorithm per computed cell
    monkeypatch.setattr(experiment, "best_hilbert_partition",
                        logged(walks, experiment.best_hilbert_partition))
    monkeypatch.setattr(experiment, "_run_cell", logged(cells, experiment._run_cell))

    def sweep(algorithms, name):
        config = SweepConfig(
            dataset="synth:n=16", eps_values=(0.5, 1.0), em_values=(0.05, 50.0),
            algorithms=algorithms, seeds=(1,), output_dir=str(tmp_path / name),
        )
        rows = (run_sweep(config) / "results.csv").read_text().splitlines()[1:]
        return {tuple(r.split(",")[:5]): r.split(",")[5] for r in rows}

    shared = sweep(("hilbert", "em-baseline", "qk-personalized"), "shared")
    assert len(walks) == 4  # one per (eps, em) pair
    assert cells.count("qk-personalized") == 2  # one per em
    alone = sweep(("em-baseline",), "alone")
    assert len(walks) == 8
    assert all(shared[key] == value for key, value in alone.items())
    assert sum(v == "NA" for v in alone.values()) == 2 * len(SWEEP_METRICS)
    for metric in SWEEP_METRICS:
        for em in ("0.05", "50"):
            personal = [shared[("qk-personalized", eps, em, "1", metric)] for eps in ("0.5", "1")]
            assert personal[0] == personal[1]


@pytest.mark.parametrize("algorithm, weighted", [
    ("qk", None), ("qk-personalized", None), ("qk-personalized", False),
])
def test_sweep_cells_share_qk_fills(tmp_path, monkeypatch, algorithm, weighted):
    """The qk cells of one seed and algorithm share one search. Every
    cell's partition equals a fresh qk_partition, while the search both
    replays fills of earlier cells and refuses fills whose admission
    answers flip at the cell's thresholds. The thresholds fall as well
    as rise from cell to cell, so refused answers can flip to admitted
    ones too; weighted=False runs the personalized cells without the
    budget weight."""
    import locobf.experiment as experiment
    import locobf.qkmeans as qkmeans

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # one worker: calls count here
    agreed = []
    cells = []  # (search, params, partition) per computed cell

    class Recording(qkmeans._Search):
        def __init__(self, domain, config, personalized, _, keep):
            super().__init__(domain, config, personalized, weighted, keep)

        def agree(self, answers, params):
            agreed.append(super().agree(answers, params))
            return agreed[-1]

        def partition(self, params):
            cells.append((self, params, super().partition(params)))
            return cells[-1][2]

    monkeypatch.setattr(experiment, "_Search", Recording)
    config = SweepConfig(
        dataset="synth:n=30", eps_values=(1.0, 0.5), em_values=(0.4, 0.4 * (1 + 1e-9), 0.25, 0.5),
        algorithms=(algorithm,), seeds=(1, 2), output_dir=str(tmp_path / "sweep"),
    )
    run_sweep(config)
    assert len({id(search) for search, _, _ in cells}) == len(config.seeds)
    for search, params, part in cells:
        assert part == qk_partition(search.domain, params, search.config,
                                    search.personalized, weighted)
    assert True in agreed and False in agreed


def test_one_shot_qk_searches_record_no_answers(monkeypatch):
    """qk_partition, run_partition and run_wtd ask their search once, and
    the fills of different k never meet, so no fill records its admission
    answers; only the sweep's shared search does (see above)."""
    import locobf.qkmeans as qkmeans

    asked = []
    real = qkmeans.assign_round

    def recording(*args):
        asked.append(args[-1])
        return real(*args)

    monkeypatch.setattr(qkmeans, "assign_round", recording)
    dom, params = synth_domain(30, seed=1), PrivacyParams(1.0, 0.1)
    qk_partition(dom, params)
    run_partition(dom, "qk", params, seed=1)
    run_wtd(dom, "qk-personalized", params, seed=1, tasks=10, idle=5)
    assert asked and all(answers is None for answers in asked)


def test_sweep_config_rejects_bad_parameters():
    with pytest.raises(ValueError, match="eps_values"):
        SweepConfig("synth:n=16", (1.0, -1.0), (0.05,), ("qk-personalized",), (1,), "out")
    with pytest.raises(ValueError, match="em_values"):
        SweepConfig("synth:n=16", (1.0,), (-0.05,), ("hilbert",), (1,), "out")
    bound = math.log(sys.float_info.max)  # the last eps whose e^eps is finite
    SweepConfig("synth:n=16", (1.0, bound), (0.05,), ("hilbert",), (1,), "out")
    with pytest.raises(ValueError, match="eps_values must be finite"):
        SweepConfig("synth:n=16", (math.nextafter(bound, math.inf),), (0.05,), ("hilbert",),
                    (1,), "out")
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="eps_values must be finite"):
            SweepConfig("synth:n=16", (1.0, bad), (0.05,), ("hilbert",), (1,), "out")
        with pytest.raises(ValueError, match="em_values must be finite"):
            SweepConfig("synth:n=16", (1.0,), (bad,), ("hilbert",), (1,), "out")
    for seeds in ((-3,), (1, -1)):
        with pytest.raises(ValueError, match="seeds must be >= 0"):
            SweepConfig("synth:n=16", (1.0,), (0.05,), ("hilbert",), seeds, "out")
    for field, config in [
        ("eps_values", ((1.0, 1), (0.05,), ("hilbert",), (1,))),
        ("em_values", ((1.0,), (0.0, -0.0), ("hilbert",), (1,))),
        ("algorithms", ((1.0,), (0.05,), ("qk", "qk"), (1,))),
        ("seeds", ((1.0,), (0.05,), ("hilbert",), (2, 1, 2))),
    ]:
        with pytest.raises(ValueError, match=f"{field} repeats a value"):
            SweepConfig("synth:n=16", *config, "out")


def test_sweep_command_rejects_repeated_values(tmp_path, capsys):
    """Repeated values would write each of their rows again; the sweep exits 3
    before it runs and names the key and the line."""
    config_file = tmp_path / "sweep.cfg"
    config_file.write_text(
        "dataset = synth:n=16\neps_values = 1.0, 1.0\nem_values = 0.05\n"
        "algorithms = hilbert\nseeds = 3, 3\n"
        f"output_dir = {tmp_path / 'out'}\n"
    )
    assert main(["sweep", "--config", str(config_file)]) == 3
    assert "line 2: eps_values: repeated value" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cached_infeasible_walk_keeps_a_fresh_traceback():
    """Every lookup of a cached infeasible walk raises with a traceback of the
    same length, so no lookup keeps earlier lookups' frames alive."""
    domain, walks = synth_domain(20, seed=1), {}
    lengths = []
    for _ in range(5):
        with pytest.raises(InfeasibleParamsError) as info:
            _walk(domain, PrivacyParams(1.0, 50.0), None, walks)
        lengths.append(len(traceback.extract_tb(info.value.__traceback__)))
    assert len(walks) == 1
    assert len(set(lengths)) == 1, lengths


def test_aggregate_cells_is_pure():
    cells = [
        ("hilbert", 1.0, 0.05, 1, {m: 1.5 for m in SWEEP_METRICS}),
        ("qk", 1.0, 0.05, 1, None),
    ]
    first = aggregate_cells(cells)
    second = aggregate_cells(cells)
    assert first == second
    long_rows, tables = first
    assert ("qk", "1", "0.05", "1", "qloss", "NA") in long_rows
    assert tables[("qloss", "hilbert")] == [("1", "0.05", "1", "1.5")]


def test_sweep_command(tmp_path):
    config_file = tmp_path / "sweep.cfg"
    config_file.write_text(
        "dataset = synth:n=16\neps_values = 1.0\nem_values = 0.05\n"
        "algorithms = em-baseline\nseeds = 3\n"
        f"output_dir = {tmp_path / 'out'}\n"
    )
    assert main(["sweep", "--config", str(config_file)]) == 0
    rows = (tmp_path / "out" / "results.csv").read_text().splitlines()
    by_metric = {r.split(",")[4]: r.split(",")[5] for r in rows[1:]}
    assert by_metric["num_pls"] == "1"
    assert float(by_metric["qloss"]) > 0


@pytest.fixture
def line12():
    return LocationDomain([(float(i), 0.0) for i in range(12)], [1 / 12] * 12)


def test_wtd_identity_matches_plain_assignment(line12):
    tasks = np.array([[2.0, 0.0], [9.0, 0.0]])
    ident = ObfuscationMatrix(np.eye(12))
    got = worker_travel_distance(line12, ident, tasks, 5, np.random.default_rng(5))
    idle = np.sort(np.random.default_rng(5).choice(12, size=5, replace=False))
    expect = []
    for task in tasks:
        dists = np.linalg.norm(line12.positions[idle] - task, axis=1)
        chosen = np.lexsort((idle, dists))[:3]
        expect.append(dists[chosen].mean())
    assert got == float(np.mean(expect))


def test_wtd_three_workers_use_everyone():
    dom = LocationDomain([(0.0, 0.0), (4.0, 0.0), (10.0, 0.0)], [1 / 3] * 3)
    ident = ObfuscationMatrix(np.eye(3))
    task = np.array([[4.0, 0.0]])
    got = worker_travel_distance(dom, ident, task, 3, np.random.default_rng(0))
    assert got == pytest.approx((4.0 + 0.0 + 6.0) / 3)


def test_wtd_input_validation(line12):
    ident = ObfuscationMatrix(np.eye(12))
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="at least 3"):
        worker_travel_distance(line12, ident, [[0.0, 0.0]], 2, rng)
    with pytest.raises(ValueError, match="exceeds"):
        worker_travel_distance(line12, ident, [[0.0, 0.0]], 13, rng)
    with pytest.raises(ValueError, match="planar"):
        worker_travel_distance(line12, ident, [[0.0, 0.0, 0.0]], 3, rng)
    with pytest.raises(ValueError, match="at least one task"):
        worker_travel_distance(line12, ident, np.empty((0, 2)), 3, rng)
    with pytest.raises(ValueError, match="finite"):
        worker_travel_distance(line12, ident, [[0.0, 0.0], [math.nan, 1.0]], 3, rng)


def test_wtd_grows_with_flatter_rows(line12):
    """Noisier reports send farther workers; 100-trial means, wide gap."""
    tasks = np.column_stack([np.linspace(0, 11, 8), np.zeros(8)])
    sharp = build_matrix_constant(line12, 0.5, 1.0)
    flat = build_matrix_constant(line12, 6.0, 1.0)
    mean_sharp = np.mean([
        worker_travel_distance(line12, sharp, tasks, 6, np.random.default_rng([9, t]))
        for t in range(100)
    ])
    mean_flat = np.mean([
        worker_travel_distance(line12, flat, tasks, 6, np.random.default_rng([9, t]))
        for t in range(100)
    ])
    assert mean_flat > mean_sharp


def test_wtd_command(tmp_path, capsys):
    dataset = tmp_path / "dom.csv"
    main(["synth", "--n", "30", "--seed", "2", "--out", str(dataset)])
    out = tmp_path / "wtd.csv"
    argv = [
        "wtd", "--dataset", str(dataset), "--eps", "1.0", "--em", "0.1",
        "--tasks", "20", "--idle", "10", "--seed", "3", "--out", str(out),
    ]
    assert main(argv) == 0
    assert "wtd_km=" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "metric,value"
    values = dict(line.split(",") for line in lines[1:])
    assert set(values) == {"wtd_km", "nonprivate_km"}
    assert float(values["wtd_km"]) > 0
    first = out.read_bytes()
    assert main(argv) == 0
    assert out.read_bytes() == first


@pytest.mark.parametrize("flag, value", [
    ("--max-samp", "0"), ("--max-iter", "-1"),
    ("--eps", "-1"), ("--eps", "0"), ("--eps", "nan"),
    ("--em", "-0.1"), ("--em", "nan"), ("--lam", "-1"), ("--lam", "nan"),
    ("--order", "-1"), ("--eps-range", "1.5,0.5"), ("--eps-range", "0,1"),
    ("--eps", "inf"), ("--em", "inf"), ("--lam", "inf"), ("--order", "32"),
])
def test_partition_search_knobs_are_usage_errors(line6_file, capsys, flag, value):
    code = main([
        "partition", "--dataset", line6_file, "--algorithm", "qk",
        "--eps", "0.1", "--em", "0.4", flag, value,
    ])
    assert code == 1
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--tasks", "0"), ("--tasks", "-3"), ("--em", "-0.1"), ("--eps", "nan"),
    ("--idle", "2"), ("--eps-range", "2,1"),
    ("--eps", "inf"), ("--em", "inf"), ("--lam", "inf"),
])
def test_wtd_bad_values_are_usage_errors(line6_file, capsys, flag, value):
    code = main(["wtd", "--dataset", line6_file, "--eps", "1.0", "--em", "0.1", flag, value])
    assert code == 1
    assert "usage error" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("route, code", [
    ("partition", 1), ("wtd", 1), ("range", 1), ("range-wtd", 1), ("range-synth", 1),
    ("column", 3), ("column-wtd", 3), ("sweep", 3),
])
def test_an_eps_whose_exp_overflows_is_one_error_line(tmp_path, line6_file, capsys, route,
                                                      code):
    """eps = 710, where math.exp overflows: from --eps or --eps-range a
    usage error (exit 1), from a dataset's eps column or a sweep config
    bad input (exit 3); either way one line naming the bound, not an
    OverflowError traceback."""
    column = tmp_path / "column.csv"  # location 0's budget is 710
    column.write_text("id,x_km,y_km,prior,eps\n"
                      + "".join(f"{i},{i},0,1,{1 if i else 710}\n" for i in range(6)))
    config = tmp_path / "sweep.cfg"
    config.write_text(f"dataset = {line6_file}\neps_values = 1, 710\nem_values = 0\n"
                      f"algorithms = hilbert\nseeds = 1\noutput_dir = {tmp_path / 'out'}\n")
    personal = ["--algorithm", "qk-personalized", "--eps", "1", "--em", "0"]
    wtd = ["--idle", "3", "--tasks", "5"]
    argv = {
        "partition": ["partition", "--dataset", line6_file, "--eps", "710", "--em", "0.1"],
        "wtd": ["wtd", "--dataset", line6_file, "--eps", "710", "--em", "0.1"] + wtd,
        "column": ["partition", "--dataset", str(column)] + personal,
        "column-wtd": ["wtd", "--dataset", str(column)] + personal + wtd,
        "range": ["partition", "--dataset", line6_file, "--eps-range", "710,720"] + personal,
        "range-wtd": ["wtd", "--dataset", line6_file, "--eps-range", "710,720"] + personal + wtd,
        "range-synth": ["synth", "--n", "20", "--eps-range", "710,720",
                        "--out", str(tmp_path / "x.csv")],
        "sweep": ["sweep", "--config", str(config)],
    }[route]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("usage error: " if code == 1 else "error: "), err
    assert err.count("\n") == 1, err
    assert "e^eps finite (at most 709.78" in err


def test_eps_at_the_bound_runs(line6_file, capsys):
    """At eps = ln(float max) e^eps is finite and the commands run."""
    bound = repr(math.log(sys.float_info.max))
    assert main(["partition", "--dataset", line6_file, "--eps", bound, "--em", "0"]) == 0
    assert main(["partition", "--dataset", line6_file, "--eps", bound, "--em", "0.1"]) == 2
    assert "exp(eps)*em = 1.79769e+307 km" in capsys.readouterr().err
    assert main(["wtd", "--dataset", line6_file, "--eps", bound, "--em", "0", "--idle", "3",
                 "--tasks", "5"]) == 0


@pytest.mark.parametrize("flag, value", [
    ("--n", "0"), ("--n", "1"), ("--grid-side", "0"),
    ("--cell-km", "-1"), ("--cell-km", "0"), ("--cell-km", "nan"), ("--cell-km", "inf"),
    ("--eps-range", "2,1"), ("--eps-range", "0,1"), ("--eps-range", "nan,1"),
    ("--eps-range", "1,inf"),
    ("--prior-low", "-0.5"), ("--prior-low", "nan"), ("--prior-low", "inf"),
    ("--prior-high", "nan"), ("--prior-high", "inf"), ("--prior-high", "-1"),
    ("--prior-low", "0.05"), ("--prior-high", "0.001"),  # against the other's default
])
def test_synth_bad_values_are_usage_errors(tmp_path, capsys, flag, value):
    argv = ["synth", "--n", "20", "--out", str(tmp_path / "x.csv"), flag, value]
    assert main(argv) == 1
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["sweep", "--config", "sweep.cfg"],
    ["evaluate", "--dataset", "town.csv", "--partition", "part.csv"],
])
def test_unseeded_commands_reject_seed(capsys, command):
    """sweep takes its seeds from the config and evaluate draws nothing."""
    assert main(command + ["--seed", "1"]) == 1
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_main_usage_and_io_errors(tmp_path, capsys):
    assert main(["no-such-command"]) == 1
    assert main([
        "partition", "--dataset", str(tmp_path / "missing.csv"),
        "--eps", "1.0", "--em", "0.1",
    ]) == 3
    capsys.readouterr()
    far = tmp_path / "far.csv"  # distances overflow float64
    far.write_text("id,x_km,y_km,prior\n0,-1e308,0,0.25\n1,1e308,0,0.25\n"
                   "2,0,0,0.25\n3,5,0,0.25\n")
    assert main([
        "partition", "--dataset", str(far), "--order", "5", "--eps", "1", "--em", "0",
    ]) == 3
    assert "pairwise distances overflow" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("algorithm", ["qk", "qk-personalized"])
def test_partition_qk_refuses_an_overflowing_span(tmp_path, capsys, algorithm):
    # finite distances, so the domain loads, but the qk fill's squares overflow
    positions = np.random.default_rng(0).uniform(-1e200, 1e200, size=(12, 2))
    wide = tmp_path / "wide.csv"
    wide.write_text("id,x_km,y_km,prior\n" + "".join(
        f"{i},{x!r},{y!r},1\n" for i, (x, y) in enumerate(positions.tolist())))
    assert main([
        "partition", "--dataset", str(wide), "--algorithm", algorithm,
        "--eps", "1", "--em", "0.1",
    ]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: a span of 1.86467e+200 km is too wide for the qk fill: "
                   "its squared distances overflow float64\n")


def _fresh_python(*args):
    """Run a new interpreter that imports this checkout's locobf."""
    import locobf
    src = str(Path(locobf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_module_entry_point_runs_cleanly():
    # the package does not import cli, so runpy finds no stale module to warn about
    proc = _fresh_python("-m", "locobf.cli", "--help")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "wtd" in proc.stdout


def test_package_exports_the_engine_without_importing_cli():
    proc = _fresh_python("-c", (
        "import sys, locobf, locobf.experiment as e\n"
        "assert 'locobf.cli' not in sys.modules\n"
        "assert locobf.run_sweep is e.run_sweep and locobf.SweepConfig is e.SweepConfig\n"
        "assert locobf.run_wtd is e.run_wtd\n"
    ))
    assert proc.returncode == 0, proc.stderr


def test_algorithm_names_are_stable():
    assert ALGORITHMS == ("hilbert", "qk", "qk-personalized", "em-baseline")
    assert SWEEP_METRICS == ("qloss", "exp_err", "min_cond_err", "avg_diam", "num_pls")
