"""The CLI's output bytes, pinned.

Every command below runs on a small synthetic domain. One sha256 per
command covers its exit code, stdout, stderr and every file it writes,
and must equal the hash recorded when the commands were first pinned
(numpy 2.4, OpenBLAS). A change meant to keep outputs fixed shows here
as a command whose hash moved.
"""

import hashlib

from locobf.cli import main

SWEEP_CONFIG = """\
dataset = synth:n=14,grid_side=8
eps_values = 0.5, 1.0
em_values = 0.05, 0.6, 5.0
algorithms = hilbert, qk, qk-personalized, em-baseline
seeds = 2, 9
output_dir = {out}
"""

# (label, argv, files written); {dir} is the run's scratch directory
RUNS = (
    ("synth", ["synth", "--n", "16", "--grid-side", "8", "--seed", "5",
               "--out", "{dir}/dom.csv"], ["dom.csv"]),
    ("synth-eps", ["synth", "--n", "16", "--grid-side", "8", "--seed", "5",
                   "--eps-range", "0.4,1.6", "--out", "{dir}/dom_eps.csv"], ["dom_eps.csv"]),
    ("synth-stdout", ["synth", "--n", "12", "--seed", "1"], []),
    ("hilbert", ["partition", "--dataset", "{dir}/dom.csv", "--eps", "1", "--em", "0.2",
                 "--out", "{dir}/part.csv"], ["part.csv"]),
    ("hilbert-order7", ["partition", "--dataset", "{dir}/dom.csv", "--eps", "1", "--em", "0.2",
                        "--order", "7"], []),
    ("qk", ["partition", "--dataset", "{dir}/dom.csv", "--algorithm", "qk", "--eps", "1",
            "--em", "0.2", "--max-samp", "3", "--seed", "4", "--out", "{dir}/part_qk.csv"],
     ["part_qk.csv"]),
    ("qk-personalized", ["partition", "--dataset", "{dir}/dom.csv", "--algorithm",
                         "qk-personalized", "--eps", "1", "--em", "0.2", "--max-samp", "3",
                         "--seed", "6", "--out", "{dir}/part_qkp.csv"], ["part_qkp.csv"]),
    ("qk-personalized-eps", ["partition", "--dataset", "{dir}/dom_eps.csv", "--algorithm",
                             "qk-personalized", "--eps", "1", "--em", "0.2", "--max-samp", "3",
                             "--out", "{dir}/part_qkp_eps.csv"], ["part_qkp_eps.csv"]),
    ("evaluate", ["evaluate", "--dataset", "{dir}/dom.csv", "--partition", "{dir}/part.csv",
                  "--matrix-out", "{dir}/matrix.csv", "--out", "{dir}/metrics.csv"],
     ["matrix.csv", "metrics.csv"]),
    ("evaluate-subset-stdout", ["evaluate", "--dataset", "{dir}/dom.csv", "--partition",
                                "{dir}/part.csv", "--metrics", "qloss,cond_err"], []),
    ("wtd-hilbert", ["wtd", "--dataset", "{dir}/dom.csv", "--eps", "1", "--em", "0.2",
                     "--tasks", "15", "--idle", "6", "--seed", "7", "--out", "{dir}/wtd_h.csv"],
     ["wtd_h.csv"]),
    ("wtd-em-baseline", ["wtd", "--dataset", "{dir}/dom.csv", "--algorithm", "em-baseline",
                         "--eps", "1", "--em", "0.2", "--tasks", "15", "--idle", "6",
                         "--seed", "7", "--out", "{dir}/wtd_b.csv"], ["wtd_b.csv"]),
    ("wtd-qk-personalized", ["wtd", "--dataset", "{dir}/dom.csv", "--algorithm",
                             "qk-personalized", "--eps", "1", "--em", "0.2", "--tasks", "15",
                             "--idle", "6", "--seed", "1", "--out", "{dir}/wtd_p.csv"],
     ["wtd_p.csv"]),
    ("sweep", ["sweep", "--config", "{dir}/sweep.cfg"],
     ["sweep/results.csv"]
     + [f"sweep/{metric}__{alg}.csv"
        for metric in ("qloss", "exp_err", "min_cond_err", "avg_diam", "num_pls")
        for alg in ("hilbert", "qk", "qk-personalized", "em-baseline")]),
)

EXPECTED = {
    "synth": "e89b3d90675a23d7279fb63205cafa2f4acd986fee4bdf110062a516da34a2e3",
    "synth-eps": "1eb1e8e2d5d56b8c197a3a4fd343c6ecd294950016b5c98ec686ca0debce451e",
    "synth-stdout": "bbc6d5150004a463b6131ae3bda04cd9e226ccf323f903ff30ec568d7e35167b",
    "hilbert": "bddfb7a366bd89c4651fcd9766588e34a12d9c89cf634dbe304eb5dda8e83b9f",
    "hilbert-order7": "ab87dd2f8d8849132d555927dd7fca7f53c8e5bd435adad4bcd2b013f1a23466",
    "qk": "426e5470da4e4c419cc08a05b99cb5d574b6f25c4362f6958b1d5d93f3f15a11",
    "qk-personalized": "bc2fbf428dc410cf4a621330b27e2e6b7089da64e95d8462227209758e643e12",
    "qk-personalized-eps": "79b725fda072ad75a25832b7d113a9e983896a36e69b2e06407fdbc2518b2399",
    "evaluate": "495769f25bb89fa7e38e5360080730d61308e2dd53dd342b5d7809458cd47a66",
    "evaluate-subset-stdout": "fe7ca76ea40f40dcd0b88054e45567149598436dcd9c0e48171365e71fa66c96",
    "wtd-hilbert": "9a5d7ea3a4b08cefbe368f403760440aa9185d6264a6bf79a17fd003fc4c973b",
    "wtd-em-baseline": "8712f523a58da3117a11775f7245b56c91fd71de79a3c6d229c6c7d831f2c44e",
    "wtd-qk-personalized": "4bb526ebd6e9795f41ece47be43db5a877a168ae3818a090505cb12b58277b2a",
    "sweep": "fe5e09c1dd8732077185f508519ee804553a14181eac97f5e5d44d011c05ffe8",
}


def run_all(directory, capture):
    """Label -> sha256 of each run; capture() returns (stdout, stderr) since the last call."""
    (directory / "sweep.cfg").write_text(SWEEP_CONFIG.format(out=directory / "sweep"))
    hashes = {}
    for label, argv, files in RUNS:
        code = main([arg.format(dir=directory) for arg in argv])
        out, err = capture()
        digest = hashlib.sha256(f"{code}\0{out}\0{err}".encode())
        for name in files:
            digest.update(b"\0" + name.encode() + b"\0" + (directory / name).read_bytes())
        hashes[label] = digest.hexdigest()
    return hashes


def test_cli_output_bytes_are_pinned(tmp_path, capsys):
    def capture():
        captured = capsys.readouterr()
        return captured.out, captured.err

    got = run_all(tmp_path, capture)
    assert got == EXPECTED
