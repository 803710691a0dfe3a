"""Regenerate the golden corpus that tests/test_golden.py replays.

Run from the repository root:

    PYTHONPATH=src python3 tests/golden/make_golden.py

It writes two files next to this script:

* ``cli.json``: argv, exit code, stdout and stderr of ``cli.main`` for
  - "cli-batch": every CLI call of the benchmark's cli-batch workload,
    seeds 1-5, as the workload's jobs pass them to ``run_cli``;
  - "reduce": CLI ``reduce`` on the rank-one, Euclid and Enriques inputs
    of the reduce-isometry workload, seeds 1-5, JSON and TSV alternating;
  - "transform": one ``transform`` per map kind, in JSON and in TSV;
* ``demos.json``: the stdout of each script in ``demos/``.

The workloads are read from ``perfbench/workloads.py`` and only run to
record their inputs.
"""

import contextlib
import io
import json
import random
import runpy
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

import mukailab as M  # noqa: E402
import workloads as W  # noqa: E402
from helpers import run_cli  # noqa: E402

SEEDS = range(1, 6)


def cli_batch_argvs():
    argvs = []
    real = W.run_cli

    def record(argv):
        argvs.append(list(argv))
        return real(argv)

    W.run_cli = record
    try:
        for seed in SEEDS:
            for job in W.cli_batch(random.Random(seed)):
                job.run()
    finally:
        W.run_cli = real
    return argvs


def reduce_argvs():
    """The reduce-isometry reduction inputs as CLI argv lists."""
    calls = []
    names = ("reduce_to_rank_one", "enriques_reduce", "elliptic_gcd_reduce")
    real = {name: getattr(M, name) for name in names}

    def recorder(name):
        def call(*args):
            calls.append((name, args))
            return real[name](*args)
        return call

    for name in names:
        setattr(M, name, recorder(name))
    try:
        for seed in SEEDS:
            for job in W.reduce_isometry(random.Random(seed)):
                if job.kind.startswith("reductions."):
                    job.run()
    finally:
        for name in names:
            setattr(M, name, real[name])
    argvs = []
    for name, args in calls:
        if name == "reduce_to_rank_one":
            l, r, c1, a, m = args
            argv = ["reduce", "--kind", "rank-one", "--surface", json.dumps(W.SURFACES[m.kind]),
                    "--in", json.dumps({"l": l, "r": r, "c1": list(c1.int_coords()), "a": a})]
        elif name == "enriques_reduce":
            v, m = args
            argv = ["reduce", "--kind", "enriques", "--surface", json.dumps(W.SURFACES["enriques"]),
                    "--in", json.dumps({"v": W._vdoc(*W.vec(v))})]
        else:
            r, d = args
            argv = ["reduce", "--kind", "elliptic-jacobian", "--in", json.dumps({"r": r, "d": d})]
        argvs.append(argv + ["--format", ("json", "tsv")[len(argvs) % 2]])
    return argvs


ABELIAN = {"kind": "abelian", "gram": [[0, 1], [1, 0]], "basis": ["e", "f"], "polarization": [1, 1]}
K3U = dict(ABELIAN, kind="k3")
K3_RANK3 = {"kind": "k3", "gram": [[0, 1, 0], [1, 0, 0], [0, 0, -2]], "basis": ["e", "f", "d"],
            "polarization": [1, 3, 0]}
EK3_RANK3 = {"kind": "k3", "gram": [[-2, 1, 0], [1, 0, 0], [0, 0, -2]],
             "basis": ["sigma", "f", "d0"], "polarization": [1, 3, 0]}
ELLIPTIC_K3 = {"kind": "k3", "gram": [[-2, 1], [1, 0]], "basis": ["sigma", "f"],
               "polarization": [1, 3]}
ENRIQUES = {"kind": "enriques"}
ISOTROPIC_RANK3 = {"v1": {"r": 2, "c": [2, 1, 0], "t": 1}, "w1": {"r": 2, "c": [2, 1, 0], "t": 1},
                   "H": [1, 2, 1], "H_hat": [1, 2, 1]}

# (surface, map document, vector): one per map kind, and the isotropic
# transform also on a rank-3 lattice with a kernel of rank 2
TRANSFORMS = [
    (ABELIAN, {"kind": "identity"}, {"r": 2, "c": ["1/2", -3], "t": 5}),
    (ABELIAN, {"kind": "twist", "params": {"D": ["1/2", 1]}}, {"r": 3, "c": [1, -2], "t": -4}),
    (ENRIQUES, {"kind": "enriques_reflection"},
     {"r": 3, "c": [1, -1, 0, 2, 0, 0, -1, 0, 1, 0], "t": "-5/2"}),
    (K3U, {"kind": "cor_ext", "params": {"k": 3}}, {"r": 4, "c": [2, -6], "t": -5}),
    (ABELIAN, {"kind": "isotropic_fm", "params": {
        "v1": {"r": 1, "c": [0, 0], "t": 0}, "w1": {"r": 1, "c": [0, 0], "t": 0},
        "H": [1, 2], "H_hat": [1, 2]}}, {"r": 3, "c": [2, -1], "t": 4}),
    (K3_RANK3, {"kind": "isotropic_fm", "params": ISOTROPIC_RANK3},
     {"r": 5, "c": [1, -2, 3], "t": "7/3"}),
    (EK3_RANK3, {"kind": "elliptic_jacobian"}, {"r": 1, "c": [0, 2, 1], "t": 3}),
    (ELLIPTIC_K3, {"kind": "elliptic_relative", "params": {"r": 3, "d": 2, "k": 3, "chi_E0": 0}},
     {"r": 3, "c": [-2, 3], "t": -3}),
    (K3U, [{"kind": "twist", "params": {"D": [1, 2]}}, {"kind": "cor_ext", "params": {"k": 2}}],
     {"r": 2, "c": [1, 1], "t": -1}),
]


def transform_argvs():
    return [["transform", "--surface", json.dumps(surface),
             "--in", json.dumps({"map": mapdoc, "vector": vector}), "--format", fmt]
            for surface, mapdoc, vector in TRANSFORMS for fmt in ("json", "tsv")]


def demo_stdout(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    return out.getvalue()


def main():
    groups = {"cli-batch": cli_batch_argvs(), "reduce": reduce_argvs(),
              "transform": transform_argvs()}
    cases = {}
    for group, argvs in groups.items():
        cases[group] = []
        for argv in argvs:
            code, out, err = run_cli(argv)
            cases[group].append({"argv": argv, "exit": code, "stdout": out, "stderr": err})
    (HERE / "cli.json").write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
    demos = {p.name: demo_stdout(p) for p in sorted((ROOT / "demos").glob("*.py"))}
    (HERE / "demos.json").write_text(json.dumps(demos, indent=1) + "\n", encoding="utf-8")
    for group, items in cases.items():
        print("%s: %d calls" % (group, len(items)))
    print("demos: %d scripts" % len(demos))


if __name__ == "__main__":
    main()
