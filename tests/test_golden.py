"""The golden corpus: recorded CLI calls and demo output, replayed byte for
byte.  tests/golden/make_golden.py regenerates the data; a deliberate
output change shows as a diff of tests/golden/*.json."""

import contextlib
import io
import json
import runpy
from pathlib import Path

import pytest

from helpers import run_cli

GOLDEN = Path(__file__).resolve().parent / "golden"
DEMOS = GOLDEN.parent.parent / "demos"
CLI = json.loads((GOLDEN / "cli.json").read_text(encoding="utf-8"))
DEMO_OUT = json.loads((GOLDEN / "demos.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("group", sorted(CLI))
def test_cli_corpus_replays_byte_for_byte(group):
    changed = [case["argv"] for case in CLI[group]
               if run_cli(case["argv"]) != (case["exit"], case["stdout"], case["stderr"])]
    assert changed == []


def test_corpus_covers_every_map_kind_and_exit_code():
    kinds = set()
    for case in CLI["transform"]:
        doc = json.loads(case["argv"][case["argv"].index("--in") + 1])["map"]
        kinds.update(d["kind"] for d in (doc if isinstance(doc, list) else [doc]))
    assert kinds == {"identity", "twist", "enriques_reflection", "cor_ext", "isotropic_fm",
                     "elliptic_jacobian", "elliptic_relative"}
    assert {case["exit"] for case in CLI["cli-batch"]} == {0, 1, 2}
    assert sorted(DEMO_OUT) == sorted(p.name for p in DEMOS.glob("*.py"))


@pytest.mark.parametrize("name", sorted(DEMO_OUT))
def test_demo_output_is_unchanged(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert out.getvalue() == DEMO_OUT[name]
