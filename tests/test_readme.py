"""The README's examples, run as written."""

import ast
import re
import shlex
from pathlib import Path

from mukailab.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks(lang):
    return re.findall(r"```%s\n(.*?)```" % lang, README, re.S)


def test_quick_start_values():
    """The quick start runs, and its four expression lines give the values
    their comments show."""
    (block,) = _blocks("python")
    ns = {}
    values = []
    for line in block.splitlines():
        code = line.partition("#")[0]
        stmts = ast.parse(code).body
        if stmts and isinstance(stmts[0], ast.Expr):
            values.append(eval(code, ns))
        else:
            exec(code, ns)
    assert values == [6, 8, True, (2, 90)]


def _cli_examples():
    """(argv, expected output lines) of every `mukailab ...` command."""
    examples = []
    for block in _blocks("sh"):
        for chunk in block.replace("\\\n", " ").splitlines():
            if chunk.startswith("mukailab "):
                examples.append((shlex.split(chunk)[1:], []))
            elif chunk.startswith("# ") and examples:
                examples[-1][1].append(chunk[2:])
    return examples


def test_cli_examples_run(capsys):
    examples = _cli_examples()
    assert [argv[0] for argv, _ in examples] == ["pair", "walls", "reduce", "partition"]
    for argv, expected in examples:
        assert main(argv) == 0, argv
        out = capsys.readouterr().out.splitlines()
        assert out and out[:len(expected)] == expected
    assert examples[0][1] == ['{"pair": "-1"}']
