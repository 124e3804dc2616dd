"""The README examples run as written and print what the README says.

The double-loop files and commands are read out of README.md itself, so an
edit there that breaks an example fails here.
"""

import contextlib
import io
import json
import math
import re
from pathlib import Path

import pytest

from diracgraph.cli import EXIT_OK, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README, flags=re.S)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def test_readme_double_loop_commands(tmp_path):
    files = re.findall(r"`(\w+\.json)`:\s*```json\n(.*?)```", README, flags=re.S)
    for name, text in files:
        (tmp_path / name).write_text(text)
    assert {name for name, _ in files} == {"double_loop.json", "adjacency.json"}
    lines = [line for b in blocks("sh") for line in b.splitlines()]
    commands = [line.split()[1:] for line in lines if line.startswith("diracgraph ")]
    runs = {}
    for argv in commands:
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
        rc, out, err = run(argv)
        assert rc == EXIT_OK, (argv, err)
        runs[argv[0]] = out
    assert set(runs) == {"validate", "spectrum", "charpoly", "trails", "topology"}

    assert json.loads(runs["validate"])["valid"] is True
    spectrum = json.loads(runs["spectrum"])
    assert spectrum["winding"] == 2
    values = [complex(e["re"], e["im"]) for e in spectrum["eigenvalues"]]
    want = [-1j * math.log(2), 2 * math.pi - 1j * math.log(2)]
    assert values == pytest.approx(want, abs=1e-9)
    assert [e["mult"] for e in spectrum["eigenvalues"]] == [1, 1]
    assert runs["charpoly"].strip() == "t^2 - 2 t"
    assert json.loads(runs["trails"])["count"] == 2
    assert json.loads(runs["topology"])["loops"] == 2


def test_readme_library_example():
    (code,) = blocks("python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    values = [float(line.split()[0]) for line in out.getvalue().splitlines()]
    want = [2 * math.pi * k / 2.5 for k in range(-1, 2)]
    assert values == pytest.approx(want, abs=1e-6)
    assert all("multiplicity 1" in line for line in out.getvalue().splitlines())
