"""Names and examples that live outside the package: the benchmark's tracer
names package functions by attribute, and every one must still exist, or a
traced benchmark run fails only when it starts; every README CLI example
must still run."""

import importlib.util
import pathlib
import re
import shlex

import pytest

from singosc.cli import main as cli_main

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BOUNDARIES = load_tracing().BOUNDARIES


@pytest.mark.parametrize("owner, attr", [(b[0], b[1]) for b in BOUNDARIES],
                         ids=[f"{b[0].__name__}.{b[1]}" for b in BOUNDARIES])
def test_traced_boundary_resolves(owner, attr):
    assert callable(getattr(owner, attr, None))


def readme_cli_lines():
    blocks = re.findall(r"^```sh\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    return [line for block in blocks for line in block.splitlines() if line.startswith("singosc ")]


README_CLI_LINES = readme_cli_lines()


def test_readme_has_cli_examples():
    assert README_CLI_LINES


@pytest.mark.parametrize("line", README_CLI_LINES)
def test_readme_cli_example_runs(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # `--out` examples write here
    assert cli_main(shlex.split(line, comments=True)[1:]) == 0, capsys.readouterr().err
