"""RESULTS.md is what scripts/results.py renders, and the command a section
states prints that section's table."""

import importlib.util
import re
from pathlib import Path

import pytest

from rainbowhc import cli

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "RESULTS.md"

MONTE_CARLO = pytest.mark.parametrize(
    "title",
    ("Loose-cycle sweep", "Tight-cycle sweep", "Directed-vs-undirected coupling"),
    ids=("loose", "tight", "couple"),
)


def test_results_md_is_what_the_script_renders():
    spec = importlib.util.spec_from_file_location("results", ROOT / "scripts" / "results.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # a change that moves a number reruns `python scripts/results.py`
    assert module.render() == RESULTS.read_text(encoding="utf-8")


def _stated(title):
    """The argv of the command a section states, and its table without the
    `#` notes under it."""
    sections = RESULTS.read_text(encoding="utf-8").split("\n## ")[1:]
    section = dict(s.split("\n", 1) for s in sections)[title]
    command = re.search(r"`rainbowhc ([^`]+)`", section).group(1)
    block = section.split("```\n")[1]
    table = "".join(line for line in block.splitlines(keepends=True) if not line.startswith("#"))
    return command.split(), table


@MONTE_CARLO
def test_a_sections_command_prints_its_table(title, capsys):
    argv, table = _stated(title)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == table


@MONTE_CARLO
def test_a_sections_command_prints_the_same_bytes_for_any_worker_count(title, capsys):
    argv, _ = _stated(title)
    argv[argv.index("--trials") + 1] = "6"
    outputs = []
    for workers in ("1", "2"):
        assert cli.main([*argv, "--workers", workers]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] != ""
