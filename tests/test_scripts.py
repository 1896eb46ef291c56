"""RESULTS.md is what scripts/results.py renders, and the command a section
states prints that section's table."""

import importlib.util
import re
from pathlib import Path

from rainbowhc import cli

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "RESULTS.md"


def test_results_md_is_what_the_script_renders():
    spec = importlib.util.spec_from_file_location("results", ROOT / "scripts" / "results.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # a change that moves a number reruns `python scripts/results.py`
    assert module.render() == RESULTS.read_text(encoding="utf-8")


def test_the_loose_sections_command_prints_its_table(capsys):
    section = RESULTS.read_text(encoding="utf-8").split("\n## ")[1]
    assert section.startswith("Loose-cycle sweep")
    command = re.search(r"`rainbowhc (sweep [^`]+)`", section).group(1)
    block = section.split("```\n")[1]
    table = "".join(line for line in block.splitlines(keepends=True) if not line.startswith("#"))
    assert cli.main(command.split()) == 0
    assert capsys.readouterr().out == table
