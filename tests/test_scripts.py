"""Each script under scripts/ runs in-process on tiny arguments."""

import dataclasses
import importlib.util
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from rainbowhc import CoupleOutcome
from rainbowhc.lab import SWEEP_CSV_COLUMNS
from rainbowhc.moments import threshold_tight

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, capsys, name, *argv):
    """(exit code, stdout, stderr) of scripts/<name>.py's main() on argv."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *argv])
    code = module.main()
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_header(text):
    return tuple(text.splitlines()[0].split(","))


@pytest.mark.parametrize(
    "name, argv",
    [
        ("loose_sweep", ("--n", "6", "--k", "3", "--trials", "3", "--points", "3")),
        ("tight_sweep", ("--n", "8", "--k", "4", "--trials", "2", "--points", "2",
                         "--budget", "2000")),
    ],
)
def test_sweep_scripts_write_the_sweep_csv(monkeypatch, capsys, tmp_path, name, argv):
    code, out, err = run_script(monkeypatch, capsys, name, *argv)
    assert code == 0 and "crossing" in err
    assert csv_header(out) == SWEEP_CSV_COLUMNS
    assert len(out.splitlines()) == 1 + int(argv[argv.index("--points") + 1])
    # --out takes the same CSV instead of stdout
    path = tmp_path / "sweep.csv"
    code, again, _ = run_script(monkeypatch, capsys, name, *argv, "--out", str(path))
    assert (code, again) == (0, "")
    assert path.read_text() == out


def test_tight_sweep_resolves_its_density_to_a_color_count(monkeypatch, capsys):
    code, out, _ = run_script(
        monkeypatch, capsys, "tight_sweep",
        "--n", "8", "--k", "4", "--c", "3/2", "--trials", "1", "--points", "1",
        "--budget", "500",
    )
    assert code == 0
    row = dict(zip(SWEEP_CSV_COLUMNS, out.splitlines()[1].split(",")))
    assert row["r"] == "12"
    # the grid is centred on the density swept, r/n = 12/10, not on --c 5/4
    code, out, _ = run_script(
        monkeypatch, capsys, "tight_sweep",
        "--n", "10", "--c", "5/4", "--trials", "1", "--points", "1", "--budget", "500",
    )
    assert code == 0
    row = dict(zip(SWEEP_CSV_COLUMNS, out.splitlines()[1].split(",")))
    assert row["r"] == "12"
    assert float(row["p"]) == pytest.approx(0.5 * threshold_tight(4, Fraction(12, 10), 10))


def test_coupling_check_prints_the_outcome_record(monkeypatch, capsys):
    code, out, err = run_script(
        monkeypatch, capsys, "coupling_check", "--n", "6", "--k", "3", "--trials", "20"
    )
    record = json.loads(out)
    assert list(record) == [f.name for f in dataclasses.fields(CoupleOutcome)]
    assert code == (0 if record["holds"] else 1)
    assert "directed" in err


def test_moment_tables_prints_its_three_tables(monkeypatch, capsys):
    code, out, err = run_script(monkeypatch, capsys, "moment_tables")
    assert (code, err) == (0, "")
    assert out.startswith("log E(Y) at 0.9x / 1.1x the first-moment threshold\n")
    assert "relative error of the Stirling form" in out
    assert "tight-cycle threshold prefactor" in out
