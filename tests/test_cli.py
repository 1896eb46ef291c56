import json
import subprocess
import sys
from pathlib import Path

import pytest

from rainbowhc import read_chg
from rainbowhc.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_writes_chg(tmp_path, capsys):
    out = tmp_path / "h.chg"
    code, _, _ = run(
        capsys, "gen", "--n", "6", "--k", "3", "--r", "3",
        "--p", "0.5", "--seed", "4", "--out", str(out),
    )
    assert code == 0
    H = read_chg(out)
    assert (H.n, H.k, H.r) == (6, 3, 3)
    text = out.read_text()
    assert "generator=sample_colored" in text
    assert "seed=4" in text


def test_gen_models(tmp_path, capsys):
    for extra in (
        ["--model", "coupled", "--p", "0.3"],
        ["--model", "directed", "--q", "0.1"],
    ):
        out = tmp_path / "m.chg"
        code, _, _ = run(
            capsys, "gen", "--n", "6", "--k", "3", "--r", "3",
            "--seed", "1", "--out", str(out), *extra,
        )
        assert code == 0
        read_chg(out)


def test_gen_c_flag(tmp_path, capsys):
    out = tmp_path / "c.chg"
    code, _, _ = run(
        capsys, "gen", "--n", "6", "--k", "3", "--c", "1/2",
        "--p", "0.5", "--out", str(out),
    )
    assert code == 0
    assert read_chg(out).r == 3


def test_solve_and_check_pipeline(tmp_path, capsys):
    chg = tmp_path / "h.chg"
    code, _, _ = run(
        capsys, "gen", "--n", "6", "--k", "3", "--r", "20",
        "--p", "1.0", "--out", str(chg),
    )
    assert code == 0
    code, out, _ = run(capsys, "solve", "--infile", str(chg), "--ell", "1")
    assert code == 0
    record = json.loads(out)
    assert record["status"] == "found"
    assert record["provenance"]["source"] == str(chg)
    perm = ",".join(str(v) for v in record["certificate"]["permutation"])
    code, out, _ = run(capsys, "check", "--infile", str(chg), "--ell", "1", "--perm", perm)
    assert code == 0
    verdict = json.loads(out)
    assert verdict["valid"] is True
    code, out, _ = run(
        capsys, "check", "--infile", str(chg), "--ell", "1", "--perm", "2,1,3,4,5,6"
    )
    assert code == 0
    assert json.loads(out)["valid"] in (True, False)


def test_count_command(tmp_path, capsys):
    chg = tmp_path / "h.chg"
    run(capsys, "gen", "--n", "6", "--k", "3", "--r", "3", "--p", "0.6",
        "--seed", "2", "--out", str(chg))
    code, out, _ = run(capsys, "count", "--infile", str(chg), "--ell", "1")
    assert code == 0
    record = json.loads(out)
    assert record["X_count"] >= record["Y_count"] >= 0


def test_overlap_command(capsys):
    code, out, _ = run(capsys, "overlap", "--n", "4", "--k", "3", "--ell", "2")
    assert code == 0
    assert out.splitlines() == ["b,a,count", "4,1,24"]
    code, out, _ = run(
        capsys, "overlap", "--n", "4", "--k", "3", "--ell", "2", "--format", "json"
    )
    record = json.loads(out)
    assert record["total"] == 24


def test_moments_command(capsys):
    code, out, _ = run(
        capsys, "moments", "--n", "100", "--k", "4", "--ell", "3",
        "--c", "2", "--p", "0.03", "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["m"] == 100 and record["r"] == 200
    assert "threshold_tight" in record and "K_constant" in record
    assert record["claim_max"]["b"] == 100


def test_sweep_commands(tmp_path, capsys):
    args = [
        "--n", "6", "--k", "3", "--ell", "1", "--r", "3",
        "--p-grid", "0.1:0.9:3", "--trials", "6", "--seed", "2",
    ]
    code, out_sweep, _ = run(capsys, "sweep", *args)
    assert code == 0
    lines = out_sweep.strip().split("\n")
    assert lines[0].startswith("n,k,ell,r,p,")
    assert len(lines) == 4
    code, out_json, _ = run(capsys, "csweep", *args, "--format", "json")
    assert code == 0
    rows = json.loads(out_json)
    assert [row["p"] for row in rows] == [0.1, 0.5, 0.9]
    phats = [row["phat"] for row in rows]
    assert phats == sorted(phats)


def test_sweep_deterministic_across_workers(capsys):
    args = [
        "--n", "6", "--k", "3", "--ell", "1", "--r", "3",
        "--p-grid", "0.2:0.8:3", "--trials", "8", "--seed", "13",
    ]
    _, out1, _ = run(capsys, "sweep", *args, "--workers", "1")
    _, out2, _ = run(capsys, "sweep", *args, "--workers", "2")
    assert out1 == out2


def test_reduce_command(tmp_path, capsys):
    chg = tmp_path / "base.chg"
    run(capsys, "gen", "--n", "6", "--k", "3", "--r", "3", "--p", "0.7",
        "--seed", "6", "--out", str(chg))
    gamma = tmp_path / "gamma.chg"
    code, _, _ = run(capsys, "reduce", "--infile", str(chg), "--out", str(gamma))
    assert code == 0
    G = read_chg(gamma)
    assert (G.n, G.k) == (9, 4)


def test_couple_command(capsys):
    code, out, _ = run(
        capsys, "couple", "--n", "6", "--k", "3", "--p", "0.05",
        "--trials", "50", "--seed", "3",
    )
    assert code == 0
    record = json.loads(out)
    # q = 2p / (1 + sqrt(1 - 8p)) = 0.1 / (1 + sqrt(0.6))
    assert record["q"] == pytest.approx(0.0563508326896291, abs=1e-12)
    assert record["trials"] == 50


def test_exit_codes(tmp_path, capsys):
    # invalid input -> 1
    code, _, err = run(capsys, "gen", "--n", "4", "--k", "9", "--r", "2", "--p", "0.5")
    assert code == 1 and "error" in err
    code, _, err = run(
        capsys, "gen", "--n", "6", "--k", "3", "--r", "0", "--p", "0.5", "--model", "coupled"
    )
    assert code == 1 and "error" in err
    code, _, _ = run(capsys, "solve", "--infile", str(tmp_path / "nope.chg"), "--ell", "1")
    assert code == 1
    # bad flags -> 1 as well (argparse rerouted)
    code, _, _ = run(capsys, "sweep", "--n", "6")
    assert code == 1
    code, _, _ = run(capsys, "nonsense")
    assert code == 1


def test_budget_without_budgeted_mode_is_invalid_input(tmp_path, capsys):
    chg = tmp_path / "h.chg"
    run(capsys, "gen", "--n", "6", "--k", "3", "--r", "3", "--p", "0.6",
        "--seed", "2", "--out", str(chg))
    code, out, err = run(capsys, "solve", "--infile", str(chg), "--ell", "1", "--budget", "5")
    assert (code, out) == (1, "") and "budget" in err
    code, _, _ = run(
        capsys, "solve", "--infile", str(chg), "--ell", "1", "--mode", "budgeted",
        "--budget", "5",
    )
    assert code == 0
    args = ["--n", "6", "--k", "3", "--ell", "1", "--r", "3", "--p-grid", "0.2:0.8:3",
            "--trials", "2", "--budget", "5"]
    for command in ("sweep", "csweep"):
        code, out, err = run(capsys, command, *args)
        assert (code, out) == (1, "") and "budget" in err, command
        code, _, _ = run(capsys, command, *args, "--mode", "budgeted")
        assert code == 0, command


def test_limit_cannot_raise_the_enumeration_cap(tmp_path, capsys):
    # n = 12 would enumerate 12! permutations: TooLarge, not an OOM
    code, out, err = run(
        capsys, "overlap", "--n", "12", "--k", "3", "--ell", "1", "--limit", "12"
    )
    assert (code, out) == (1, "") and "limit 9" in err
    chg = tmp_path / "h.chg"
    run(capsys, "gen", "--n", "12", "--k", "3", "--r", "6", "--p", "0.3",
        "--seed", "1", "--out", str(chg))
    code, out, err = run(capsys, "count", "--infile", str(chg), "--ell", "1", "--limit", "12")
    assert (code, out) == (1, "") and "limit 9" in err
    # a limit below the cap still applies
    code, _, err = run(capsys, "overlap", "--n", "6", "--k", "3", "--ell", "1", "--limit", "5")
    assert code == 1 and "limit 5" in err


def test_import_leaves_the_process_pool_unimported():
    # only a sweep with workers > 1 needs concurrent.futures (and with it
    # multiprocessing), so importing the CLI does not pay for it
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import rainbowhc.cli; "
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


def test_unparsable_grid_is_invalid_input(capsys):
    code, _, err = run(
        capsys, "sweep", "--n", "6", "--k", "3", "--ell", "1", "--r", "3",
        "--p-grid", "low:0.5:3", "--trials", "2",
    )
    assert code == 1 and "--p-grid" in err


def test_internal_value_error_exits_2(monkeypatch, capsys):
    # a bare ValueError is a bug in the program, not bad input
    import rainbowhc.cli as cli

    def broken(args):
        raise ValueError("internal failure")

    monkeypatch.setattr(cli, "_cmd_overlap", broken)
    code, _, err = run(capsys, "overlap", "--n", "4", "--k", "3", "--ell", "2")
    assert code == 2 and "internal error" in err


def test_cached_parser_gives_what_a_fresh_one_gives(capsys):
    # main builds its parser once per process; consecutive commands, bad
    # input among them, must read as they would through a fresh parser
    import rainbowhc.cli as cli

    calls = [
        ("overlap", "--n", "4", "--k", "3", "--ell", "2"),
        ("sweep", "--n", "6", "--k", "3", "--ell", "1", "--r", "3",
         "--p-grid", "0.2:0.8:3", "--trials", "3", "--seed", "1"),
        ("gen", "--n", "4", "--k", "9", "--r", "2", "--p", "0.5"),
        ("csweep", "--n", "6", "--k", "3", "--ell", "1", "--r", "3",
         "--p-grid", "0.2:0.8:3", "--trials", "3", "--seed", "1", "--format", "json"),
        ("sweep", "--n", "6"),
        ("moments", "--n", "20", "--k", "4", "--ell", "3", "--c", "1", "--p", "0.3"),
        ("couple", "--n", "6", "--k", "3", "--p", "0.05", "--trials", "5", "--seed", "2"),
    ]
    cached = [run(capsys, *argv) for argv in calls]
    assert cli._parser() is cli._parser()
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert cached == fresh
    assert [code for code, _, _ in cached] == [0, 0, 1, 0, 1, 0, 0]


def test_version(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.strip()
