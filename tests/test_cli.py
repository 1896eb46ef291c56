import hashlib
import io
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from rainbowhc import build_gamma, read_chg, write_chg
from rainbowhc.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


EMPTY = sha256("")


# (command line, exit code, SHA-256 of stdout, SHA-256 of the --out file or
# None), run in order in one directory: later lines read the .chg files that
# earlier ones wrote, by relative path, since `solve` and `reduce` embed the
# input path in their output.  The `check` line validates the permutation
# that `solve` found on the dense directed instance, so the colours chosen
# for its multi-colour edges are pinned too.
PINNED_CALLS = (
    ("gen --n 8 --k 3 --r 4 --p 0.5 --seed 7", 0,
     "075eab414e74ca26e7b3d112830fe1a6eee5a20ebc8001a6665c0a9a1e1335a3",
     None),
    ("gen --n 8 --k 3 --r 4 --p 0.5 --seed 7 --out plain.chg", 0,
     EMPTY,
     "075eab414e74ca26e7b3d112830fe1a6eee5a20ebc8001a6665c0a9a1e1335a3"),
    ("gen --model coupled --n 8 --k 3 --r 4 --p 0.5 --seed 7", 0,
     "a36d28fc34ab3b9946e1bf1787b09c1eadb4b57da7b260f712dcb21d91ed6311",
     None),
    ("gen --model coupled --n 8 --k 3 --c 1/2 --p 0.6 --seed 2"
     " --out coupled.chg", 0,
     EMPTY,
     "0fdcf61f01300f56df685c8d126d0c77c01945aab9400509b9c2e66b8c6f05e9"),
    ("gen --model directed --n 8 --k 3 --r 4 --q 0.1 --seed 7", 0,
     "5ae590c78a4c97fcc7155df3563f917b341529cca1bb5995ccff932c94c782f3",
     None),
    ("gen --model directed --n 8 --k 3 --r 4 --q 0.3 --seed 3"
     " --out directed.chg", 0,
     EMPTY,
     "51b81dcd3d5878bce34bdf52f7940db8fde2e17bdac0151cca4e767d3342688a"),
    ("solve --infile plain.chg --ell 1", 0,
     "65826be92abddca68c40021906667b6d5aca697bbf88ec43151521dff66a5a36",
     None),
    ("solve --infile coupled.chg --ell 1 --mode budgeted --budget 5", 0,
     "c4df60348d518a3a629b1ddfcd82322ac84ad0e0caf36b06a16acdc52dd32fbe",
     None),
    ("solve --infile directed.chg --ell 1 --out solved.json", 0,
     EMPTY,
     "4f5ef75d996718f52fd86c8a619eaebc2e9bfa922ca8c525af0aa083010990d1"),
    ("check --infile directed.chg --ell 1 --perm 1,2,5,3,4,8,6,7", 0,
     "8771d2b588cd129eb8bcf7f82ddf73d9d22678d1d11101604366f89792b56e94",
     None),
    ("check --infile plain.chg --ell 1 --perm 2,1,3,4,5,6,7,8"
     " --out checked.json", 0,
     EMPTY,
     "debe3f6cd64d6a600d86e03e0cc5218430d6e6dc6707a932a9bf7ee041e00f52"),
    ("count --infile plain.chg --ell 1", 0,
     "a5906e36046c6bed577eca68843536226e1313abad1a401753cb2ade2a6bfa9a",
     None),
    ("count --infile directed.chg --ell 1 --out counted.json", 0,
     EMPTY,
     "08640e33d441866ca84f441dbd983eb7e4129f4525109f63b0061f1e6af113e5"),
    ("overlap --n 6 --k 3 --ell 1", 0,
     "d8f4834ef6a29e6aab136f2bfbfcf996e8bcda573de9a94efa497f62ea117a9a",
     None),
    ("overlap --n 6 --k 3 --ell 2 --format json --out overlap.json", 0,
     EMPTY,
     "b5e60ba685d1f98053a9d9e6766e11bc72a3f0f7499a4ab858add80cf1fdcc4b"),
    ("moments --n 100 --k 4 --ell 3 --c 2 --p 0.037", 0,
     "2b794e2bfa9c71fc4688ae085e1daf75b77f5ee60f242060e163571dd4aa4d6e",
     None),
    ("moments --n 30 --k 3 --ell 1 --r 20 --p 0.1 --format json"
     " --out moments.json", 0,
     EMPTY,
     "323be00de06eb0d031b3d4a942911f5e2142943f9744b50166111b4e5e07b5ae"),
    ("sweep --n 6 --k 3 --ell 1 --r 3 --p-grid 0.1:0.9:3 --trials 6 --seed 2", 0,
     "afd5ff62f8a9c1dd73d0941f1d9bd2698c0eac55142e39bbf837e7374d00720e",
     None),
    ("sweep --n 8 --k 3 --ell 1 --c 1/2 --p-grid 0.1:0.5:3:geometric"
     " --trials 4 --seed 5 --mode budgeted --budget 30 --format json --out sweep.json", 0,
     EMPTY,
     "88b60fbb59820cafbee28d91ea2ce843a1f210fe38cb33eb9211c006ce461e8b"),
    ("csweep --n 8 --k 4 --ell 3 --r 8 --p-grid 0.4:1.0:4 --trials 3 --seed 1", 0,
     "4f68e76b1ce760b0faf90bbfb8519a1227be258324ff79aa5b3cef63bac114cb",
     None),
    ("csweep --n 8 --k 4 --ell 3 --r 8 --p-grid 0.4:1.0:4 --trials 3"
     " --seed 1 --mode budgeted --budget 300 --format json --out csweep.json", 0,
     EMPTY,
     "163de9961b2f2158c941815bb4d20665b6c516cb7b4839d776ec4b8ae0af80c0"),
    ("reduce --infile plain.chg", 0,
     "755c4f44346001ad25fb01b28c000a67a117a9b4cca7a77ac085a8b3fbf27e1d",
     None),
    ("reduce --infile coupled.chg --out gamma.chg", 0,
     EMPTY,
     "067f5e4dd3458f3aa661e5279f92f12c6be07d745499a312a20e8ec3f7d08c27"),
    ("couple --n 6 --k 3 --p 0.05 --trials 20 --seed 3", 0,
     "63c3dcb05d9d56211c373d3f4bfe83e9b1f0c8d45c9694b060a498e6a237f574",
     None),
    ("couple --n 6 --k 3 --p 0.1 --trials 10 --seed 4 --workers 1"
     " --out couple.json", 0,
     EMPTY,
     "29e184d939dcaf6a26daf0aff2d1793d74687293696a5bdea35d7cc1cc106945"),
)

# (command line, exit code, stderr) of refused command lines, which write
# nothing to stdout
PINNED_ERRORS = (
    ("solve --infile plain.chg --ell 1 --budget 5", 1,
     "rainbowhc: error: a budget needs budgeted mode\n"),
    ("gen --model directed --n 8 --k 3 --r 4 --seed 1", 1,
     "rainbowhc: error: directed model needs --q\n"),
    ("solve --infile plain.chg", 1,
     "rainbowhc solve: error: the following arguments are required: --ell\n"),
)


def test_cli_outputs_are_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for line, *pins in PINNED_CALLS:
        argv = line.split()
        code, out, err = run(capsys, *argv)
        written = None
        if "--out" in argv:
            written = sha256((tmp_path / argv[argv.index("--out") + 1]).read_text())
        assert (line, code, sha256(out), written, err) == (line, *pins, "")
    for line, *pins in PINNED_ERRORS:
        code, out, err = run(capsys, *line.split())
        assert (line, code, err, out) == (line, *pins, "")


def test_readme_command_lines_parse():
    # every `rainbowhc ...` line in README.md's command blocks parses, so a
    # flag change that the README does not follow fails here
    import rainbowhc.cli as cli

    readme = Path(__file__).resolve().parent.parent / "README.md"
    in_block, lines = False, []
    for line in readme.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_block = not in_block
        elif in_block and line.startswith("rainbowhc "):
            lines.append(line)
    assert len(lines) >= 10
    for line in lines:
        try:
            cli._parser().parse_args(line.split()[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")


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


def test_solve_reports_the_comments_write_chg_wrote(tmp_path, capsys):
    chg = tmp_path / "h.chg"
    comments = ["#5 run", " leading space", "generator=test"]
    write_chg(read_chg(io.StringIO("6 3 3\n1 2 3 1\n")), chg, comments)
    code, out, _ = run(capsys, "solve", "--infile", str(chg), "--ell", "1")
    assert code == 0
    assert json.loads(out)["provenance"]["header"] == comments


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


def test_moments_below_the_color_boundary(capsys):
    # c < 1/(k-ell): the general and tight thresholds are undefined there, so
    # the table leaves them out instead of refusing the whole command
    for ell in ("2", "3"):
        code, out, err = run(
            capsys, "moments", "--n", "12", "--k", "4", "--ell", ell,
            "--c", "1/4", "--p", "0.1", "--format", "json",
        )
        assert (code, err) == (0, "")
        record = json.loads(out)
        # E(Y) = 0 here: its log, -inf, is written as null
        assert record["r"] == 3 and record["log_expected_Y"] is None
        assert "threshold_general" not in record and "threshold_tight" not in record


def _strict_json(text):
    """json.loads that refuses the non-standard NaN and Infinity tokens."""
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize(
    "argv, field",
    [
        ("--n 400 --k 200 --ell 199 --r 400 --p 0.5", "K_constant"),  # k! past floats
        ("--n 300 --k 150 --ell 149 --r 300 --p 0.5", "K_constant"),  # the product past them
        ("--n 12 --k 4 --ell 3 --r 11 --p 0.5", "log_expected_Y"),    # r < m: -inf
        # n^(k-ell) is past the float range, the threshold (~1e-265) is not
        ("--n 1030 --k 105 --ell 2 --r 1030 --p 0.5", "threshold_general"),
    ],
)
def test_moments_past_the_float_range(argv, field, capsys):
    code, text, err = run(capsys, "moments", *argv.split())
    assert (code, err) == (0, "")
    code, out, err = run(capsys, "moments", *argv.split(), "--format", "json")
    assert (code, err) == (0, "")
    value = _strict_json(out)[field]
    if field == "threshold_general":
        assert 0 < value < 1e-260
    else:
        # text keeps inf and -inf; JSON writes null
        assert value is None and any(
            line.split() in ([field, "inf"], [field, "-inf"]) for line in text.splitlines()
        )


def test_moments_scans_claim_max_up_to_n_100000(capsys):
    # claim_max scans b = 1..n; past n = 100,000 the record leaves it out
    argv = ["--k", "4", "--ell", "3", "--c", "2", "--p", "0.1", "--format", "json"]
    code, out, _ = run(capsys, "moments", "--n", "100001", *argv)
    assert code == 0 and "claim_max" not in json.loads(out)


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
    assert G == build_gamma(read_chg(chg))


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


@pytest.mark.parametrize("workers", ["1", "2"])
def test_couple_rejects_a_nan_density(capsys, workers):
    # q_from_p refuses it before any trial starts, pool or no pool
    code, out, err = run(
        capsys, "couple", "--n", "6", "--k", "3", "--p", "nan",
        "--trials", "4", "--seed", "3", "--workers", workers,
    )
    assert (code, out) == (1, "")
    assert "p must lie in [0, 1], got nan" in err


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
    # a zero-denominator color density is bad input too, not an internal error
    for argv in (
        ("moments", "--n", "10", "--k", "3", "--ell", "1", "--c", "1/0", "--p", "0.1"),
        ("gen", "--n", "8", "--k", "3", "--c", "1/0", "--p", "0.5"),
        ("moments", "--n", "10", "--k", "3", "--ell", "1", "--c", "abc", "--p", "0.1"),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 1 and "invalid Fraction value" in err, argv
    # more colors than an int64 slot holds is bad input, refused before any draw
    big = str(10**20)
    chg = tmp_path / "big.chg"
    chg.write_text(f"8 3 {big}\n1 2 3 {10**20 - 1}\n")
    for argv in (
        ("gen", "--n", "8", "--k", "3", "--r", big, "--p", "0.5"),
        ("gen", "--n", "8", "--k", "3", "--r", big, "--p", "0.5", "--model", "coupled"),
        ("gen", "--n", "8", "--k", "3", "--r", big, "--q", "0.05", "--model", "directed"),
        ("csweep", "--n", "8", "--k", "3", "--ell", "1", "--r", big,
         "--p-grid", "0.1:0.5:2", "--trials", "1"),
        ("sweep", "--n", "8", "--k", "3", "--ell", "1", "--r", big,
         "--p-grid", "0.1:0.5:2", "--trials", "1"),
        ("solve", "--infile", str(chg), "--ell", "1"),
        ("count", "--infile", str(chg), "--ell", "1"),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 1 and "2^63 - 1" in err, argv
    # an n or r whose log-factorial is past the float range is bad input:
    # no formula can take it
    for argv in (
        ("--n", str(10**310), "--c", "1"),
        ("--n", str(10**307), "--c", "1"),
        ("--n", "12", "--r", str(10**310)),
    ):
        code, _, err = run(capsys, "moments", *argv, "--k", "4", "--ell", "3", "--p", "0.5")
        assert code == 1 and "past the float range" in err, argv
    # a multi-color slot is a mask with a bit per color, so multi-color mode
    # refuses more than 2^16 colors before any draw or mask
    multi = tmp_path / "multi.chg"
    multi.write_text(f"8 3 {2**63 - 1} multi\n1 2 3 {2**63 - 2}\n")
    for argv in (
        ("gen", "--model", "directed", "--n", "8", "--k", "3", "--q", "0.05",
         "--r", str(2**63 - 1), "--seed", "1"),
        ("solve", "--infile", str(multi), "--ell", "1"),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 1 and "2^16" in err, argv
    # the largest color count an int64 slot holds is searched like any other
    top = str(2**63 - 1)
    for command in ("sweep", "csweep"):
        code, out, _ = run(capsys, command, "--n", "8", "--k", "3", "--ell", "1", "--r", top,
                           "--p-grid", "0.1:0.5:2", "--trials", "1")
        assert code == 0 and out.count(top) == 2, command
    # more grid points x trials than the lab holds is refused before the grid,
    # the tasks or the results are allocated
    tracemalloc.start()
    try:
        for argv in (
            ("csweep", "--n", "8", "--k", "3", "--ell", "1", "--r", "4",
             "--p-grid", "0.1:0.5:100000000", "--trials", "1"),
            ("sweep", "--n", "8", "--k", "3", "--ell", "1", "--r", "4",
             "--p-grid", "0.1:0.5:1000", "--trials", "501"),
            ("couple", "--n", "8", "--k", "3", "--p", "0.05", "--trials", "1000000000"),
        ):
            code, _, err = run(capsys, *argv)
            assert code == 1 and "500,000" in err, argv
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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


def test_cli_refuses_n_above_the_enumeration_cap(tmp_path, capsys):
    # n = 12 would enumerate 12! permutations: TooLarge, not an OOM
    code, out, err = run(capsys, "overlap", "--n", "12", "--k", "3", "--ell", "1")
    assert (code, out) == (1, "") and "limit 9" in err
    chg = tmp_path / "h.chg"
    run(capsys, "gen", "--n", "12", "--k", "3", "--r", "6", "--p", "0.3",
        "--seed", "1", "--out", str(chg))
    code, out, err = run(capsys, "count", "--infile", str(chg), "--ell", "1")
    assert (code, out) == (1, "") and "limit 9" in err
    # the cap is a constant: --limit is an unknown flag
    small = tmp_path / "small.chg"
    run(capsys, "gen", "--n", "6", "--k", "3", "--r", "3", "--p", "0.5", "--out", str(small))
    for argv in (("overlap", "--n", "6", "--k", "3"), ("count", "--infile", str(small))):
        code, out, err = run(capsys, *argv, "--ell", "1", "--limit", "5")
        assert (code, out) == (1, "") and "unrecognized arguments: --limit" in err


def test_directed_masks_past_the_bound_are_refused(capsys):
    # C(400, 2) k-sets, each present at q = 1, of up to 2^16 + 1 mask bits
    # exceed 2^32 bits: bad input (exit 1), not an OOM kill
    code, out, err = run(capsys, "gen", "--model", "directed", "--n", "400", "--k", "2",
                         "--r", "65536", "--q", "1", "--seed", "1")
    assert (code, out) == (1, "") and "2^32" in err


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


@pytest.mark.parametrize("points", ["1", "2"])
def test_unknown_grid_spacing_is_invalid_input(points, capsys):
    code, out, err = run(
        capsys, "sweep", "--n", "6", "--k", "3", "--ell", "1", "--r", "3",
        "--p-grid", f"0.3:0.1:{points}:bogus", "--trials", "2",
    )
    assert (code, out) == (1, "") and "unknown spacing 'bogus'" in err


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
