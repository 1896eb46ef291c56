import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowhc import (
    CoupleOutcome,
    InvalidInput,
    NoRealRoot,
    SweepConfig,
    SweepResult,
    couple_experiment,
    estimate_crossing,
    make_grid,
    run_coupled_sweep,
    run_sweep,
    wilson_interval,
)
from rainbowhc.lab import coupled_outcome_matrix, sweep_csv_text, sweep_records

from conftest import direct_coupled_matrix


def small_config(**overrides):
    base = dict(
        n=6, k=3, ell=1, p_grid=(0.1, 0.4, 0.8), trials=20, seed=11, r=3
    )
    base.update(overrides)
    return SweepConfig(**base)


# -- config validation --------------------------------------------------------

def test_config_validation():
    with pytest.raises(InvalidInput):
        small_config(p_grid=(0.4, 0.1))  # not increasing
    with pytest.raises(InvalidInput):
        small_config(p_grid=(0.1, 1.4))  # outside [0, 1]
    with pytest.raises(InvalidInput):
        small_config(trials=0)
    with pytest.raises(InvalidInput):
        small_config(r=None)  # neither r nor c
    with pytest.raises(InvalidInput):
        small_config(c=Fraction(1, 2))  # both r and c
    with pytest.raises(InvalidInput):
        small_config(solver_mode="budgeted")  # missing budget
    with pytest.raises(Exception):
        small_config(n=7)  # divisibility


def test_config_density_resolution():
    cfg = small_config(r=None, c=Fraction(1, 2))
    assert cfg.resolved_r == 3


# -- grid ----------------------------------------------------------------------

def test_make_grid_linear_and_geometric():
    lin = make_grid(0.1, 0.5, 5)
    assert lin == (0.1, 0.2, 0.30000000000000004, 0.4, 0.5)
    geo = make_grid(0.01, 0.16, 5, "geometric")
    assert geo[0] == pytest.approx(0.01)
    assert geo[-1] == pytest.approx(0.16)
    ratios = [b / a for a, b in zip(geo, geo[1:])]
    assert all(r == pytest.approx(2.0) for r in ratios)
    assert make_grid(0.3, 0.9, 1) == (0.3,)
    with pytest.raises(InvalidInput):
        make_grid(0.5, 0.1, 3)
    with pytest.raises(InvalidInput):
        make_grid(0.0, 0.5, 3, "geometric")


# -- Wilson intervals ------------------------------------------------------------

def test_wilson_basic_bounds():
    lo, hi = wilson_interval(0, 50)
    assert lo == 0.0 and 0 < hi < 0.12
    lo, hi = wilson_interval(50, 50)
    assert hi == 1.0 and 0.88 < lo < 1
    assert wilson_interval(0, 0) == (0.0, 1.0)


@given(st.integers(1, 400), st.integers(0, 400))
@settings(max_examples=300, deadline=None)
def test_wilson_contains_phat(trials, successes):
    successes = min(successes, trials)
    lo, hi = wilson_interval(successes, trials)
    phat = successes / trials
    assert 0.0 <= lo <= phat <= hi <= 1.0


def test_wilson_coverage():
    # 95% interval covers the truth in >= 93% of synthetic repetitions
    rng = np.random.default_rng(2024)
    p_true, trials, reps = 0.3, 60, 10_000
    covered = 0
    draws = rng.binomial(trials, p_true, size=reps)
    for successes in draws:
        lo, hi = wilson_interval(int(successes), trials)
        covered += lo <= p_true <= hi
    assert covered / reps >= 0.93


# -- run_sweep --------------------------------------------------------------------

def test_sweep_extremes_complete_colors():
    # r >= C(n,k): every found cycle is rainbow; p=0 and p=1 are forced
    cfg = SweepConfig(
        n=6, k=3, ell=1, p_grid=(0.0, 1.0), trials=10, seed=3, r=20
    )
    rows = run_sweep(cfg)
    assert rows[0].phat == 0.0 and rows[0].found == 0
    assert rows[1].phat == 1.0 and rows[1].found == 10


def test_sweep_row_accounting():
    rows = run_sweep(small_config(trials=25))
    for row in rows:
        assert row.found + row.not_found + row.unknown == row.trials == 25
        assert 0 <= row.ci_lo <= row.phat <= row.ci_hi <= 1


def test_sweep_deterministic_across_worker_counts():
    cfg1 = small_config(workers=1)
    cfg2 = small_config(workers=2)
    cfg3 = small_config(workers=3)
    csv1 = sweep_csv_text(cfg1, run_sweep(cfg1))
    csv2 = sweep_csv_text(cfg2, run_sweep(cfg2))
    csv3 = sweep_csv_text(cfg3, run_sweep(cfg3))
    assert csv1 == csv2 == csv3
    # and across repeated runs
    assert csv1 == sweep_csv_text(cfg1, run_sweep(cfg1))


def test_sweep_budgeted_reports_unknown_not_abort():
    cfg = SweepConfig(
        n=8, k=3, ell=1, p_grid=(0.3, 0.5), trials=15, seed=9, r=4,
        solver_mode="budgeted", budget=5,
    )
    rows = run_sweep(cfg)
    assert all(row.found + row.not_found + row.unknown == 15 for row in rows)
    assert any(row.unknown > 0 for row in rows)
    for row in rows:
        effective = row.trials - row.unknown
        if effective:
            assert row.phat == row.found / effective


def test_sweep_csv_shape():
    cfg = small_config(trials=5)
    text = sweep_csv_text(cfg, run_sweep(cfg))
    lines = text.strip().split("\n")
    assert lines[0] == "n,k,ell,r,p,trials,found,not_found,unknown,phat,ci_lo,ci_hi,mean_nodes"
    assert len(lines) == 1 + len(cfg.p_grid)
    assert all(line.split(",")[0] == "6" for line in lines[1:])
    records = sweep_records(cfg, run_sweep(cfg))
    assert records[0]["r"] == 3 and records[0]["trials"] == 5


# -- coupled sweep -------------------------------------------------------------------

def test_coupled_sweep_exactly_monotone_per_trial():
    cfg = small_config(p_grid=(0.1, 0.3, 0.5, 0.7), trials=40)
    matrix = direct_coupled_matrix(cfg)
    for row in matrix:
        founds = [s == "found" for s, _ in row]
        for i in range(len(founds)):
            for j in range(i + 1, len(founds)):
                assert not (founds[i] and not founds[j])
    bisected = coupled_outcome_matrix(cfg)
    assert [[s for s, _ in row] for row in bisected] == [[s for s, _ in row] for row in matrix]


def test_coupled_budgeted_inference_never_contradicts_exhaustive():
    # tight (10, 4, 3) instances with a budget that censors about half the
    # per-point searches
    cfg = SweepConfig(
        n=10, k=4, ell=3, r=10, p_grid=tuple(0.37 + 0.09 * i for i in range(8)),
        trials=12, seed=2, solver_mode="budgeted", budget=5000,
    )
    bisected = coupled_outcome_matrix(cfg)
    per_point = direct_coupled_matrix(cfg)
    exhaustive = direct_coupled_matrix(replace(cfg, solver_mode="exhaustive", budget=None))
    inferred = rescued = 0
    for row, direct, truth in zip(bisected, per_point, exhaustive):
        for cell, (d_status, d_nodes), (true_status, _) in zip(row, direct, truth):
            status, nodes = cell
            assert status in (true_status, "unknown")
            assert status != "unknown" or d_status == "unknown"
            # a point is either searched exactly as alone, or settled at 0 nodes
            assert cell == (d_status, d_nodes) or (nodes == 0 and status == true_status)
            if cell != (d_status, d_nodes):
                inferred += 1
                rescued += d_status == "unknown"
    assert inferred > 0 and rescued > 0


# `csweep --n 8 --k 3 --ell 1 --r 4 --p-grid 0.05:0.5:8 --trials 20 --seed 1`
# from per-point searches, without its mean_nodes column
CSWEEP_PIN = """\
n,k,ell,r,p,trials,found,not_found,unknown,phat,ci_lo,ci_hi
8,3,1,4,0.05,20,0,20,0,0.0,0.0,0.16113012549493322
8,3,1,4,0.1142857142857143,20,1,19,0,0.05,0.008881219432873136,0.23613589351256675
8,3,1,4,0.1785714285714286,20,4,16,0,0.2,0.0806563532712,0.41602172202575993
8,3,1,4,0.24285714285714288,20,11,9,0,0.55,0.3420820083075997,0.7418049791429071
8,3,1,4,0.30714285714285716,20,17,3,0,0.85,0.6395767041130426,0.9476322080405041
8,3,1,4,0.37142857142857144,20,19,1,0,0.95,0.7638641064874331,0.9911187805671268
8,3,1,4,0.4357142857142858,20,19,1,0,0.95,0.7638641064874331,0.9911187805671268
8,3,1,4,0.5000000000000001,20,20,0,0,1.0,0.8388698745050667,1.0
"""


def test_coupled_sweep_csv_pinned_except_mean_nodes():
    texts = []
    for workers in (1, 2):
        cfg = SweepConfig(
            n=8, k=3, ell=1, r=4, p_grid=make_grid(0.05, 0.5, 8), trials=20, seed=1,
            workers=workers,
        )
        texts.append(sweep_csv_text(cfg, run_coupled_sweep(cfg)))
    assert texts[0] == texts[1]
    stripped = "".join(line.rsplit(",", 1)[0] + "\n" for line in texts[0].splitlines())
    assert stripped == CSWEEP_PIN


def test_coupled_sweep_phat_nondecreasing():
    cfg = small_config(p_grid=(0.1, 0.3, 0.5, 0.7), trials=40)
    rows = run_coupled_sweep(cfg)
    phats = [row.phat for row in rows]
    assert all(b >= a for a, b in zip(phats, phats[1:]))


def test_coupled_sweep_matches_uncoupled_in_distribution():
    cfg = small_config(trials=150)
    rows_u = run_sweep(cfg)
    rows_c = run_coupled_sweep(cfg)
    for ru, rc in zip(rows_u, rows_c):
        pooled = math.sqrt(
            ru.phat * (1 - ru.phat) / ru.trials + rc.phat * (1 - rc.phat) / rc.trials
        )
        assert abs(ru.phat - rc.phat) <= 3 * pooled + 1e-9


def test_coupled_sweep_deterministic_across_workers():
    cfg1 = small_config(workers=1)
    cfg2 = small_config(workers=2)
    assert run_coupled_sweep(cfg1) == run_coupled_sweep(cfg2)


# -- couple experiment -----------------------------------------------------------------

def test_couple_p_zero():
    out = couple_experiment(6, 3, 0.0, 50, seed=1)
    assert out.phat_undirected == 0.0 and out.phat_directed == 0.0
    assert out.q == 0.0
    assert out.holds


def test_couple_q_satisfies_quadratic():
    out = couple_experiment(6, 3, 0.05, 10, seed=1)
    assert abs((out.q - 2 * out.q**2) - 0.05) < 1e-12


def test_couple_requires_divisibility_and_root():
    with pytest.raises(InvalidInput):
        couple_experiment(7, 3, 0.05, 10, seed=1)
    with pytest.raises(NoRealRoot):
        couple_experiment(6, 3, 0.2, 10, seed=1)
    with pytest.raises(InvalidInput):
        couple_experiment(6, 3, 0.05, 10, seed=1, workers=0)


def test_couple_inequality_small():
    out = couple_experiment(6, 3, 0.06, 800, seed=5)
    assert isinstance(out, CoupleOutcome)
    assert out.holds
    assert out.phat_directed >= out.phat_undirected - 2 * out.pooled_se
    record = out.to_record()
    assert record["trials"] == 800


# -- crossing estimation ------------------------------------------------------------------

def _row(p, phat):
    return SweepResult(
        p=p, trials=10, found=int(10 * phat), not_found=10 - int(10 * phat),
        unknown=0, phat=phat, ci_lo=0.0, ci_hi=1.0, mean_nodes=0.0,
    )


def test_crossing_midpoint():
    assert estimate_crossing([_row(0.1, 0.0), _row(0.2, 1.0)]) == pytest.approx(0.15)


def test_crossing_no_bracket():
    assert estimate_crossing([_row(0.1, 0.0), _row(0.2, 0.0)]) is None
    assert estimate_crossing([_row(0.1, 0.9), _row(0.2, 1.0)]) is None


def test_crossing_exact_hit():
    assert estimate_crossing([_row(0.1, 0.2), _row(0.3, 0.5), _row(0.5, 0.9)]) == 0.3


def test_crossing_requires_sorted():
    with pytest.raises(InvalidInput):
        estimate_crossing([_row(0.3, 0.1), _row(0.1, 0.9)])


def test_crossing_synthetic_logistic():
    # synthesize a logistic curve, invert, recover the midpoint to a grid step
    mid, scale = 0.37, 0.04
    grid = [0.2 + 0.02 * i for i in range(20)]
    rows = [(p, 1 / (1 + math.exp(-(p - mid) / scale))) for p in grid]
    est = estimate_crossing(rows)
    assert est is not None
    assert abs(est - mid) <= 0.02
