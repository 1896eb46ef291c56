"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to watch the lines appear;
statistical criteria use fixed seeds, so the whole gate is deterministic.
"""

import json
import math
from fractions import Fraction

import numpy as np

from rainbowhc import (
    ColoredHypergraph,
    CycleSpec,
    MomentParams,
    SweepConfig,
    asymptotic_expected_Y,
    build_gamma,
    claim_derivative_sign,
    claim_f,
    claim_max,
    count_hamperms,
    couple_experiment,
    detect_color_collisions,
    exact_expected_Y,
    expected_Y_bruteforce,
    find_gamma_cycle,
    find_rainbow_cycle,
    gamma_cycle_to_rainbow,
    log_expected_Y,
    overlap_profile,
    run_coupled_sweep,
    run_sweep,
    sample_colored,
    second_moment_bruteforce,
    second_moment_from_profile,
    threshold_general,
    threshold_tight,
    tight_prefactor,
    verify_certificate,
)
from rainbowhc.lab import coupled_outcome_matrix, sweep_csv_text
from rainbowhc.seeds import derive_seed

from conftest import direct_coupled_matrix, enumerate_specs


def _report(num: int, description: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] criterion {num}: {description}{suffix}")
    assert ok, f"criterion {num} failed{suffix}"


# -- 1. exact first moment ------------------------------------------------------

def test_criterion_01_exact_first_moment():
    failures = []
    specs = enumerate_specs(7)
    for spec in specs:
        for p in (Fraction(1, 2), Fraction(1)):
            for r in (spec.m, spec.m + 2):
                brute = expected_Y_bruteforce(spec, p, r)
                closed = exact_expected_Y(
                    MomentParams(spec.n, spec.k, spec.ell, p, r)
                )
                if brute != closed:
                    failures.append((spec, p, r))
    _report(
        1,
        "brute-force E(Y) equals the closed form exactly on all n <= 7 specs",
        not failures,
        f"{len(specs)} specs x 4 (p, r) pairs",
    )


# -- 2. Monte Carlo first moment --------------------------------------------------

def test_criterion_02_monte_carlo_first_moment():
    spec = CycleSpec(6, 3, 1)
    p, r, trials = 0.5, 3, 100_000
    exact = exact_expected_Y(MomentParams(6, 3, 1, Fraction(1, 2), 3))
    assert exact == 20
    ys = np.empty(trials)
    for t in range(trials):
        H = sample_colored(6, 3, p, r, seed=derive_seed(2001, t))
        ys[t] = count_hamperms(H, spec)[1]
    mean = ys.mean()
    se = ys.std(ddof=1) / math.sqrt(trials)
    ok = abs(mean - 20.0) <= 3 * se
    _report(
        2,
        "sample mean of Y over 1e5 instances within 3 SE of the exact 20",
        ok,
        f"mean={mean:.4f}, se={se:.4f}",
    )


# -- 3. second-moment identity -----------------------------------------------------

def test_criterion_03_second_moment_identity():
    failures = []
    specs = enumerate_specs(6)
    for spec in specs:
        profile = overlap_profile(spec)
        if profile.total() != math.factorial(spec.n):
            failures.append((spec, "total"))
            continue
        for p in (Fraction(1, 2), Fraction(1)):
            for r in (spec.m, spec.m + 2):
                if second_moment_from_profile(profile, p, r) != second_moment_bruteforce(spec, p, r):
                    failures.append((spec, p, r))
    _report(
        3,
        "profile E(Y^2) == pairwise brute force exactly and tables total n!",
        not failures,
        f"{len(specs)} specs",
    )


# -- 4. claim verification ----------------------------------------------------------

def test_criterion_04_claim_verification():
    problems = []
    n = 1000
    for c in (Fraction(11, 10), Fraction(2), Fraction(10)):
        b_star, value = claim_max(c, n)
        if b_star != n or abs(value - tight_prefactor(c)) > 1e-12:
            problems.append(f"scan c={c}")
        for i in range(1, 101):
            x = i / 100
            h = 1e-6
            fd = claim_f(float(c), x + h) - claim_f(float(c), x - h)
            if (fd > 0) != (claim_derivative_sign(float(c), x) > 0):
                problems.append(f"fd c={c} x={x}")
    if abs(tight_prefactor(Fraction(10**6 + 1, 10**6)) - 1.0) > 1e-4:
        problems.append("limit c->1+")
    if abs(tight_prefactor(10**6) - 1 / math.e) > 1e-6:
        problems.append("limit c->inf")
    _report(
        4,
        "b-scan max at b=n with ((c-1)/c)^(c-1), signs match FD, both limits",
        not problems,
        "; ".join(problems) if problems else "c in {1.1, 2, 10}, n=1000",
    )


# -- 5. asymptotic agreement ----------------------------------------------------------

def test_criterion_05_asymptotic_agreement():
    settings = [
        (Fraction(1), lambda n: math.e**2 / n),
        (Fraction(2), lambda n: threshold_tight(4, Fraction(2), n)),
    ]
    ok = True
    details = []
    for c, p_of_n in settings:
        errs = []
        for n in (30, 60, 120, 240):
            params = MomentParams.from_color_density(n, 4, 3, p_of_n(n), c)
            le = log_expected_Y(params)
            la = asymptotic_expected_Y(params)
            errs.append(abs(le - la) / abs(le))
        if not all(b < a for a, b in zip(errs, errs[1:])):
            ok = False
        details.append(f"c={c}: " + "->".join(f"{e:.1e}" for e in errs))
    _report(
        5,
        "log-space relative error decreases along n in {30, 60, 120, 240}",
        ok,
        "; ".join(details),
    )


# -- 6. first-moment threshold dichotomy -------------------------------------------------

def test_criterion_06_threshold_dichotomy():
    failures = []
    ns = (50, 100, 200, 400, 800)
    for k, ell, c in ((4, 3, Fraction(1)), (4, 3, Fraction(2)), (3, 2, Fraction(1)), (5, 3, Fraction(1, 2))):
        for factor, expect_increasing in ((0.9, False), (1.1, True)):
            vals = []
            for n in ns:
                p = factor * threshold_general(k, ell, c, n)
                vals.append(
                    log_expected_Y(MomentParams.from_color_density(n, k, ell, p, c))
                )
            monotone = (
                all(b > a for a, b in zip(vals, vals[1:]))
                if expect_increasing
                else all(b < a for a, b in zip(vals, vals[1:]))
            )
            signed = vals[-1] > 0 if expect_increasing else vals[-1] < 0
            if not (monotone and signed):
                failures.append((k, ell, str(c), factor))
    _report(
        6,
        "log E(Y) falls below 0 at 0.9x threshold and rises above 0 at 1.1x",
        not failures,
        "4 parameter triples x 2 sides, n up to 800",
    )


# -- 7. solver-oracle equivalence ----------------------------------------------------------

def test_criterion_07_solver_oracle_equivalence():
    pool = [
        (6, 3, 1), (6, 3, 2), (6, 4, 2), (6, 4, 3), (6, 5, 4),
        (7, 3, 2), (7, 4, 3), (8, 3, 1), (8, 3, 2), (8, 4, 2),
        (8, 5, 3), (8, 4, 3), (8, 6, 4),
    ]
    p_ladder = (0.1, 0.2, 0.3, 0.45, 0.6)
    mismatches = 0
    total = 0
    found = 0
    per_spec = -(-1000 // len(pool))
    for si, (n, k, ell) in enumerate(pool):
        spec = CycleSpec(n, k, ell)
        for t in range(per_spec):
            if total >= 1000:
                break
            r = spec.m + 2 * (t % 2)
            p = p_ladder[t % len(p_ladder)]
            H = sample_colored(n, k, p, r, seed=derive_seed(7007, si, t))
            outcome = find_rainbow_cycle(H, spec, mode="exhaustive")
            _x, y_count = count_hamperms(H, spec)
            total += 1
            found += outcome.found
            if outcome.found != (y_count > 0):
                mismatches += 1
            elif outcome.found and not verify_certificate(H, outcome.certificate):
                mismatches += 1
    _report(
        7,
        "exhaustive search existence matches the n!-enumeration oracle",
        mismatches == 0 and total == 1000,
        f"{total} instances, {found} found, {mismatches} mismatches",
    )


# -- 8. monotone coupling --------------------------------------------------------------------

def test_criterion_08_monotone_coupling():
    config = SweepConfig(
        n=8, k=3, ell=1, r=4,
        p_grid=tuple(0.08 + 0.05 * i for i in range(8)),
        trials=400, seed=808,
    )
    # one direct search per point, so the check does not lean on the
    # monotone inference coupled_outcome_matrix itself draws
    matrix = direct_coupled_matrix(config)
    pairs = violations = 0
    for row in matrix:
        founds = [s == "found" for s, _ in row]
        for i in range(len(founds)):
            for j in range(i + 1, len(founds)):
                pairs += 1
                if founds[i] and not founds[j]:
                    violations += 1
    rows = run_sweep(config)
    stat_ok = True
    for a, b in zip(rows, rows[1:]):
        pooled = math.sqrt(
            a.phat * (1 - a.phat) / a.trials + b.phat * (1 - b.phat) / b.trials
        )
        if b.phat < a.phat - 3 * pooled:
            stat_ok = False
    inferred = [[s for s, _ in row] for row in coupled_outcome_matrix(config)]
    same = inferred == [[s for s, _ in row] for row in matrix]
    ok = pairs >= 10_000 and violations == 0 and stat_ok and same
    _report(
        8,
        "coupled sweeps exactly monotone; uncoupled monotone within 3 SE",
        ok,
        f"{pairs} trial-pairs, {violations} violations, bisected statuses equal: {same}",
    )


# -- 9. gamma-reduction round trip --------------------------------------------------------------

def _restrict_to_x2(H: ColoredHypergraph, m: int) -> ColoredHypergraph:
    kept = {
        e: set(cs) for e, cs in H.items() if sum(1 for v in e if v <= m) == 2
    }
    return ColoredHypergraph(H.n, H.k, H.r, kept)


def _plant_x_cycle(rng: np.random.Generator, n: int, k: int) -> list[tuple[tuple[int, ...], int]]:
    m = n // (k - 1)
    xs = [1] + [int(v) for v in rng.permutation(np.arange(2, m + 1))]
    ys = [int(v) for v in rng.permutation(np.arange(m + 1, n + 1))]
    colors = [int(c) for c in rng.permutation(np.arange(1, m + 1))]
    planted = []
    for i in range(m):
        interior = ys[i * (k - 2) : (i + 1) * (k - 2)]
        edge = tuple(sorted([xs[i], xs[(i + 1) % m], *interior]))
        planted.append((edge, colors[i]))
    return planted


def test_criterion_09_gamma_round_trip():
    cases = [(6, 3), (12, 3), (9, 4)]
    rng = np.random.default_rng(909)
    total = mismatches = verify_failures = collision_misses = 0
    found_cases = 0
    while total < 200:
        n, k = cases[total % len(cases)]
        m = n // (k - 1)
        spec = CycleSpec(n, k, 1)
        plant = total % 2 == 0
        p_noise = 0.08 if plant else float(rng.uniform(0.05, 0.5))
        H_raw = sample_colored(n, k, p_noise, m, seed=int(rng.integers(2**63)))
        pairs = {e: next(iter(cs)) for e, cs in H_raw.items()}
        if plant:
            pairs.update(dict(_plant_x_cycle(rng, n, k)))
        H = ColoredHypergraph(n, k, m, {e: {c} for e, c in pairs.items()})
        H2 = _restrict_to_x2(H, m)
        G = build_gamma(H2)

        base_found = find_rainbow_cycle(H2, spec, mode="exhaustive").found
        gamma_cycle = find_gamma_cycle(G)
        if base_found != (gamma_cycle is not None):
            mismatches += 1
        if gamma_cycle is not None:
            found_cases += 1
            cert = gamma_cycle_to_rainbow(G, gamma_cycle)
            if not (verify_certificate(H2, cert) and verify_certificate(H, cert)):
                verify_failures += 1
        # plant a same-base-kset collision and demand detection
        if G.edges:
            victim = G.edges[0]
            z = victim[-1]
            other_z = n + 1 + (z - n) % m
            twin = tuple(sorted(victim[:-1] + (other_z,)))
            if twin != victim:
                reported = detect_color_collisions(list(G.edges) + [twin])
                pair = (victim, twin) if victim <= twin else (twin, victim)
                if pair not in reported:
                    collision_misses += 1
        total += 1
    ok = mismatches == 0 and verify_failures == 0 and collision_misses == 0
    _report(
        9,
        "rainbow loose HC exists iff the reduced graph has an X-cycle that "
        "maps back to a verified certificate; planted collisions all flagged",
        ok,
        f"{total} instances, {found_cases} with cycles, "
        f"{mismatches}/{verify_failures}/{collision_misses} bad",
    )


# -- 10. directed-model coupling inequality ------------------------------------------------------

def test_criterion_10_coupling_inequality():
    outcome = couple_experiment(8, 3, 0.05, 10_000, seed=1010)
    ok = outcome.phat_directed >= outcome.phat_undirected - 2 * outcome.pooled_se
    _report(
        10,
        "directed phat at q(p) dominates undirected phat within 2 pooled SE",
        ok and outcome.holds,
        f"undirected={outcome.phat_undirected:.4f}, directed={outcome.phat_directed:.4f}",
    )


# -- 11. determinism --------------------------------------------------------------------------------

def test_criterion_11_determinism():
    def csv_for(run, workers: int) -> str:
        config = SweepConfig(
            n=6, k=3, ell=1, r=3,
            p_grid=(0.1, 0.3, 0.5, 0.7, 0.9),
            trials=40, seed=1111, workers=workers,
        )
        return sweep_csv_text(config, run(config))

    first = csv_for(run_sweep, 1)
    ok = all(csv_for(run_sweep, w) == first for w in (1, 2, 4))
    # csweep realizes through a per-process cache of coupled arrays
    coupled = csv_for(run_coupled_sweep, 1)
    ok = ok and all(csv_for(run_coupled_sweep, w) == coupled for w in (1, 2))

    def couple_json(workers: int) -> str:
        outcome = couple_experiment(6, 3, 0.06, 200, seed=1111, workers=workers)
        return json.dumps(outcome.to_record(), indent=2)

    couple = couple_json(1)
    ok = ok and all(couple_json(w) == couple for w in (1, 2))
    _report(
        11,
        "sweep and csweep CSV and couple JSON byte-identical across reruns "
        "and worker counts",
        ok,
        f"{len(first.splitlines()) - 1} rows",
    )
