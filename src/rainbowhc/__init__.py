"""Desk-scale lab for rainbow overlapping Hamilton cycles in randomly
colored random k-uniform hypergraphs: exact and asymptotic moment
calculators, an exact/budgeted cycle solver, model samplers with monotone
coupling, the color-vertex reduction, and a Monte Carlo sweep harness."""

__version__ = "0.1.0"

from .core import (
    ColoredHypergraph,
    CycleFailure,
    CycleSpec,
    Hamperm,
    RainbowCertificate,
    edges_of_hamperm,
    validate_cycle,
    verify_certificate,
)
from .chgio import read_chg, write_chg
from .errors import (
    InvalidCycle,
    InvalidInput,
    InvalidSpec,
    NoRealRoot,
    RainbowError,
    TooLarge,
)
from .models import (
    CoupledInstance,
    build_gamma,
    detect_color_collisions,
    find_gamma_cycle,
    gamma_cycle_from_certificate,
    gamma_cycle_to_rainbow,
    q_from_p,
    sample_colored,
    sample_directed,
)
from .moments import (
    K_constant,
    MomentParams,
    asymptotic_expected_Y,
    claim_derivative_sign,
    claim_f,
    claim_max,
    colors_at_density,
    exact_expected_Y,
    log_expected_Y,
    threshold_general,
    threshold_tight,
    tight_prefactor,
)
from .solver import (
    OverlapProfile,
    SearchOutcome,
    SearchStatus,
    count_hamperms,
    expected_Y_bruteforce,
    find_rainbow_cycle,
    overlap_profile,
    second_moment_bruteforce,
    second_moment_from_profile,
)
from .lab import (
    CoupleOutcome,
    SweepConfig,
    SweepResult,
    couple_experiment,
    estimate_crossing,
    make_grid,
    run_coupled_sweep,
    run_sweep,
    wilson_interval,
)

__all__ = [name for name in dir() if not name.startswith("_")]
