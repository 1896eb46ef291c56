"""Moment formulas, threshold functions, and the extremal color-ratio claim.

The exact first moment of the rainbow-cycle count is

    E(Y) = n! * p^m * (r)_m / r^m,        m = n/(k-ell),

with (x)_t the falling factorial: the m induced edges must be present and
their colors pairwise distinct.  Exact rational evaluation exists for oracle
cross-checks at tiny n; everything large runs in natural-log space through
log-gamma, since n! overflows immediately otherwise.

Threshold expressions are returned bare, without (1 +/- eps) factors; a
caller probing either side of a threshold multiplies by its own factor.
Every formula returns a float for every input it accepts: inf above the
float range, 0.0 below it.  MomentParams accepts only an n and r whose
log-factorial is a float, so no formula meets inf - inf.
A color density c becomes the color count r = floor(c*n) in
colors_at_density, the one place that rounds.  The color-ratio claim
machinery evaluates f(x) = ((c-x)/c)^((c-x)/x) and its derivative sign,
which drives the maximum-at-b=n argument behind the tight-cycle threshold
prefactor ((c-1)/c)^(c-1).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .core import CycleSpec, check_probability
from .errors import InvalidInput

Rational = Union[int, float, Fraction]


def colors_at_density(n: int, c: Rational) -> int:
    """The color count r = floor(c*n) of color density c on n vertices."""
    return int(Fraction(c) * n)


@dataclass(frozen=True)
class MomentParams:
    """Inputs of the moment formulas and oracles: cycle geometry plus (p, r),
    p in [0, 1] and r >= 1, with no slot bound on r (see core.check_colors).
    log(n!) and log(r!) must be floats: n and r up to about 2.5e305."""

    n: int
    k: int
    ell: int
    p: Rational
    r: int

    def __post_init__(self) -> None:
        CycleSpec(self.n, self.k, self.ell)  # validates geometry
        if self.r < 1:
            raise InvalidInput(f"need r >= 1, got {self.r}")
        for name, value in (("n", self.n), ("r", self.r)):
            try:
                math.lgamma(value + 1)
            except OverflowError:
                raise InvalidInput(f"log({name}!) is past the float range") from None
        check_probability(self.p)

    @property
    def m(self) -> int:
        return self.n // (self.k - self.ell)

    @property
    def c(self) -> Fraction:
        """Color density r/n as an exact rational."""
        return Fraction(self.r, self.n)

    @classmethod
    def from_color_density(
        cls, n: int, k: int, ell: int, p: Rational, c: Rational
    ) -> "MomentParams":
        """Parameters with r = colors_at_density(n, c)."""
        return cls(n, k, ell, p, colors_at_density(n, c))


def exact_expected_Y(params: MomentParams) -> Fraction:
    """n! * p^m * (r)_m / r^m as an exact rational (modest n only)."""
    p = Fraction(params.p)
    m, r = params.m, params.r
    return (
        math.factorial(params.n)
        * p**m
        * Fraction(math.perm(r, m), r**m)
    )


def log_expected_Y(params: MomentParams) -> float:
    """Natural log of E(Y) via log-gamma; -inf when p = 0 or r < m."""
    m, r = params.m, params.r
    p = float(params.p)
    if p == 0.0 or r < m:
        return float("-inf")
    return (
        math.lgamma(params.n + 1)
        + m * math.log(p)
        + math.lgamma(r + 1)
        - math.lgamma(r - m + 1)
        - m * math.log(r)
    )


def asymptotic_expected_Y(params: MomentParams) -> float:
    """Log of the Stirling approximation of E(Y).

    Two branches on the color density c = r/n: at the rainbow-feasibility
    boundary c = 1/(k-ell) the prefactor is 2*pi*n*sqrt(1/(k-ell)); above it,
    sqrt(2*pi*n*r/(r-m)) with an extra (c/(c-1/(k-ell)))^(c-1/(k-ell))
    factor inside the n-th power.  The boundary case must use its own branch:
    the dense-side prefactor divides by r - m.
    """
    n, m, r = params.n, params.m, params.r
    c = params.c
    boundary = Fraction(1, params.k - params.ell)
    if c < boundary:
        raise InvalidInput(f"need color density c >= 1/(k-ell), got c = {c}")
    p = float(params.p)
    if p <= 0.0:
        raise InvalidInput("asymptotic form needs p > 0")
    inv = float(boundary)
    bracket = math.log(n) + inv * math.log(p) - (1.0 + inv)
    if c == boundary:
        return math.log(2 * math.pi * n) + 0.5 * math.log(inv) + n * bracket
    cf = float(c)
    excess = cf - inv
    bracket += excess * (math.log(cf) - math.log(excess))
    log_prefactor = math.log(2 * math.pi * n * r / (r - m))
    if math.isinf(log_prefactor):  # n * r is past the float range: add the logs
        log_prefactor = math.log(2 * math.pi) + math.log(n) + math.log(r) - math.log(r - m)
    return 0.5 * log_prefactor + n * bracket


def _check_n(n: int) -> None:
    """InvalidInput unless n >= 1: a threshold's n counts vertices."""
    if n < 1:
        raise InvalidInput(f"need n >= 1, got {n}")


def _over_power(x: float, n: int, d: int, a: int = 0) -> float:
    """x * e^a / n^d for x > 0 and n >= 1 (see _check_n), through logs where
    e^a or n^d is past the float range, so no exact power of millions of
    digits is built only to overflow; inf where the quotient is past it."""
    _check_n(n)
    # the margin of 1 covers the rounding of d * log(n)
    if d * math.log(n) < math.log(sys.float_info.max) + 1:
        try:
            return (x * math.exp(a) if a else x) / n**d
        except OverflowError:  # e^a or n^d is just past the float range
            pass
    try:
        return math.exp(math.log(x) + a - d * math.log(n))
    except OverflowError:
        return math.inf


def threshold_general(k: int, ell: int, c: Rational, n: int) -> float:
    """First-moment threshold for rainbow ell-cycles, k > ell >= 2, on
    n >= 1 vertices: tight_prefactor((k-ell)c) * e^(k-ell+1) / n^(k-ell),

        c  = 1/(k-ell):  e^(k-ell+1) / n^(k-ell)
        c  > 1/(k-ell):  ((c - 1/(k-ell))/c)^((k-ell)c - 1) * e^(k-ell+1) / n^(k-ell)
    """
    if not k > ell >= 2:
        raise InvalidInput(f"need k > ell >= 2, got k={k}, ell={ell}")
    d = k - ell
    c = Fraction(c)
    boundary = Fraction(1, d)
    if c < boundary:
        raise InvalidInput(f"need c >= 1/(k-ell) = {boundary}, got {c}")
    return _over_power(1.0, n, d, d + 1) * tight_prefactor(d * c)


def tight_prefactor(c: Rational) -> float:
    """((c-1)/c)^(c-1) for c >= 1; equals 1 at c = 1, tends to 1/e as
    c grows (each edge effectively getting a private color)."""
    c = Fraction(c)
    if c < 1:
        raise InvalidInput(f"need c >= 1, got {c}")
    if c == 1:
        return 1.0
    return float((c - 1) / c) ** float(c - 1)


def threshold_tight(k: int, c: Rational, n: int) -> float:
    """Sharp threshold for rainbow tight cycles, k >= 4:
    e^2/n at c = 1, ((c-1)/c)^(c-1) * e^2/n for c > 1."""
    if k < 4:
        raise InvalidInput(f"tight-cycle threshold needs k >= 4, got k={k}")
    return _over_power(tight_prefactor(c) * math.exp(2), n, 1)


def K_constant(k: int) -> float:
    """Second-moment constant 4 * k! * k * e^(k+1) (regime k > ell >= 3)."""
    if k < 4:
        raise InvalidInput(f"need k >= 4, got k={k}")
    if math.lgamma(k + 1) > math.log(sys.float_info.max):
        return math.inf  # k! is past the float range: no need to build it
    return 4.0 * math.factorial(k) * k * math.exp(k + 1)


def two_overlap_threshold(k: int, n: int, omega: float) -> float:
    """omega / n^(k-2): the ell = 2 sufficient density for a caller-chosen
    omega -> infinity.  The caller owns omega; nothing here picks it."""
    if k <= 2:
        raise InvalidInput(f"need k > 2, got k={k}")
    if omega <= 0:
        raise InvalidInput("omega must be positive")
    return _over_power(omega, n, k - 2)


def loose_threshold(k: int, n: int, omega: float) -> float:
    """omega * log(n) / n^(k-1): the loose-cycle sufficient density for a
    caller-chosen omega -> infinity."""
    if k < 2:
        raise InvalidInput(f"need k >= 2, got k={k}")
    if omega <= 0:
        raise InvalidInput("omega must be positive")
    _check_n(n)  # before log(n)
    return _over_power(omega * math.log(n), n, k - 1)


def claim_f(c: float, x: float) -> float:
    """f(x) = ((c-x)/c)^((c-x)/x), evaluated in log space; needs c > x > 0."""
    c, x = float(c), float(x)
    if not c > x > 0:
        raise InvalidInput(f"need c > x > 0, got c={c}, x={x}")
    return math.exp(((c - x) / x) * math.log1p(-x / c))


def claim_derivative_sign(c: float, x: float) -> int:
    """Sign of f'(x) via -sign(log(1 - x/c) + x/c).

    Since log(1 - x/c) < -x/c on the domain, the inner expression is
    negative and the derivative sign is +1 everywhere: f is increasing, so
    its maximum over (0, 1] sits at x = 1.
    """
    c, x = float(c), float(x)
    if not c > x > 0:
        raise InvalidInput(f"need c > x > 0, got c={c}, x={x}")
    inner = math.log1p(-x / c) + x / c
    if inner < 0:
        return 1
    if inner > 0:
        return -1
    return 0


def claim_max(c: Rational, n: int) -> tuple[int, float]:
    """Exhaustive argmax of ((r-b)/r)^((r-b)/b) over integer b in [1, n],
    with r = c*n exact; c > 1.

    By the derivative-sign argument the maximum lands at b = n with value
    ((c-1)/c)^(c-1); this scans anyway and reports what it finds.
    """
    c = Fraction(c)
    if c <= 1:
        raise InvalidInput(f"need c > 1, got {c}")
    if n < 1:
        raise InvalidInput(f"need n >= 1, got {n}")
    r = c * n
    best_b, best_val = 0, float("-inf")
    for b in range(1, n + 1):
        log_val = float((r - b) / b) * math.log(float((r - b) / r))
        if log_val > best_val:
            best_b, best_val = b, log_val
    return best_b, math.exp(best_val)
