"""Sieve constants: critical exponents, saturation numbers, feasibility.

Everything here is finite formula arithmetic.  The critical exponent delta0
is the positive root of 12 d^2 + 32 d - (8 D a + 39); the saturation number R
comes from minimizing the Diamond-Halberstam-Richert bound m_{a,k}(z) over
the sifting variable z; the exponent system is five explicit inequalities in
(delta, x, y, alpha0) whose feasibility region closes up exactly at the
delta0 root via the identity

    (3 + 2 d) (6 d - 5) - 4 (6 - 6 d) - 8 D a = 12 d^2 + 32 d - 8 D a - 39.

The minimum of m = m_{a,k} over (0, b), b = beta_kappa, solves m' = 0:

    m'(z) = A - g(z),  m''(z) = (k - z)/z^2,  g(z) = log z + k/z,
    A = (1/a)(1 - 1/b) + log b - 1 + k/b.

g is convex and falls from +infinity to 1 + log k on (0, k), and rises after
k.  For a <= 1 - 1/b (0.8898 at k = 4, 0.9133 at k = 5), m'(b) =
(1/a)(1 - 1/b) - 1 >= 0, so A >= g(b) > g(k): m' has one root z1 in (0, k),
is positive on (z1, b), and z1 is the unique minimizer.  Newton's method on
g - A from z0 = (k - 1)/(A - 1) rises monotonically to z1: log z >= 1 - 1/z
gives g(z0) >= A, and A > 1 + log k > 2 - 1/k gives z0 < k.  For larger a, m
may fall again towards its limit b/a - 1 at the open end; z1 is then the
minimizer only if m(z1) lies below that limit, and otherwise optimize_m
raises ValueError.  Every caller stays at a <= 1/2.

The linear-sieve (kappa = 1) threshold and the beta_kappa constants are
pinned literature values; nothing here solves the underlying sieve systems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .gl2 import Form

GREAVES_DELTA = 0.103974  # pinned linear-sieve loss constant
BETA_KAPPA: Dict[int, float] = {4: 9.0722, 5: 11.5347}
THETA_DEFAULT = 5.0 / 6.0  # spectral-gap parameter


@dataclass(frozen=True)
class SieveSpec:
    """One point of the exponent system, with the sieve data attached."""

    kappa: int
    D: int
    alpha: float
    delta: float
    x: float
    alpha0: float
    theta: float = THETA_DEFAULT

    def __post_init__(self):
        if self.kappa not in (1, 4, 5):
            raise ValueError(f"kappa must be 1, 4, or 5, got {self.kappa}")
        if self.D not in (2, 4, 6):
            raise ValueError(f"D must be 2, 4, or 6, got {self.D}")

    @property
    def y(self) -> float:
        return 1.0 - self.x


@dataclass(frozen=True)
class ExponentSystemReport:
    """Slack of each inequality (positive = satisfied, with that margin)."""

    feasible: bool
    slacks: Tuple[float, float, float, float, float]


def exponent_system_check(spec: SieveSpec) -> ExponentSystemReport:
    """Evaluate the five inequalities of the exponent system.

    1. D a0 < 2 (delta - theta) x        4. x (1 - delta) < y (delta - theta)
    2. D a0 > 0                          5. 8 D alpha + 4 y < (3 + 2 delta) x
    3. x (1 - delta) < a0
    """
    d, x, y, a0, th = spec.delta, spec.x, spec.y, spec.alpha0, spec.theta
    D, a = spec.D, spec.alpha
    slacks = (
        2 * (d - th) * x - D * a0,
        D * a0,
        a0 - x * (1 - d),
        y * (d - th) - x * (1 - d),
        (3 + 2 * d) * x - 8 * D * a - 4 * y,
    )
    return ExponentSystemReport(all(s > 0 for s in slacks), slacks)


def search_exponent_system(
    D: int, alpha: float, theta: float = THETA_DEFAULT, kappa: int = 4
) -> Optional[SieveSpec]:
    """Find a feasible (delta, x, alpha0) with y = 1 - x and delta, x <= 1,
    or None.  Grid over delta near 1; the x-window at each delta is the
    interval ((8 D alpha + 4)/(7 + 2 delta), (delta - theta)/(1 - theta))
    and alpha0 sits between x(1 - delta) and 2(delta - theta)x/D."""
    deltas = [1 - 10.0 ** -j for j in range(1, 13)]
    deltas += [0.95, 0.97, 0.98, 0.984, 0.9954718, 0.99626261]
    for d in sorted(set(deltas), reverse=True):
        if d <= theta or D * (1 - d) >= 2 * (d - theta):
            continue
        x_lo = (8 * D * alpha + 4) / (7 + 2 * d)
        x_hi = min(1.0, (d - theta) / (1 - theta))
        if x_lo >= x_hi:
            continue
        x = (x_lo + x_hi) / 2
        a0_lo = x * (1 - d)
        a0_hi = 2 * (d - theta) * x / D
        if a0_lo >= a0_hi:
            continue
        spec = SieveSpec(
            kappa=kappa, D=D, alpha=alpha, delta=d, x=x, alpha0=(a0_lo + a0_hi) / 2,
            theta=theta,
        )
        if exponent_system_check(spec).feasible:
            return spec
    return None


def delta0_quadratic(delta: float, D: int, alpha: float) -> float:
    """12 delta^2 + 32 delta - 8 D alpha - 39; negative below the root."""
    return 12 * delta * delta + 32 * delta - 8 * D * alpha - 39


def delta0(D: int, alpha: float) -> float:
    """Positive root of the critical-exponent quadratic."""
    if alpha <= 0:
        raise ValueError("need alpha > 0")
    if D not in (2, 4, 6):
        raise ValueError(f"D must be 2, 4, or 6, got {D}")
    return (-32 + math.sqrt(1024 + 48 * (8 * D * alpha + 39))) / 24


def greaves_threshold() -> float:
    """Level of distribution above which the linear sieve yields P_4."""
    return 1.0 / (4.0 - GREAVES_DELTA)


def _beta(kappa: int) -> float:
    if kappa not in BETA_KAPPA:
        raise ValueError(f"no pinned beta for kappa={kappa}; have {sorted(BETA_KAPPA)}")
    return BETA_KAPPA[kappa]


def m_dhr(alpha: float, kappa: int, zeta) -> float:
    """The saturation bound (1/a)(1 + z - z/b) - 1 + (k+z) log(b/z) - k + zk/b."""
    b = _beta(kappa)
    if isinstance(zeta, float):
        z, log = zeta, math.log  # one-point calls, optimize_m's: no array round trip
        if z <= 0 or z >= b:
            raise ValueError(f"need 0 < zeta < {b}")
    else:
        z, log = np.asarray(zeta, dtype=float), np.log
        if np.any(z <= 0) or np.any(z >= b):
            raise ValueError(f"need 0 < zeta < {b}")
    val = (1.0 / alpha) * (1 + z - z / b) - 1 + (kappa + z) * log(b / z) - kappa + z * kappa / b
    return float(val) if np.isscalar(zeta) or val.ndim == 0 else val


def optimize_m(alpha: float, kappa: int) -> Tuple[float, float]:
    """(zeta*, m*): the minimum of m_dhr over (0, beta_kappa), at the root of
    m' in (0, kappa) found by Newton's method (module docstring); proven for
    alpha <= 1 - 1/beta_kappa.  Above that, ValueError is raised where m* is
    not below the open end's limit beta_kappa/alpha - 1."""
    if not (alpha > 0 and math.isfinite(1.0 / alpha)):
        raise ValueError(f"need alpha > 0 with 1/alpha finite, got {alpha}")
    b = _beta(kappa)
    A = (1.0 / alpha) * (1 - 1 / b) + math.log(b) - 1 + kappa / b
    if A > 1 + math.log(kappa):
        z = (kappa - 1) / (A - 1)
        # the iterates rise strictly in exact arithmetic; stop when rounding ends that
        while z < (nxt := z + z * (z * math.log(z) + kappa - A * z) / (kappa - z)) < kappa:
            z = nxt
        m_star = m_dhr(alpha, kappa, z)
        if m_star < b / alpha - 1:
            return z, m_star
    raise ValueError(f"m_dhr at alpha = {alpha}, kappa = {kappa} has no minimum on (0, {b})")


def saturation_R(alpha: float, kappa: int) -> int:
    """Least integer strictly greater than the optimized m*."""
    _, m_star = optimize_m(alpha, kappa)
    return math.floor(m_star) + 1


def alpha_min_for_R(kappa: int, R: int) -> float:
    """Minimal level of distribution attaining saturation R, to 1e-7.

    m* is strictly decreasing in alpha, so bisect for the smallest alpha
    with m*(alpha, kappa) < R.
    """
    hi = 0.5
    if optimize_m(hi, kappa)[1] >= R:
        raise ValueError(f"R={R} not attainable for kappa={kappa} with alpha <= 1/2")
    lo = 1e-4
    if optimize_m(lo, kappa)[1] < R:
        return lo
    while hi - lo > 1e-7:
        mid = (lo + hi) / 2
        if optimize_m(mid, kappa)[1] < R:
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class SaturationRow:
    form: Form
    R: int
    alpha: float
    delta0: float


def saturation_table() -> Tuple[SaturationRow, SaturationRow, SaturationRow]:
    """The three (form, R, alpha, delta0) rows: hypotenuse via the linear
    sieve threshold, area and product via the DHR optimization."""
    a_z = greaves_threshold()
    a_area = alpha_min_for_R(4, 18)
    a_prod = alpha_min_for_R(5, 26)
    return (
        SaturationRow(Form.Z, 4, a_z, delta0(2, a_z)),
        SaturationRow(Form.AREA, 18, a_area, delta0(4, a_area)),
        SaturationRow(Form.PRODUCT, 26, a_prod, delta0(6, a_prod)),
    )


def table_text(rows) -> str:
    lines = [f"{'form':<8} {'R':>3} {'alpha':>11} {'delta0':>12}"]
    for r in rows:
        lines.append(f"{r.form.value:<8} {r.R:>3} {r.alpha:>11.7f} {r.delta0:>12.9f}")
    return "\n".join(lines) + "\n"


def table_csv(rows) -> str:
    lines = ["form,R,alpha,delta0"]
    for r in rows:
        lines.append(f"{r.form.value},{r.R},{r.alpha:.7f},{r.delta0:.9f}")
    return "\n".join(lines) + "\n"

