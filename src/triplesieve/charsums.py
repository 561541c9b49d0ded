"""Character sums over Z/qZ attached to the coordinate forms, exactly.

Everything here is exact rational arithmetic.  The building blocks:

    rho(p)    = (2p-1)/p^2, extended multiplicatively to squarefree q
    Xi(p; n)  = 1_{p|n} - rho(p), multiplicative in q, with Xi(1; .) = 0

and the sums (f ranges over the three quadratic coordinate forms; f_w means f
evaluated on the row (c,d).w):

    S1(q; f, w)            = q^-2 sum_{c,d mod q} Xi(q; f_w(c,d))
    S2(q; f, w, w')        = q^-2 sum Xi(q; f_w) Xi(q; f_{w'})
    S4(q; f, k, l; w)      = q^-2 sum Xi(q; f_w) e_q(-ck-dl)
    S5(q; f, k, l; w, w')  = q^-2 sum Xi(q; f_w) Xi(q; f_{w'}) e_q(-ck-dl)
    S3(q,q'; f, k, l; ...) = qbar^-2 sum_{c,d mod qbar} Xi(q; f_w) Xi(q'; f_{w'}) e_qbar(-ck-dl)

Exponential sums never touch floating-point roots of unity: the (c,d) grid is
grouped by m = ck+dl mod q, the resulting histogram is constant on classes
{m : gcd(m,q) = g} (the weights are invariant under unit scaling of (c,d)
because the forms are homogeneous; checked at run time), and each class
contributes its value times a Moebius number, via sum_{gcd(m,q)=g} e_q(-m) =
mu(q/g).

Degenerate modulus: S1, S2, Xi vanish at q = 1 (an empty modulus carries no
oscillation), while S4 and S5 are 1 at q = 1 (empty products), which is what
makes the S3 factorization S3 = S4(q1) S4(q1') S5(qtilde) exact including the
q = q' case.

The closed form for S4 at an odd prime with (k,l,p) = 1 is verified against
the definition in the tests: writing v = (l,-k) for the direction orthogonal
to (k,l), S4 = (p-1)/p^2 when f_w(v) = 0 mod p (the dual line lies on the
zero locus) and -1/p^2 otherwise, whenever the zero locus of f_w mod p is a
union of two lines (always for f in {x,y}; for f = z exactly when p = 1 mod
4, the zero locus at p = 3 mod 4 being the origin alone, where S4 = 1/p^2).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import numpy as np
import sympy

from .gl2 import Form, UnimodularMatrix, form_value, form_values, row_after
from .groups import OrbitBall
from .modular import eta, is_prime, predicted_density, prime_factors


def rho(q: int) -> Fraction:
    """Multiplicative local weight, (2p-1)/p^2 on primes; rho(1) = 1."""
    out = Fraction(1)
    for p in prime_factors(q):
        out *= Fraction(2 * p - 1, p * p)
    return out


def xi(q: int, n: int) -> Fraction:
    """Xi(q; n) = prod_p (1_{p|n} - rho(p)); zero at q = 1 by convention."""
    if q == 1:
        return Fraction(0)
    out = Fraction(1)
    for p in prime_factors(q):
        out *= (Fraction(1) if n % p == 0 else Fraction(0)) - rho(p)
    return out


@dataclass(frozen=True)
class SumValue:
    """An exact character-sum value with the parameters that produced it."""

    value: Fraction
    q: int
    form: Optional[Form] = None
    k: Optional[int] = None
    l: Optional[int] = None
    omega: Optional[UnimodularMatrix] = None
    omega_prime: Optional[UnimodularMatrix] = None


_COORDINATE_FORMS = (Form.X, Form.Y, Form.Z)


def _require_coordinate_form(f: Form) -> None:
    if f not in _COORDINATE_FORMS:
        raise ValueError(f"character sums take the quadratic coordinate forms, not {f}")


def coordinate_after(f: Form, c: int, d: int, omega: UnimodularMatrix) -> int:
    """f evaluated on the row (c,d).omega, with f((0,0)) = 0 (the sums
    include the zero row; the orbit parametrization never does)."""
    _require_coordinate_form(f)
    cc, dd = row_after(c, d, omega)
    return form_value(f, cc, dd) if cc or dd else 0


def _require_odd_squarefree(q: int) -> Tuple[int, ...]:
    ps = prime_factors(q)
    if ps and ps[0] == 2:
        raise ValueError(f"modulus {q} is even; 2 always sits in the bad modulus")
    return ps


def _check_z_admissible(f: Form, primes) -> None:
    if f is Form.Z:
        bad = [p for p in primes if p % 4 == 3]
        if bad:
            raise ValueError(
                f"f = z needs every prime factor to be 1 mod 4; got {bad}"
            )


@functools.lru_cache(maxsize=256)
def _zero_grid(f: Form, p: int, omega: UnimodularMatrix) -> np.ndarray:
    """Read-only (p, p) mask of f_omega(c, d) = 0 mod p over the residue
    grid; cached because S4 and S5 ask for the same grid at every twist."""
    _require_coordinate_form(f)
    c = np.arange(p, dtype=np.int64)[:, None]
    d = np.arange(p, dtype=np.int64)[None, :]
    # entries reduced first, so every product stays below p^2 whatever omega is
    a, b, cc, dd = (e % p for e in omega.entries())
    zero = form_values(f, (c * a + d * cc) % p, (c * b + d * dd) % p) % p == 0
    zero.flags.writeable = False
    return zero


def _zero_count(f: Form, p: int, omega: UnimodularMatrix) -> int:
    return int(_zero_grid(f, p, omega).sum())


def count_zero_locus(f: Form, p: int, omega: UnimodularMatrix) -> int:
    """#{(c,d) mod p : f_omega(c,d) = 0}; equals 2p-1 in admissible cases
    (two lines through the origin)."""
    _require_odd_squarefree(p)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    _check_z_admissible(f, (p,))
    return _zero_count(f, p, omega)


def _s1_prime(p: int, f: Form, omega: UnimodularMatrix) -> Fraction:
    """S1 at a prime from the zero-locus count: (N0 - p^2 rho(p)) / p^2."""
    n0 = _zero_count(f, p, omega)
    return Fraction(n0 - (2 * p - 1), p * p)


def s1(q: int, f: Form, omega: UnimodularMatrix) -> SumValue:
    """S1(q; f, omega); zero for every admissible q > 1, and 0 at q = 1."""
    primes = _require_odd_squarefree(q)
    _check_z_admissible(f, primes)
    if q == 1:
        return SumValue(Fraction(0), 1, form=f, omega=omega)
    val = Fraction(1)
    for p in primes:
        val *= _s1_prime(p, f, omega)
    return SumValue(val, q, form=f, omega=omega)


def _s2_prime(
    p: int, f: Form, omega: UnimodularMatrix, omega2: UnimodularMatrix
) -> Fraction:
    g1 = _zero_grid(f, p, omega)
    g2 = _zero_grid(f, p, omega2)
    n11 = int((g1 & g2).sum())
    n10 = int((g1 & ~g2).sum())
    n01 = int((~g1 & g2).sum())
    n00 = p * p - n11 - n10 - n01
    r = rho(p)
    one = Fraction(1)
    val = (
        n11 * (one - r) ** 2
        + (n10 + n01) * (one - r) * (-r)
        + n00 * r * r
    )
    return val / (p * p)


def s2(
    q: int, f: Form, omega: UnimodularMatrix, omega2: UnimodularMatrix
) -> SumValue:
    """S2(q; f, omega, omega'); multiplicative; |value| <= 1."""
    primes = _require_odd_squarefree(q)
    _check_z_admissible(f, primes)
    if q == 1:
        return SumValue(Fraction(0), 1, form=f, omega=omega, omega_prime=omega2)
    val = Fraction(1)
    for p in primes:
        val *= _s2_prime(p, f, omega, omega2)
    if abs(val) > 1:
        raise ArithmeticError("trivial bound violated; arithmetic is corrupted")
    return SumValue(val, q, form=f, omega=omega, omega_prime=omega2)


def _collapse_histogram(qbar: int, hist: List[Fraction]) -> Fraction:
    """sum_m hist[m] e_qbar(-m), exactly, for histograms constant on the
    classes {m : gcd(m, qbar) = g}; that constancy is checked.

    qbar is squarefree, so mu(qbar/g) = (-1)^(number of its primes).  The
    sum is accumulated in Fractions and converted once to a sympy Rational:
    S4 and S5 have always returned that type and recorded output depends on
    its repr.
    """
    if qbar == 1:
        return hist[0]
    per_class: Dict[int, Fraction] = {}
    for m, v in enumerate(hist):
        g = math.gcd(m, qbar)
        if g in per_class:
            if per_class[g] != v:
                raise ArithmeticError("histogram not constant on gcd classes")
        else:
            per_class[g] = v
    total = Fraction(0)
    for g, v in per_class.items():
        total += v * (-1) ** len(prime_factors(qbar // g))
    return sympy.Rational(total.numerator, total.denominator)


def _s4_prime(p: int, f: Form, k: int, l: int, omega: UnimodularMatrix) -> Fraction:
    """Exact S4 at an odd prime by grid histogram + geometric-sum collapse."""
    k, l = k % p, l % p
    if k == 0 and l == 0:
        return _s1_prime(p, f, omega)
    zero = _zero_grid(f, p, omega)
    c = np.arange(p, dtype=np.int64)[:, None]
    d = np.arange(p, dtype=np.int64)[None, :]
    m = (c * k + d * l) % p
    n_m = np.bincount(m[zero].ravel(), minlength=p).tolist()
    cnt_m = np.bincount(m.ravel(), minlength=p).tolist()
    if any(c_ != p for c_ in cnt_m):
        raise ArithmeticError("fibers of a nonzero linear form must have size p")
    # the -rho part sums roots of unity over complete fibers and cancels;
    # the zero-locus part collapses by gcd classes
    hist = [Fraction(n) for n in n_m]
    return _collapse_histogram(p, hist) / (p * p)


def s4(q: int, f: Form, k: int, l: int, omega: UnimodularMatrix) -> SumValue:
    """S4(q; f, k, l; omega) for squarefree odd q; 1 at q = 1 (empty product).

    Multiplicativity over primes is exact: the CRT unit twists on (k, l)
    leave each local factor unchanged because the weights only see the
    homogeneous zero locus.
    """
    primes = _require_odd_squarefree(q)
    if q == 1:
        return SumValue(Fraction(1), 1, form=f, k=k, l=l, omega=omega)
    val = Fraction(1)
    for p in primes:
        val *= _s4_prime(p, f, k, l, omega)
    return SumValue(val, q, form=f, k=k, l=l, omega=omega)


def s4_closed_form(
    p: int, f: Form, k: int, l: int, omega: UnimodularMatrix
) -> Fraction:
    """Piecewise value of S4 at an odd prime.

    With v = (l, -k) spanning the line orthogonal to (k, l):
      * (k,l) = (0,0) mod p: S4 degenerates to S1 at p;
      * two-line zero locus (f in {x,y}, or f = z with p = 1 mod 4):
        (p-1)/p^2 if f_omega(v) = 0 mod p, else -1/p^2;
      * f = z with p = 3 mod 4 (zero locus = origin): 1/p^2.
    """
    _require_odd_squarefree(p)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    k, l = k % p, l % p
    if k == 0 and l == 0:
        return _s1_prime(p, f, omega)
    if f is Form.Z and p % 4 == 3:
        return Fraction(1, p * p)
    if coordinate_after(f, l, -k, omega) % p == 0:
        return Fraction(p - 1, p * p)
    return Fraction(-1, p * p)


def s4_bound(p: int, f: Form, k: int, l: int, omega: UnimodularMatrix) -> Fraction:
    """The gcd bound |S4| <= gcd(f_omega(l,-k), p)/p^2 for (k,l,p) = 1."""
    return Fraction(math.gcd(coordinate_after(f, l, -k, omega), p), p * p)


def _s5_prime(
    p: int,
    f: Form,
    k: int,
    l: int,
    omega: UnimodularMatrix,
    omega2: UnimodularMatrix,
) -> Fraction:
    k, l = k % p, l % p
    z1 = _zero_grid(f, p, omega)
    z2 = _zero_grid(f, p, omega2)
    c = np.arange(p, dtype=np.int64)[:, None]
    d = np.arange(p, dtype=np.int64)[None, :]
    m = ((c * k + d * l) % p).ravel()
    r = rho(p)
    one = Fraction(1)
    w = {
        (True, True): (one - r) ** 2,
        (True, False): (one - r) * (-r),
        (False, True): (one - r) * (-r),
        (False, False): r * r,
    }
    hist = [Fraction(0)] * p
    z1f, z2f = z1.ravel(), z2.ravel()
    for key, weight in w.items():
        mask = (z1f == key[0]) & (z2f == key[1])
        counts = np.bincount(m[mask], minlength=p)
        for mm, cnt in enumerate(counts.tolist()):
            if cnt:
                hist[mm] += weight * cnt
    return _collapse_histogram(p, hist) / (p * p)


def s5(
    q: int,
    f: Form,
    k: int,
    l: int,
    omega: UnimodularMatrix,
    omega2: UnimodularMatrix,
) -> SumValue:
    """S5(q; f, k, l; omega, omega'); 1 at q = 1; satisfies |S5| <= 1."""
    primes = _require_odd_squarefree(q)
    if q == 1:
        return SumValue(Fraction(1), 1, form=f, k=k, l=l, omega=omega, omega_prime=omega2)
    val = Fraction(1)
    for p in primes:
        val *= _s5_prime(p, f, k, l, omega, omega2)
    if abs(val) > 1:
        raise ArithmeticError("trivial bound violated; arithmetic is corrupted")
    return SumValue(val, q, form=f, k=k, l=l, omega=omega, omega_prime=omega2)


def s3_direct(
    q: int,
    q2: int,
    f: Form,
    k: int,
    l: int,
    omega: UnimodularMatrix,
    omega2: UnimodularMatrix,
) -> Fraction:
    """S3 straight from its definition: an O(qbar^2) grid sum collapsed by
    gcd classes (exact)."""
    _require_odd_squarefree(q)
    _require_odd_squarefree(q2)
    qbar = math.lcm(q, q2)
    if qbar == 1:
        # the defining sum is Xi(1;.)^2 = 0, but the product form's empty-
        # modulus conventions give 1; the identity starts at real moduli
        raise ValueError("S3 needs max(q, q') > 1")
    _require_coordinate_form(f)
    # exact values on the unreduced rows (c, d).omega: the reference shares
    # no residue reduction with the S4, S5 side it is compared against
    cells = [(c, d) for c in range(qbar) for d in range(qbar)]
    v1, v2 = (
        form_values(f, *np.array([row_after(c, d, om) for c, d in cells], dtype=object).T).tolist()
        for om in (omega, omega2)
    )
    hist = [Fraction(0)] * qbar
    for (c, d), a, b in zip(cells, v1, v2):
        w = xi(q, a)
        if w == 0:
            continue
        w2 = xi(q2, b)
        if w2 == 0:
            continue
        hist[(c * k + d * l) % qbar] += w * w2
    return _collapse_histogram(qbar, hist) / (qbar * qbar)


def s3_factorization_check(
    q: int,
    q2: int,
    f: Form,
    k: int,
    l: int,
    omega: UnimodularMatrix,
    omega2: UnimodularMatrix,
) -> bool:
    """Recompute S3 from the definition and compare, exactly, with
    S4(q/qt) S4(q2/qt) S5(qt) at qt = gcd(q, q2)."""
    qt = math.gcd(q, q2)
    q1, q1p = q // qt, q2 // qt
    factor5 = s5(qt, f, k, l, omega, omega2)
    if abs(factor5.value) > 1:
        raise ArithmeticError("trivial bound violated; arithmetic is corrupted")
    product = s4(q1, f, k, l, omega).value * s4(q1p, f, k, l, omega2).value * factor5.value
    direct = s3_direct(q, q2, f, k, l, omega, omega2)
    return direct == product


def disjointness_check(p: int) -> bool:
    """At most one of x, y, z vanishes mod p on every nonzero row (c, d).

    Grants the prime-modulus identity 1_{xyz=0} = 1_{x=0} + 1_{y=0} + 1_{z=0}
    on orbit rows (which are never (0,0) mod p).  The identity is false for
    composite moduli: (c,d)=(1,2) has x=3, z=5, so xyz = 0 mod 15 while no
    single coordinate vanishes mod 15.
    """
    if p == 2 or not is_prime(p):
        raise ValueError(f"need an odd prime, got {p}")
    c = np.arange(p, dtype=np.int64)[:, None]
    d = np.arange(p, dtype=np.int64)[None, :]
    vanishing = sum(form_values(f, c, d) % p == 0 for f in (Form.X, Form.Y, Form.Z))
    vanishing[0, 0] = 0
    return bool((vanishing <= 1).all())


def orbit_divisibility_count(
    ball: OrbitBall, f: Form, q: int
) -> Tuple[int, Fraction, float]:
    """(count, predicted main term, ratio) for #{rows in the ball : q | f}.

    The prediction is d(q) |ball| / eta(q) with d(q) the number of vanishing
    cosets; report-only, no bound asserted.
    """
    primes = _require_odd_squarefree(q)
    n = len(ball)
    if q == 1:
        return n, Fraction(n), 1.0
    d_q = 1
    for p in primes:
        d_q *= int(predicted_density(f, p) * (p + 1))
    main = Fraction(d_q * n, eta(q))
    c = ball.rows[:, 2] % q
    d = ball.rows[:, 3] % q
    x, y, z = (form_values(g, c, d) % q for g in (Form.X, Form.Y, Form.Z))
    if f is Form.X:
        van = x == 0
    elif f is Form.Y:
        van = y == 0
    elif f is Form.Z:
        van = z == 0
    elif f is Form.AREA:
        van = (x * y) % q == 0
    else:
        van = (x * y % q) * z % q == 0
    count = int(van.sum())
    if main > 0:
        ratio = float(Fraction(count) / main)
    else:
        ratio = 0.0 if count == 0 else math.inf
    return count, main, ratio
