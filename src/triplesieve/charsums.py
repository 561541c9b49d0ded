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

The twisted sums, and S2 as S5 at the zero twist, are computed on integer
numerators over fixed denominators: p^2 S4 and p^6 S5 at a prime p (p^2
Xi(p; n) is p^2 - (2p-1) or -(2p-1), so the S5 cell weights are (p-1)^4,
-(2p-1)(p-1)^2 and (2p-1)^2), and q^2 q'^2 qbar^2 S3.  A public sum
multiplies its local numerators as integers and converts the result once
to a Fraction.  Twisted S4, S5 and S3 are Fractions whose repr is their str
(20/81, -1/9, 0), the repr recorded output has always had for them; an
untwisted S4 and S2 are plain Fractions.

Exponential sums never touch floating-point roots of unity: the (c,d) grid is
grouped by m = ck+dl mod q, the resulting histogram is constant on classes
{m : gcd(m,q) = g} (the weights are invariant under unit scaling of (c,d)
because the forms are homogeneous; checked at run time), and each class
contributes its value times a Moebius number, via sum_{gcd(m,q)=g} e_q(-m) =
mu(q/g).

The kernels at a prime p work on a stack of omegas at once.  _zero_grids
evaluates the zero locus of f_w mod p for every w of the stack in one
form_values call and keeps the read-only (omegas, p, p) mask in a bounded
cache.  _twisted_counts collapses the histograms of m = ck + dl of each
value of a stack of small integer patterns over the whole grid, once per
class of twists up to unit scaling: the point (l : k) of P^1(F_p) from
modular._projective_class (p + 2 classes with the zero twist; a unit only
relabels the nonzero m).  S4 and S5 are their integer cell weights dotted
with those counts, of the zero grids and of the joint pattern 2 z + z'.
The scalar s4 and s4_closed_form read a (p, p) table of every twist, built
by the first call at (p, f, w) and kept in a bounded cache; later calls,
and each prime factor of a composite q, index into it.

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
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

import numpy as np

from .gl2 import Form, UnimodularMatrix, form_values
from .modular import _integers, _projective_class, prime_factors, require_odd_prime
from .runs import _runs


class _Rational(Fraction):
    """A Fraction whose repr is its str, as recorded output hashes it."""

    __slots__ = ()
    __repr__ = Fraction.__str__


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
def _zero_grids(f: Form, p: int, omegas: Tuple[UnimodularMatrix, ...]) -> np.ndarray:
    """Read-only (len(omegas), p, p) mask of f_omega(c, d) = 0 mod p over the
    residue grid, one layer per omega, from one form_values call; cached
    because the S1, S4 and S5 kernels ask for the same stack."""
    _require_coordinate_form(f)
    c = np.arange(p, dtype=np.int64)[:, None]
    d = np.arange(p, dtype=np.int64)[None, :]
    # entries reduced mod p exactly, so every product of residues stays below p^2
    entries = [[e % p for e in om.entries()] for om in omegas]
    a, b, cc, dd = np.array(entries, dtype=np.int64).T[:, :, None, None]
    zero = form_values(f, (c * a + d * cc) % p, (c * b + d * dd) % p) % p == 0
    zero.flags.writeable = False
    return zero


def _zero_counts(f: Form, p: int, omegas) -> np.ndarray:
    """#{(c,d) mod p : f_omega(c,d) = 0} for each omega."""
    return _zero_grids(f, p, tuple(omegas)).sum(axis=(1, 2))


def count_zero_locus(f: Form, p: int, omega: UnimodularMatrix) -> int:
    """#{(c,d) mod p : f_omega(c,d) = 0}; equals 2p-1 in admissible cases
    (two lines through the origin)."""
    require_odd_prime(p)
    _check_z_admissible(f, (p,))
    return int(_zero_counts(f, p, (omega,))[0])


def s1_numerators(p: int, f: Form, omegas) -> np.ndarray:
    """The integers p^2 S1(p; f, omega) = N0 - p^2 rho(p) at an odd prime p,
    one per omega, N0 the zero-locus count."""
    return _zero_counts(f, p, omegas) - (2 * p - 1)


def s1(q: int, f: Form, omega: UnimodularMatrix) -> SumValue:
    """S1(q; f, omega); zero for every admissible q > 1, and 0 at q = 1."""
    primes = _require_odd_squarefree(q)
    _check_z_admissible(f, primes)
    if q == 1:
        return SumValue(Fraction(0), 1, form=f, omega=omega)
    val = Fraction(1)
    for p in primes:
        val *= Fraction(int(s1_numerators(p, f, (omega,))[0]), p * p)
    return SumValue(val, q, form=f, omega=omega)


def s2(
    q: int, f: Form, omega: UnimodularMatrix, omega2: UnimodularMatrix
) -> SumValue:
    """S2(q; f, omega, omega'); multiplicative; |value| <= 1."""
    primes = _require_odd_squarefree(q)
    _check_z_admissible(f, primes)
    if q == 1:
        return SumValue(Fraction(0), 1, form=f, omega=omega, omega_prime=omega2)
    num = 1
    for p in primes:
        num *= _s5_numerator(p, f, 0, 0, omega, omega2)  # S2 is S5 untwisted
    val = Fraction(num, q**6)
    if abs(val) > 1:
        raise ArithmeticError("trivial bound violated; arithmetic is corrupted")
    return SumValue(val, q, form=f, omega=omega, omega_prime=omega2)


def _collapse_histogram(qbar: int, hist: np.ndarray):
    """sum_m hist[..., m] e_qbar(-m), exactly, for integer histograms (int64
    or object dtype, m on the last axis) constant on the classes
    {m : gcd(m, qbar) = g}; that constancy is checked.

    qbar is squarefree, so each class contributes its value times
    mu(qbar/g) = (-1)^(number of primes of qbar/g).  The result is an
    integer (an integer array for a stack of histograms): the numerator of
    the sum over the denominator the caller scaled its cell weights by.
    At a prime it is hist[..., 0] - hist[..., 1].
    """
    g = np.gcd(np.arange(qbar), qbar)
    total = 0
    for d in set(g.tolist()):
        cls = hist[..., g == d]
        if (cls != cls[..., :1]).any():
            raise ArithmeticError("histogram not constant on gcd classes")
        total = total + cls[..., 0] * (-1) ** len(prime_factors(qbar // d))
    return total


def _twisted_counts(p: int, patterns: np.ndarray, k, l) -> Tuple[np.ndarray, np.ndarray]:
    """The sums of e_p(-(ck + dl)) over the cells (c, d) of each value v of
    a (stack, p, p) array of small integer patterns, at an odd prime p:
    (classes, stack, 1 + largest v) counts, one bincount over (class, layer, v, m)
    collapsed by gcd classes, and the index among them of the class of each
    twist of the integer arrays k, l, its point (l : k) of P^1(F_p) from
    _projective_class.  Classes go in blocks of about 2^18 cells, so a table
    at a large prime stays in bounded memory.

    Scaling a twist by a unit u relabels m = ck + dl as um: m = 0 stays, the
    nonzero m are permuted.  A histogram constant on {0} and on the nonzero
    m, which _collapse_histogram checks, is therefore the same at every
    twist of a class, and so are S4 and S5."""
    twists = _projective_class(p, _integers(l), _integers(k))
    order, head, where = _runs(twists.reshape(1, -1))
    classes = twists.ravel()[order[head]]
    stack, values = patterns.shape[0], int(patterns.max()) + 1
    c, d = (a.ravel() for a in np.indices((p, p)))
    cells = (np.arange(stack)[:, None] * values + patterns.reshape(stack, p * p)) * p
    step = max(1, (1 << 18) // (stack * p * p))
    counts = []
    for lo in range(0, classes.size, step):
        cls = classes[lo:lo + step]  # representatives (k/l, 1), (1, 0) and (0, 0)
        tk, tl = np.where(cls < p, cls, cls == p), cls < p
        m = (tk[:, None] * c + tl[:, None] * d) % p
        block = np.arange(tk.size)[:, None, None] * (stack * values * p) + cells + m[:, None, :]
        hist = np.bincount(block.ravel(), minlength=tk.size * stack * values * p)
        counts.append(_collapse_histogram(p, hist.reshape(tk.size, stack, values, p)))
    return np.concatenate(counts), where.reshape(twists.shape)


def s4_numerators(p: int, f: Form, k, l, omegas) -> np.ndarray:
    """The integers N = p^2 S4(p; f, k, l; omega) at an odd prime p, for twist
    arrays k, l broadcast against each other, one row per omega: the shape
    is (len(omegas),) + the twists' shape.

    The cell weights p^2 Xi(p; f_omega) = 1 - 2p off and (p - 1)^2 on the
    zero locus, dotted with the twisted counts of the cached zero grids,
    give p^2 N; the division by p^2 is checked to be exact.
    """
    counts, where = _twisted_counts(p, _zero_grids(f, p, tuple(omegas)), k, l)
    n, rest = np.divmod(counts @ np.array([1 - 2 * p, (p - 1) ** 2]), p * p)
    if rest.any():
        raise ArithmeticError("twisted S4 numerator is not a multiple of p^2")
    return n.T[:, where]


def s4_closed_form_numerators(p: int, f: Form, k, l, omegas) -> np.ndarray:
    """p^2 times the piecewise closed form of S4 at an odd prime, for twist
    arrays k, l broadcast against each other, one row per omega (see
    s4_closed_form)."""
    k, l = np.broadcast_arrays(*(np.asarray(_integers(t) % p, dtype=np.int64) for t in (k, l)))
    omegas = tuple(omegas)
    if f is Form.Z and p % 4 == 3:
        n = 1
    else:
        # the dual rows v = (l, -k) on the cached zero grids
        n = np.where(_zero_grids(f, p, omegas)[:, l, -k % p], p - 1, -1)
    s1 = s1_numerators(p, f, omegas).reshape((len(omegas),) + (1,) * k.ndim)
    return np.where((k == 0) & (l == 0), s1, n)


@functools.lru_cache(maxsize=256)
def _twist_table(kernel, p: int, f: Form, omega: UnimodularMatrix) -> np.ndarray:
    """Read-only (p, p) table of a numerator kernel at every twist (k, l)
    mod p, built by the first scalar call at (p, f, omega); later calls, and
    the prime factors of a composite modulus, index into it."""
    table = kernel(p, f, *np.indices((p, p)), (omega,))[0]
    table.flags.writeable = False
    return table


def s4(q: int, f: Form, k: int, l: int, omega: UnimodularMatrix) -> SumValue:
    """S4(q; f, k, l; omega) for squarefree odd q; 1 at q = 1 (empty product).

    Multiplicativity over primes is exact: the CRT unit twists on (k, l)
    leave each local factor unchanged because the weights only see the
    homogeneous zero locus.
    """
    primes = _require_odd_squarefree(q)
    if q == 1:
        return SumValue(Fraction(1), 1, form=f, k=k, l=l, omega=omega)
    num, twisted = 1, False
    for p in primes:
        at = operator.index(k) % p, operator.index(l) % p  # non-integers raise TypeError
        num *= int(_twist_table(s4_numerators, p, f, omega)[at])
        twisted = twisted or at != (0, 0)
    # an untwisted S4 is a product of S1 values, whose repr has always been Fraction's
    val = _Rational(num, q * q) if twisted else Fraction(num, q * q)
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
    require_odd_prime(p)
    at = operator.index(k) % p, operator.index(l) % p  # non-integers raise TypeError
    return Fraction(int(_twist_table(s4_closed_form_numerators, p, f, omega)[at]), p * p)


def s4_bound(p: int, f: Form, k: int, l: int, omega: UnimodularMatrix) -> Fraction:
    """The gcd bound |S4| <= gcd(f_omega(l,-k), p)/p^2 for (k,l,p) = 1 at an
    odd prime p: the gcd is p where the dual row (l, -k) lies on the zero
    locus of f_omega mod p, read from the cached zero grid, and 1 elsewhere."""
    require_odd_prime(p)
    return Fraction(p if _zero_grids(f, p, (omega,))[0, operator.index(l) % p, -operator.index(k) % p] else 1, p * p)


def _s5_numerator(
    p: int,
    f: Form,
    k: int,
    l: int,
    omega: UnimodularMatrix,
    omega2: UnimodularMatrix,
) -> int:
    """p^6 S5 at an odd prime: the cell weights p^4 Xi(p; f_w) Xi(p; f_w')
    dotted with the twisted counts of the joint zero pattern 2 z + z'."""
    z1, z2 = _zero_grids(f, p, (omega, omega2))
    counts, where = _twisted_counts(p, (2 * z1 + z2)[None], k, l)
    on, off = (p - 1) ** 2, 1 - 2 * p  # p^2 Xi(p; n) for p | n and p not | n
    weights = np.array([off * off, off * on, on * off, on * on], dtype=object)
    return int(weights @ counts[where, 0].astype(object))


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
    num = 1
    for p in primes:
        num *= _s5_numerator(p, f, k, l, omega, omega2)
    den = q**6
    if abs(num) > den:
        raise ArithmeticError("trivial bound violated; arithmetic is corrupted")
    return SumValue(_Rational(num, den), q, form=f, k=k, l=l, omega=omega, omega_prime=omega2)


def _scaled_xi(q: int, v: np.ndarray, dtype) -> np.ndarray:
    """q^2 Xi(q; v) = prod_{p | q} (p^2 [p | v] - (2p - 1)) elementwise, and
    0 at q = 1."""
    out = np.full(v.shape, int(q > 1), dtype=dtype)
    for p in prime_factors(q):
        out = out * np.where(v % p == 0, (p - 1) ** 2, 1 - 2 * p).astype(dtype)
    return out


def s3_direct(
    q: int,
    q2: int,
    f: Form,
    k: int,
    l: int,
    omega: UnimodularMatrix,
    omega2: UnimodularMatrix,
) -> Fraction:
    """S3 straight from its definition: an O(qbar^2) grid sum of the integer
    cell weights q^2 Xi(q; f_w) q'^2 Xi(q'; f_w'), collapsed by gcd classes
    and divided once by q^2 q'^2 qbar^2 (exact)."""
    _require_odd_squarefree(q)
    _require_odd_squarefree(q2)
    qbar = math.lcm(q, q2)
    if qbar == 1:
        # the defining sum is Xi(1;.)^2 = 0, but the product form's empty-
        # modulus conventions give 1; the identity starts at real moduli
        raise ValueError("S3 needs max(q, q') > 1")
    _require_coordinate_form(f)
    den = (q * q2 * qbar) ** 2
    # rows have entries below r = qbar * (sum of |omega entries|), form
    # values below 2 r^2, cell weights below q^2 q'^2 and every histogram
    # entry and class sum below den; int64 only when all of that fits
    r = qbar * sum(abs(e) for om in (omega, omega2) for e in om.entries())
    dtype = np.int64 if max(2 * r * r, den) < 1 << 63 else object
    c, d = (a.ravel() for a in np.indices((qbar, qbar)))
    # exact values on the unreduced rows (c, d).omega: the reference shares
    # no residue reduction with the S4, S5 side it is compared against
    cx, dx = c.astype(dtype), d.astype(dtype)
    weight = np.ones(c.shape, dtype=dtype)
    for qq, om in ((q, omega), (q2, omega2)):
        v = form_values(f, cx * om.a + dx * om.c, cx * om.b + dx * om.d)
        weight = weight * _scaled_xi(qq, v, dtype)
    hist = np.zeros(qbar, dtype=dtype)
    np.add.at(hist, (c * (operator.index(k) % qbar) + d * (operator.index(l) % qbar)) % qbar, weight)
    return _Rational(int(_collapse_histogram(qbar, hist)), den)


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
    require_odd_prime(p)
    c = np.arange(p, dtype=np.int64)[:, None]
    d = np.arange(p, dtype=np.int64)[None, :]
    vanishing = sum(form_values(f, c, d) % p == 0 for f in (Form.X, Form.Y, Form.Z))
    vanishing[0, 0] = 0
    return bool((vanishing <= 1).all())
