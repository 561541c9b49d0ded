"""Matrix-object views, the scalar form evaluation and the scalar coset
labels that only the tests read: the slow oracles the array kernels are
checked against."""

from fractions import Fraction
from typing import List, Tuple

import numpy as np
import sympy

from triplesieve.gl2 import Form, RationalMatrix3, UnimodularMatrix, form_values


def ball_matrices(ball) -> List[UnimodularMatrix]:
    """The ball's elements as UnimodularMatrix objects (heavy for large balls)."""
    return [UnimodularMatrix(*row) for row in ball.rows.tolist()]


def apply_row(m: RationalMatrix3, v: Tuple) -> Tuple[Fraction, Fraction, Fraction]:
    """Row-vector action v . M."""
    v = tuple(Fraction(e) for e in v)
    if len(v) != 3:
        raise ValueError("need a length-3 row vector")
    return tuple(sum(v[k] * m.rows[k][j] for k in range(3)) for j in range(3))


def bottom_row(g: UnimodularMatrix) -> Tuple[int, int]:
    return (g.c, g.d)


def row_after(c: int, d: int, omega: UnimodularMatrix) -> Tuple[int, int]:
    """Row-vector action (c, d) . omega."""
    return (c * omega.a + d * omega.c, c * omega.b + d * omega.d)


def form_value(f: Form, c: int, d: int) -> int:
    """Exact integer value of the form on the row (c, d), one row in Python
    ints: the scalar oracle that gl2.form_values is checked against.

    The AREA and PRODUCT divisions (by 12 and 60) are exact for every integer
    row; inexactness would mean corrupted arithmetic and raises.
    """
    c, d = int(c), int(d)
    if c == 0 and d == 0:
        raise ValueError("zero row")
    x = d * d - c * c
    y = 2 * c * d
    z = c * c + d * d
    if f is Form.X:
        return x
    if f is Form.Y:
        return y
    if f is Form.Z:
        return z
    if f is Form.AREA:
        num = x * y
        q, r = divmod(num, 12)
        if r:
            raise ValueError(f"xy = {num} not divisible by 12 at row {(c, d)}")
        return q
    if f is Form.PRODUCT:
        num = x * y * z
        q, r = divmod(num, 60)
        if r:
            raise ValueError(f"xyz = {num} not divisible by 60 at row {(c, d)}")
        return q
    raise ValueError(f"unknown form {f!r}")


def coordinate_after(f: Form, c: int, d: int, omega: UnimodularMatrix) -> int:
    """The coordinate form f (x, y or z) on the row (c, d).omega, with
    f((0, 0)) = 0 (the character sums include the zero row; the orbit
    parametrization never does).  The row is one exact Python-int entry for
    form_values."""
    if f not in (Form.X, Form.Y, Form.Z):
        raise ValueError(f"character sums take the quadratic coordinate forms, not {f}")
    c, d = int(c), int(d)
    cc = np.array([c * omega.a + d * omega.c], dtype=object)
    dd = np.array([c * omega.b + d * omega.d], dtype=object)
    return form_values(f, cc, dd)[0]


def crt_oracle(residues, primes) -> int:
    """Scalar CRT: the x mod prod(primes) with x = residues[i] mod primes[i]."""
    x, mod = 0, 1
    for p, r in zip(primes, residues):
        x += mod * ((r - x) * pow(mod, -1, p) % p)
        mod *= p
    return x


def label_oracle(q: int, c: int, d: int) -> Tuple[int, int]:
    """Scalar coset label of the row (c, d) mod squarefree q: per prime (0, 1)
    when p | c, else (1, d/c), glued by CRT; (0, 1) at q = 1.  A row that
    vanishes mod some p | q is the caller's to exclude."""
    if q == 1:
        return (0, 1)
    primes = sympy.primefactors(q)
    per_prime = [(0, 1) if c % p == 0 else (1, d * pow(c, -1, p) % p) for p in primes]
    return tuple(crt_oracle(part, primes) for part in zip(*per_prime))
