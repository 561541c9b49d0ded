"""Exact arithmetic for SL(2,Z), the spin cover to SO_F, and the integer forms.

The quadratic form throughout is F(x, y, z) = x^2 + y^2 - z^2.  A bottom row
(c, d) of an SL(2,Z) matrix parametrizes the Pythagorean triple

    (x, y, z) = (d^2 - c^2, 2cd, c^2 + d^2),

and the spin cover iota: SL(2,R) -> SO_F(R) intertwines the two actions:
with x0 = (0, 1) and X0 = (1, 0, 1),

    X0 . iota(g) = (x, y, z)(x0 . g)    for every g.

Three integer-valued forms are evaluated on rows:

    Z        z = c^2 + d^2                 (degree 2)
    AREA     xy/12 = cd(d^2-c^2)/6         (degree 4)
    PRODUCT  xyz/60 = cd(d^4-c^4)/30       (degree 6)

The divisions are exact for all integer (c, d); this is checked by an
exhaustive residue computation in the test suite.

GeneratorSet holds the generators of a subgroup, and its letters() (the
generators and their inverses) are the one letter rule that groups and
modular read.

form_values is the one evaluation of x, y, z, area and product; every other
module calls it.  It computes in int64 only when a bound proves every
intermediate fits: max(|c|, |d|) < 2^31, so that c^2 + d^2 < 2^63, and
further z < 4 * 10^9 for the area (|xy| <= z^2 / 2) and z <= 5.5 * 10^6 for
the product (|xy/12 * z| <= z^3 / 24).  Otherwise it computes on Python ints
in an object array.  The bounds are read off the rows (one min/max pass).

All arithmetic in this module is exact (int / Fraction / int64 under a
proven bound); no floats.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Tuple

import numpy as np


class UnimodularMatrix:
    """A 2x2 integer matrix with determinant 1, row-major entries (a, b; c, d)."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        a, b, c, d = int(a), int(b), int(c), int(d)
        if a * d - b * c != 1:
            raise ValueError(f"determinant must be 1, got {a * d - b * c}")
        self.a, self.b, self.c, self.d = a, b, c, d

    @classmethod
    def identity(cls) -> "UnimodularMatrix":
        return cls(1, 0, 0, 1)

    def entries(self) -> Tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def trace(self) -> int:
        return self.a + self.d

    def inverse(self) -> "UnimodularMatrix":
        return UnimodularMatrix(self.d, -self.b, -self.c, self.a)

    def __matmul__(self, other: "UnimodularMatrix") -> "UnimodularMatrix":
        return UnimodularMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __neg__(self) -> "UnimodularMatrix":
        # -g also has determinant 1 in 2x2.
        return UnimodularMatrix(-self.a, -self.b, -self.c, -self.d)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UnimodularMatrix):
            return NotImplemented
        return self.entries() == other.entries()

    def __hash__(self) -> int:
        return hash(self.entries())

    def __repr__(self) -> str:
        return f"UnimodularMatrix({self.a}, {self.b}, {self.c}, {self.d})"


def sq_norm(g: UnimodularMatrix) -> int:
    """Squared Frobenius norm a^2 + b^2 + c^2 + d^2 (always >= 2 when det = 1)."""
    return g.a * g.a + g.b * g.b + g.c * g.c + g.d * g.d


# Elementary generators of SL(2,Z); R adds column 1 to column 2 on the right,
# L adds column 2 to column 1.
GEN_R = UnimodularMatrix(1, 1, 0, 1)
GEN_L = UnimodularMatrix(1, 0, 1, 1)


@dataclass(frozen=True)
class GeneratorSet:
    """Generators of a subgroup; inverses are adjoined automatically.

    letters() is the one letter rule of the package: the ball enumeration
    of groups and the projections of modular both read it.  monotone_cap,
    derived from the letters, selects the column-reduction search region of
    groups.enumerate_ball (see the groups module docstring).
    """

    label: str
    gens: Tuple[UnimodularMatrix, ...]

    def __post_init__(self):
        if not self.gens:
            raise ValueError("need at least one generator")
        object.__setattr__(self, "gens", tuple(self.gens))

    @property
    def monotone_cap(self) -> bool:
        """True exactly when the letters are R, R^-1, L and L^-1."""
        letters = {h.entries() for h in self.letters()}
        return letters == {(1, 1, 0, 1), (1, -1, 0, 1), (1, 0, 1, 1), (1, 0, -1, 1)}

    def letters(self) -> List[UnimodularMatrix]:
        """Generators plus inverses, deduplicated, in a stable order."""
        out: List[UnimodularMatrix] = []
        for g in self.gens:
            for h in (g, g.inverse()):
                if h not in out:
                    out.append(h)
        return out

    def max_letter_sq_norm(self) -> int:
        return max(sq_norm(h) for h in self.letters())


class PythagoreanTriple:
    """Integer triple with x^2 + y^2 = z^2 and z >= 0."""

    __slots__ = ("x", "y", "z")

    def __init__(self, x: int, y: int, z: int):
        x, y, z = int(x), int(y), int(z)
        if x * x + y * y - z * z != 0:
            raise ValueError(f"not on the cone: F{(x, y, z)} = {x * x + y * y - z * z}")
        if z < 0:
            raise ValueError("z must be nonnegative")
        self.x, self.y, self.z = x, y, z

    def as_tuple(self) -> Tuple[int, int, int]:
        return (self.x, self.y, self.z)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PythagoreanTriple):
            return NotImplemented
        return self.as_tuple() == other.as_tuple()

    def __hash__(self) -> int:
        return hash(self.as_tuple())

    def __repr__(self) -> str:
        return f"PythagoreanTriple{self.as_tuple()}"


def triple_from_row(c: int, d: int) -> PythagoreanTriple:
    """(c, d) -> (d^2 - c^2, 2cd, c^2 + d^2).  The zero row is rejected."""
    c, d = int(c), int(d)
    if c == 0 and d == 0:
        raise ValueError("zero row has no triple")
    return PythagoreanTriple(d * d - c * c, 2 * c * d, c * c + d * d)


# Gram matrix of F as a diagonal, used for the SO_F membership check.
_F_SIGNS = (1, 1, -1)


class RationalMatrix3:
    """A 3x3 matrix of exact rationals preserving F: M^t diag(1,1,-1) M = diag(1,1,-1)."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable]):
        rs = tuple(tuple(Fraction(e) for e in row) for row in rows)
        if len(rs) != 3 or any(len(r) != 3 for r in rs):
            raise ValueError("need a 3x3 matrix")
        self.rows = rs
        self._check_preserves_form()

    def _check_preserves_form(self) -> None:
        # (M^t G M)[i][j] = sum_k M[k][i] G[k][k] M[k][j]
        for i in range(3):
            for j in range(3):
                s = sum(self.rows[k][i] * _F_SIGNS[k] * self.rows[k][j] for k in range(3))
                want = _F_SIGNS[i] if i == j else 0
                if s != want:
                    raise ValueError(f"matrix does not preserve the form at entry {(i, j)}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalMatrix3):
            return NotImplemented
        return self.rows == other.rows

    def __repr__(self) -> str:
        return f"RationalMatrix3({[[str(e) for e in r] for r in self.rows]})"


X0 = (1, 0, 1)


def spin(g: UnimodularMatrix) -> RationalMatrix3:
    """The spin cover SL(2) -> SO_F.

    Entries are half-integer combinations of products of the entries of g;
    the defining identities (form preservation, and X0 . spin(g) equals the
    triple of the bottom row of g) hold exactly and are enforced/tested.
    """
    a, b, c, d = g.entries()
    h = Fraction(1, 2)
    return RationalMatrix3(
        (
            (h * (a * a - b * b - c * c + d * d), c * d - a * b, h * (-a * a - b * b + c * c + d * d)),
            (b * d - a * c, b * c + a * d, a * c + b * d),
            (h * (-a * a + b * b - c * c + d * d), a * b + c * d, h * (a * a + b * b + c * c + d * d)),
        )
    )


class Form(enum.Enum):
    """The five coordinate forms evaluated on orbit rows.

    degree is the total degree in (c, d); kappa is the sieve dimension
    (number of irreducible factors of the associated polynomial).
    """

    X = "x"
    Y = "y"
    Z = "z"
    AREA = "area"
    PRODUCT = "product"

    @property
    def degree(self) -> int:
        return {"x": 2, "y": 2, "z": 2, "area": 4, "product": 6}[self.value]

    @property
    def kappa(self) -> int:
        return {"x": 1, "y": 1, "z": 1, "area": 4, "product": 5}[self.value]

    @classmethod
    def parse(cls, s: str) -> "Form":
        key = s.strip().lower()
        aliases = {"xy": "area", "xyz": "product"}
        key = aliases.get(key, key)
        for f in cls:
            if f.value == key:
                return f
        raise ValueError(f"unknown form {s!r}; choose from x, y, z, area, product")


_ROW_BOUND = 1 << 31  # |c|, |d| below this keep c^2 + d^2 inside int64
_Z_MAX = {
    Form.AREA: 3_999_999_999,  # keeps |xy| <= z^2/2 inside int64
    Form.PRODUCT: 5_500_000,  # keeps |xy/12 * z| <= z^3/24 inside int64
}


def form_values(f: Form, c, d) -> np.ndarray:
    """Exact values of the form on the rows (c, d), elementwise.

    c and d are integer arrays of one shape (zero rows give 0).  The result
    is int64 when the bounds in the module docstring prove that nothing
    overflows, and otherwise an object array of Python ints.  A failed
    division by 12 or 60 raises ArithmeticError.
    """
    c, d = np.asarray(c), np.asarray(d)
    exact = c.dtype == object or d.dtype == object
    if not exact:
        ends = (c.min(initial=0), c.max(initial=0), d.min(initial=0), d.max(initial=0))
        row_max = max(abs(int(e)) for e in ends)
        exact = row_max >= _ROW_BOUND
    if exact:
        c, d = c.astype(object), d.astype(object)
    else:
        c, d = c.astype(np.int64, copy=False), d.astype(np.int64, copy=False)
    if f is Form.X:
        return d * d - c * c
    if f is Form.Y:
        return 2 * c * d
    z = c * c + d * d
    if f is Form.Z:
        return z
    if f not in _Z_MAX:
        raise ValueError(f"unknown form {f!r}")
    if not exact and 2 * row_max ** 2 > _Z_MAX[f] and int(z.max(initial=0)) > _Z_MAX[f]:
        c, d, z = c.astype(object), d.astype(object), z.astype(object)
    area = _divide((d * d - c * c) * (2 * c * d), 12)
    return area if f is Form.AREA else _divide(area * z, 5)


def _divide(num: np.ndarray, k: int) -> np.ndarray:
    """num // k, which must be exact; a remainder means corrupted arithmetic."""
    if not (num % k == 0).all():
        raise ArithmeticError(f"form numerator is not divisible by {k}")
    return num // k
