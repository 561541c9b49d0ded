"""Matrix-object views that only the tests read: the slow oracles the array
kernels are checked against."""

from fractions import Fraction
from typing import List, Tuple

from triplesieve.gl2 import RationalMatrix3, UnimodularMatrix


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
