"""Exact-arithmetic checks for the 2x2 layer, the spin cover, and the forms."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import triplesieve.gl2 as gl2
from triplesieve.gl2 import (
    GEN_L,
    GEN_R,
    X0,
    Form,
    PythagoreanTriple,
    RationalMatrix3,
    UnimodularMatrix,
    form_values,
    spin,
    sq_norm,
    triple_from_row,
)

from matrix_oracles import apply_row, bottom_row, form_value, row_after


def word(letters):
    """Product of generator letters; 'R','L','r','l' with lowercase = inverse."""
    table = {"R": GEN_R, "L": GEN_L, "r": GEN_R.inverse(), "l": GEN_L.inverse()}
    g = UnimodularMatrix.identity()
    for ch in letters:
        g = g @ table[ch]
    return g


words = st.lists(st.sampled_from("RLrl"), min_size=0, max_size=12).map(word)


def test_determinant_enforced():
    with pytest.raises(ValueError):
        UnimodularMatrix(1, 0, 0, 2)
    with pytest.raises(ValueError):
        UnimodularMatrix(0, 1, 1, 0)  # det -1


def test_inverse_and_identity():
    g = word("RRLrL")
    assert g @ g.inverse() == UnimodularMatrix.identity()
    assert g.inverse() @ g == UnimodularMatrix.identity()


def test_known_triples():
    assert triple_from_row(1, 2).as_tuple() == (3, 4, 5)
    assert triple_from_row(0, 1).as_tuple() == (1, 0, 1)
    assert triple_from_row(2, 3).as_tuple() == (5, 12, 13)


def test_zero_row_rejected():
    with pytest.raises(ValueError):
        triple_from_row(0, 0)
    with pytest.raises(ValueError):
        form_value(Form.Z, 0, 0)


def test_triple_validation():
    with pytest.raises(ValueError):
        PythagoreanTriple(3, 4, 6)
    with pytest.raises(ValueError):
        PythagoreanTriple(3, 4, -5)
    # negative legs are fine
    assert PythagoreanTriple(-3, 4, 5).as_tuple() == (-3, 4, 5)


def test_spin_of_identity():
    m = spin(UnimodularMatrix.identity())
    assert m.rows == tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(3)) for i in range(3)
    )


def test_form_preservation_enforced():
    with pytest.raises(ValueError):
        RationalMatrix3([[1, 0, 0], [0, 1, 0], [0, 0, 2]])


@given(words, words)
def test_spin_is_a_homomorphism(g, h):
    gh = g @ h
    left = spin(g).rows
    right = spin(h).rows
    prod = tuple(
        tuple(sum(left[i][k] * right[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )
    assert prod == spin(gh).rows


@given(words)
def test_spin_intertwines_the_two_actions(g):
    got = apply_row(spin(g), X0)
    want = triple_from_row(*row_after(0, 1, g)).as_tuple()
    assert got == tuple(Fraction(v) for v in want)


@given(words)
def test_spin_kernel_is_plus_minus_identity(g):
    assert spin(g).rows == spin(-g).rows


@given(words, words)
def test_sq_norm_submultiplicative(g, h):
    assert sq_norm(g @ h) <= sq_norm(g) * sq_norm(h)
    assert sq_norm(g) >= 2


def test_form_values_small_rows():
    assert form_value(Form.X, 1, 2) == 3
    assert form_value(Form.Y, 1, 2) == 4
    assert form_value(Form.Z, 1, 2) == 5
    assert form_value(Form.AREA, 1, 2) == 1
    assert form_value(Form.PRODUCT, 1, 2) == 1
    assert form_value(Form.Z, 2, 3) == 13
    assert form_value(Form.AREA, 2, 3) == 5
    assert form_value(Form.PRODUCT, 2, 3) == 13


def test_divisibility_exact_on_a_grid():
    # xy/12 and xyz/60 must divide exactly for every integer row; a full
    # residue system mod 60 in each coordinate covers all congruence cases.
    for c in range(-30, 31):
        for d in range(-30, 31):
            if c == 0 and d == 0:
                continue
            form_value(Form.AREA, c, d)
            form_value(Form.PRODUCT, c, d)


# the int64 / Python-int switches of form_values: max(|c|, |d|) < 2^31, and
# z = c^2 + d^2 below 4 * 10^9 (area) or at most 5.5 * 10^6 (product)
ROW_EDGE = 2 ** 31
AREA_Z_EDGE = 4_000_000_000
PRODUCT_Z_EDGE = 5_500_000


def signed(pair):
    (c, d), sc, sd = pair
    return (-c if sc else c, -d if sd else d)


def rows_with_z_near(z):
    return st.tuples(
        st.tuples(st.integers(0, 2000), st.integers(-3, 3)).map(
            lambda t: (t[0], math.isqrt(z - t[0] * t[0]) + t[1])),
        st.booleans(), st.booleans()).map(signed)


# the sums of two squares next to each z switch: 3,999,999,997 and
# 5,499,997 stay int64, 4,000,000,000 and 5,500,004 do not
Z_EDGE_ROWS = [(2674, 63189), (2400, 63200), (229, 2334), (1040, 2102)]

edge_rows = st.one_of(
    st.tuples(st.integers(-60, 60), st.integers(-60, 60)),
    st.just((0, 0)),
    st.tuples(st.sampled_from(Z_EDGE_ROWS), st.booleans(), st.booleans()).map(signed),
    st.tuples(st.tuples(st.integers(ROW_EDGE - 3, ROW_EDGE + 2), st.integers(0, ROW_EDGE + 2)),
              st.booleans(), st.booleans()).map(signed),
    st.tuples(st.tuples(st.integers(0, 99), st.integers(ROW_EDGE - 3, ROW_EDGE + 2)),
              st.booleans(), st.booleans()).map(signed),
    rows_with_z_near(AREA_Z_EDGE),
    rows_with_z_near(PRODUCT_Z_EDGE),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(edge_rows, min_size=1, max_size=5))
def test_form_values_matches_form_value(rows):
    c = np.array([r[0] for r in rows], dtype=np.int64)
    d = np.array([r[1] for r in rows], dtype=np.int64)
    row_max = max(max(abs(a), abs(b)) for a, b in rows)
    z_max = max(a * a + b * b for a, b in rows)
    for f in Form:
        want = [form_value(f, a, b) if (a, b) != (0, 0) else 0 for a, b in rows]
        fits = row_max < ROW_EDGE and {
            Form.AREA: z_max < AREA_Z_EDGE, Form.PRODUCT: z_max <= PRODUCT_Z_EDGE}.get(f, True)
        got = form_values(f, c, d)
        assert got.tolist() == want
        assert got.dtype == (np.int64 if fits else object)
        # a 2-D shape changes nothing
        grid = form_values(f, c[:, None], d[:, None])
        assert grid.shape == (len(rows), 1) and grid.ravel().tolist() == want
        assert grid.dtype == got.dtype
        # Python-int input stays exact
        assert form_values(f, c.astype(object), d.astype(object)).tolist() == want


def test_form_values_empty_and_zero_rows():
    empty = np.zeros((0, 3), dtype=np.int64)
    for f in Form:
        assert form_values(f, empty, empty).shape == (0, 3)
        assert form_values(f, np.zeros(4, dtype=np.int64), np.zeros(4, dtype=np.int64)).tolist() == [0] * 4


def test_form_values_inexact_division_raises(monkeypatch):
    # a corrupted numerator at either division step must raise, on both paths
    divide = gl2._divide
    for k in (12, 5):
        monkeypatch.setattr(gl2, "_divide", lambda num, j, k=k: divide(num + (j == k), j))
        for c, d in (([1, 2], [2, 3]), ([ROW_EDGE], [1])):
            with pytest.raises(ArithmeticError):
                form_values(Form.PRODUCT, np.array(c), np.array(d))
            if k == 12:
                with pytest.raises(ArithmeticError):
                    form_values(Form.AREA, np.array(c), np.array(d))


def test_form_metadata():
    assert [f.degree for f in (Form.X, Form.Y, Form.Z, Form.AREA, Form.PRODUCT)] == [2, 2, 2, 4, 6]
    assert [f.kappa for f in (Form.X, Form.Y, Form.Z, Form.AREA, Form.PRODUCT)] == [1, 1, 1, 4, 5]
    assert Form.parse("xy") is Form.AREA
    assert Form.parse("XYZ") is Form.PRODUCT
    assert Form.parse(" z ") is Form.Z
    with pytest.raises(ValueError):
        Form.parse("w")


def test_row_action_matches_matrix_product():
    g = word("RLLrR")
    h = word("LrRl")
    c, d = row_after(0, 1, g)
    assert (c, d) == bottom_row(g)
    assert row_after(c, d, h) == bottom_row(g @ h)
