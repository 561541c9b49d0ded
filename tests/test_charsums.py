"""Exactness checks for rho, Xi, and the S-sums, against brute-force oracles."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from triplesieve import charsums
from triplesieve.charsums import (
    _Rational,
    count_zero_locus,
    disjointness_check,
    rho,
    s1,
    s2,
    s3_direct,
    s3_factorization_check,
    s4,
    s4_bound,
    s4_closed_form,
    s4_closed_form_numerators,
    s4_numerators,
    s5,
    xi,
)
from triplesieve.gl2 import Form, UnimodularMatrix
from triplesieve.groups import modular_generators, sample_words
from triplesieve.modular import is_squarefree, prime_factors

from matrix_oracles import coordinate_after, form_value, row_after

I2 = UnimodularMatrix.identity()
OMEGAS = sample_words(modular_generators(), 8, seed=20260816)
# 10^18 times a residue leaves int64, and 3 * 10^19 is past it already
BIG = (UnimodularMatrix(1, 10**18, 0, 1), UnimodularMatrix(1, 0, 3 * 10**19, 1))


def value_after(f, c, d, omega):
    """f on the row (c, d).omega by the scalar oracle, 0 on the zero row: the
    reference the sums are checked against, sharing no code with form_values."""
    row = row_after(c, d, omega)
    return form_value(f, *row) if row != (0, 0) else 0


def test_rho_and_xi_basics():
    assert rho(5) == Fraction(9, 25)
    assert rho(1) == 1
    assert rho(15) == rho(3) * rho(5)
    assert xi(5, 10) == Fraction(16, 25)
    assert xi(5, 7) == Fraction(-9, 25)
    assert xi(1, 42) == 0
    assert rho(6) == Fraction(5, 12)  # rho itself is fine at 2; the S-sums are not
    with pytest.raises(ValueError):
        rho(9)  # not squarefree


@given(st.integers(-1000, 1000))
def test_xi_multiplicative(n):
    assert xi(15, n) == xi(3, n) * xi(5, n)
    assert xi(105, n) == xi(3, n) * xi(5, n) * xi(7, n)


def test_zero_locus_counts():
    assert count_zero_locus(Form.Z, 5, I2) == 9
    assert count_zero_locus(Form.Y, 7, I2) == 13
    for w in OMEGAS[:5]:
        assert count_zero_locus(Form.X, 11, w) == 21
    with pytest.raises(ValueError):
        count_zero_locus(Form.Z, 7, I2)  # 7 = 3 mod 4 inadmissible


def test_s1_vanishes():
    assert s1(5, Form.Z, I2).value == 0
    assert s1(13, Form.X, OMEGAS[3]).value == 0
    assert s1(1, Form.Y, I2).value == 0
    assert s1(15, Form.Y, OMEGAS[1]).value == 0  # composite via multiplicativity
    for p in (3, 7, 11, 19, 23):
        for w in OMEGAS:
            assert s1(p, Form.X, w).value == 0
            assert s1(p, Form.Y, w).value == 0
    for p in (5, 13, 17, 29):
        for w in OMEGAS:
            assert s1(p, Form.Z, w).value == 0


def test_s2_value_and_multiplicativity():
    assert s2(5, Form.Z, I2, I2).value == Fraction(144, 625)
    assert s2(1, Form.X, I2, I2).value == 0
    w = OMEGAS[2]
    assert s2(15, Form.X, I2, w).value == s2(3, Form.X, I2, w).value * s2(5, Form.X, I2, w).value
    assert abs(s2(35, Form.Y, OMEGAS[0], OMEGAS[1]).value) <= 1


@pytest.mark.parametrize("p, f", [(3, Form.X), (5, Form.Z), (7, Form.Y), (13, Form.Z)])
def test_s2_matches_definition_oracle(p, f):
    """S2 at a prime, read off the untwisted S5 numerator, equals the
    per-cell Fraction sum of its definition and stays a Fraction."""
    for w, w2 in [(I2, I2), (OMEGAS[0], OMEGAS[1]), (OMEGAS[2], OMEGAS[5])]:
        want = sum(
            xi(p, value_after(f, c, d, w)) * xi(p, value_after(f, c, d, w2))
            for c in range(p) for d in range(p)
        ) / (p * p)
        got = s2(p, f, w, w2).value
        assert type(got) is Fraction and got == want


def brute_s4_fractions(p, f, k, l, omega):
    """Definition-level oracle: group the grid by m = ck+dl and collapse the
    unit-root sum with sum_{m != 0} e_p(-m) = -1 (no histogram shortcuts)."""
    by_m = [Fraction(0)] * p
    for c in range(p):
        for d in range(p):
            by_m[(c * k + d * l) % p] += xi(p, value_after(f, c, d, omega))
    if (k % p, l % p) == (0, 0):
        total = by_m[0]
    else:
        rest = by_m[1]
        for m in range(2, p):
            assert by_m[m] == rest
        total = by_m[0] - rest
    return total / (p * p)


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("f", [Form.X, Form.Y, Form.Z])
def test_s4_matches_definition_oracle(p, f):
    for w in OMEGAS[:3]:
        for k in range(p):
            for l in range(p):
                assert s4(p, f, k, l, w).value == brute_s4_fractions(p, f, k, l, w)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_s4_table_matches_definition_oracle(p):
    k, l = np.indices((p, p))
    omegas = (OMEGAS[0], BIG[0])
    for f in (Form.X, Form.Y, Form.Z):
        tables = s4_numerators(p, f, k, l, omegas)
        assert tables.shape == (2, p, p)
        for w, table in zip(omegas, tables):
            for kk in range(p):
                for ll in range(p):
                    want = brute_s4_fractions(p, f, kk, ll, w)
                    assert Fraction(int(table[kk, ll]), p * p) == want, (f, kk, ll)


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13, 15, 21])
def test_scalar_sums_match_the_array_kernels(q):
    """Scalar s4 and s4_closed_form, which index cached twist tables, equal
    the array kernels called on every twist (k, l) mod q at once, in value,
    type and repr: S4 at a composite q is the product of its local
    numerators, a _Rational when twisted and a Fraction at (0, 0)."""
    k, l = np.indices((q, q))
    primes = prime_factors(q)
    for f in (Form.X, Form.Y, Form.Z):
        for w in OMEGAS[:3]:
            num = np.ones((q, q), dtype=object)
            for p in primes:
                num = num * s4_numerators(p, f, k, l, [w])[0]
            closed = s4_closed_form_numerators(q, f, k, l, [w])[0] if primes == (q,) else None
            for kk in range(q):
                for ll in range(q):
                    got = s4(q, f, kk, ll, w).value
                    want = (_Rational if (kk, ll) != (0, 0) else Fraction)(int(num[kk, ll]), q * q)
                    assert (type(got), repr(got)) == (type(want), repr(want)), (f, kk, ll)
                    if closed is not None:
                        got = s4_closed_form(q, f, kk, ll, w)
                        want = Fraction(int(closed[kk, ll]), q * q)
                        assert (type(got), repr(got)) == (Fraction, repr(want)), (f, kk, ll)


def test_scalar_sums_build_each_twist_table_once():
    """The first scalar call at (p, f, omega) builds the twist table of its
    kernel; later twists, and a composite modulus over the same primes,
    index into it."""
    w = OMEGAS[4]
    charsums._twist_table.cache_clear()
    first = s4(15, Form.X, 2, 7, w).value
    assert charsums._twist_table.cache_info().misses == 2  # p = 3 and p = 5
    assert s4(15, Form.X, 2, 7, w).value == first
    assert s4(3, Form.X, 1, 1, w).value * s4(5, Form.X, 2, 2, w).value == first
    s4_closed_form(5, Form.X, 1, 3, w)
    s4_closed_form(5, Form.X, 4, 0, w)
    info = charsums._twist_table.cache_info()
    assert (info.misses, info.hits) == (3, 5)
    # another form or another omega is another table
    s4(5, Form.Y, 1, 1, w)
    s4(5, Form.X, 1, 1, OMEGAS[5])
    assert charsums._twist_table.cache_info().misses == 5


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_s4_closed_form_xy(p):
    for f in (Form.X, Form.Y):
        for w in (*OMEGAS[:5], *BIG):
            for k in range(p):
                for l in range(p):
                    if k == 0 and l == 0:
                        continue
                    assert s4(p, f, k, l, w).value == s4_closed_form(p, f, k, l, w)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_s4_z_bound_and_value(p):
    for w in (*OMEGAS[:5], *BIG):
        for k in range(p):
            for l in range(p):
                if k == 0 and l == 0:
                    continue
                v = s4(p, Form.Z, k, l, w).value
                assert abs(v) <= s4_bound(p, Form.Z, k, l, w)
                assert v == s4_closed_form(p, Form.Z, k, l, w)


@pytest.mark.parametrize("p", [97, 101])
def test_s4_tables_in_blocks_match_the_closed_form(p):
    """At p = 97 and 101 a whole twist table spans several blocks of
    classes in _twisted_counts (p + 2 classes of p^2 cells, 2^18 cells a
    block); every twist, (0, 0) included, still meets the closed form, for
    z at 97 too, where the zero locus is the origin alone."""
    k, l = np.indices((p, p))
    for f in (Form.X, Form.Y, Form.Z):
        got = s4_numerators(p, f, k, l, OMEGAS[1:2])
        assert got.shape == (1, p, p)
        assert (got == s4_closed_form_numerators(p, f, k, l, OMEGAS[1:2])).all(), f


def test_s4_and_s5_raise_on_a_zero_grid_not_invariant_under_scaling(monkeypatch):
    """One nonzero cell of the zero grids flipped: the grid is no longer a
    union of lines through the origin, its twisted histograms are not
    constant on the nonzero m, and S4 and S5 raise rather than return."""
    real = charsums._zero_grids

    def flipped(f, p, omegas):
        grid = real(f, p, omegas).copy()
        grid[:, 1, 2] = ~grid[:, 1, 2]
        return grid

    monkeypatch.setattr(charsums, "_zero_grids", flipped)
    k, l = np.indices((7, 7))
    with pytest.raises(ArithmeticError, match="not constant on gcd classes"):
        s4_numerators(7, Form.X, k, l, OMEGAS[:2])
    with pytest.raises(ArithmeticError, match="not constant on gcd classes"):
        s5(7, Form.X, 1, 0, OMEGAS[0], OMEGAS[1])  # the flipped cell has m = 1


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_twists_share_a_class_exactly_when_unit_multiples(p):
    """Brute force over every pair of twists mod p: two twists get one class
    index from _twisted_counts exactly when one is a unit multiple of the
    other, the zero twist alone in its class; p + 2 classes in all."""
    k, l = (a.ravel() for a in np.indices((p, p)))
    counts, where = charsums._twisted_counts(p, np.zeros((1, p, p), dtype=np.int64), k, l)
    orbit = {t: frozenset((u * t[0] % p, u * t[1] % p) for u in range(1, p)) for t in zip(k.tolist(), l.tolist())}
    twists = list(orbit)
    for i, s in enumerate(twists):
        for j, t in enumerate(twists):
            assert (where[i] == where[j]) == (orbit[s] == orbit[t])
    assert len(counts) == len(set(orbit.values())) == p + 2


def test_twists_refuse_non_integers():
    """Twists are read as integers: a float twist raises TypeError, where s5
    and s4_numerators once answered for the truncated twist (1, 2) and s4
    and s4_closed_form raised IndexError; ints of any size and numpy
    integers still give the values of their residues."""
    w, w2 = OMEGAS[1], OMEGAS[2]
    for call in (lambda: s5(5, Form.X, 1.5, 2, w, w2), lambda: s4_numerators(5, Form.X, 1.5, 2, [w]),
                 lambda: s4(5, Form.X, 1.5, 2, w), lambda: s4_closed_form(5, Form.X, 1.5, 2, w),
                 lambda: s4_closed_form_numerators(5, Form.X, np.array([1.5]), 2, [w]),
                 lambda: s4_bound(5, Form.X, 1, 2.0, w), lambda: s3_direct(5, 5, Form.X, 1.5, 2, w, w2),
                 lambda: s4(15, Form.X, 1, "2", w)):
        with pytest.raises(TypeError):
            call()
    big = 1 + 15 * 10 ** 30
    assert s5(5, Form.X, big, np.int64(2), w, w2).value == s5(5, Form.X, 1, 2, w, w2).value
    assert s4(15, Form.X, np.int32(big % 15), -13, w).value == s4(15, Form.X, big, 2, w).value
    assert s4_closed_form(5, Form.X, big, 2, w) == s4_closed_form(5, Form.X, 1, 2, w)
    assert (s4_numerators(5, Form.X, np.array([big, 1], dtype=object), np.uint8(2), [w])
            == s4_numerators(5, Form.X, 1, 2, [w])).all()


def test_s4_degenerate_and_conventions():
    assert s4(5, Form.Y, 0, 0, I2).value == 0  # reduces to S1
    assert s4(1, Form.Y, 1, 1, I2).value == 1  # empty product
    assert s5(1, Form.Y, 1, 1, I2, I2).value == 1
    # multiplicativity of s4 over coprime primes
    w = OMEGAS[4]
    assert s4(15, Form.X, 2, 7, w).value == s4(3, Form.X, 2, 7, w).value * s4(5, Form.X, 2, 7, w).value


def test_s5_trivial_bound():
    for p in (5, 7):
        for k in range(p):
            for l in range(p):
                assert abs(s5(p, Form.Y, k, l, OMEGAS[0], OMEGAS[1]).value) <= 1


def test_s3_factorization_same_prime():
    for p in (5, 7):
        assert s3_factorization_check(p, p, Form.Y, 2, 3, OMEGAS[0], OMEGAS[1])
        assert s3_direct(p, p, Form.Y, 2, 3, OMEGAS[0], OMEGAS[1]) == s5(
            p, Form.Y, 2, 3, OMEGAS[0], OMEGAS[1]
        ).value


def test_s3_factorization_coprime():
    d = s3_direct(3, 5, Form.X, 1, 2, OMEGAS[0], OMEGAS[1])
    assert d == s4(3, Form.X, 1, 2, OMEGAS[0]).value * s4(5, Form.X, 1, 2, OMEGAS[1]).value
    assert s3_factorization_check(3, 5, Form.X, 1, 2, OMEGAS[0], OMEGAS[1])


def test_s3_factorization_mixed_moduli():
    rng = random.Random(3)
    for _ in range(10):
        k, l = rng.randrange(105), rng.randrange(105)
        w1, w2 = rng.choice(OMEGAS), rng.choice(OMEGAS)
        assert s3_factorization_check(15, 35, Form.X, k, l, w1, w2)


def s3_per_cell_oracle(q, q2, f, k, l, omega, omega2):
    """S3 cell by cell in Fractions: Xi products on the exact rows, summed by
    m = ck + dl mod qbar, collapsed by gcd classes with mu(qbar/g), and
    converted once to a sympy Rational before the division by qbar^2."""
    qbar = math.lcm(q, q2)
    hist = [Fraction(0)] * qbar
    for c in range(qbar):
        for d in range(qbar):
            w = xi(q, value_after(f, c, d, omega)) * xi(q2, value_after(f, c, d, omega2))
            hist[(c * k + d * l) % qbar] += w
    per_class = {}
    for m, v in enumerate(hist):
        per_class.setdefault(math.gcd(m, qbar), set()).add(v)
    assert all(len(values) == 1 for values in per_class.values())
    total = Fraction(0)
    for g, values in per_class.items():
        total += values.pop() * (-1) ** len(prime_factors(qbar // g))
    return sympy.Rational(total.numerator, total.denominator) / (qbar * qbar)


ODD_SQUAREFREE = [q for q in range(1, 46, 2) if is_squarefree(q)]
S3_MODULI = [(q, q2) for q in ODD_SQUAREFREE for q2 in ODD_SQUAREFREE if 1 < math.lcm(q, q2) <= 45]


def _admissible_forms(q, q2):
    z_ok = all(p % 4 == 1 for p in prime_factors(q) + prime_factors(q2))
    return [Form.X, Form.Y] + ([Form.Z] if z_ok else [])


@st.composite
def s3_cases(draw):
    q, q2 = draw(st.sampled_from(S3_MODULI))
    f = draw(st.sampled_from(_admissible_forms(q, q2)))
    k, l = draw(st.integers(-10**6, 10**6)), draw(st.integers(-10**6, 10**6))
    omega, omega2 = draw(st.sampled_from([tuple(OMEGAS[i:i + 2]) for i in range(0, 8, 2)] + [BIG]))
    return q, q2, f, k, l, omega, omega2


@settings(max_examples=30, deadline=None)
@given(s3_cases())
@example((7, 7, Form.X, 2, 3, *BIG))
@example((35, 5, Form.Y, 11, -4, *BIG))
@example((13, 39, Form.X, 0, 0, OMEGAS[0], OMEGAS[1]))
@example((1, 41, Form.Z, 5, 8, OMEGAS[2], OMEGAS[3]))
def test_s3_direct_matches_per_cell_oracle(case):
    got = s3_direct(*case)
    want = s3_per_cell_oracle(*case)
    assert isinstance(got, Fraction) and got == want and repr(got) == repr(want)


def test_sums_exact_for_huge_omega_entries():
    p, k, l = 7, 2, 3
    for f in (Form.X, Form.Y, Form.Z):
        by_m = [Fraction(0)] * p
        for c in range(p):
            for d in range(p):
                by_m[(c * k + d * l) % p] += (xi(p, value_after(f, c, d, BIG[0]))
                                              * xi(p, value_after(f, c, d, BIG[1])))
        want = (by_m[0] - by_m[1]) / (p * p)
        assert s3_direct(p, p, f, k, l, *BIG) == want == s5(p, f, k, l, *BIG).value
        assert s4(p, f, k, l, BIG[0]).value == brute_s4_fractions(p, f, k, l, BIG[0])


# rows past the int64 guard of form_values (2^31) and past int64 itself
# (2^63), with multiples of 5 and 13 so that the gcd bound is not always 1
PINNED_ROWS = [(0, 0), (1, 0), (2**31, 3), (-(2**31) - 1, 2**31), (5 * 2**31, 65),
               (2**63, 2**63 + 5), (-(2**64), 7), (13 * 2**63, -(13 * 3**40))]


@pytest.mark.parametrize("f", [Form.X, Form.Y, Form.Z])
def test_coordinate_after_and_s4_bound_match_the_oracle(f):
    for omega in (I2, OMEGAS[0], OMEGAS[3], *BIG):
        for c, d in PINNED_ROWS:
            got = coordinate_after(f, c, d, omega)
            assert type(got) is int and got == value_after(f, c, d, omega)
            for p in (5, 13):
                want = Fraction(math.gcd(value_after(f, d, -c, omega), p), p * p)
                assert s4_bound(p, f, c, d, omega) == want


def test_s3_degenerate_rejected():
    with pytest.raises(ValueError):
        s3_direct(1, 1, Form.X, 0, 0, I2, I2)


def test_disjointness_small_and_exhaustive():
    # (c,d) = (1,2): x=3, y=4, z=5; only z vanishes mod 5
    x, y, z = 3, 4, 5
    assert (x % 5 == 0) + (y % 5 == 0) + (z % 5 == 0) == 1
    for p in (3, 5, 7, 11, 13, 17, 97):
        assert disjointness_check(p)
    with pytest.raises(ValueError):
        disjointness_check(2)


def test_s_sums_reject_even_or_squarefull_moduli():
    with pytest.raises(ValueError):
        s1(2, Form.X, I2)
    with pytest.raises(ValueError):
        s4(9, Form.X, 1, 1, I2)
    with pytest.raises(ValueError):
        s4_bound(9, Form.X, 1, 1, I2)
    with pytest.raises(ValueError):
        s1(7, Form.Z, I2)  # z needs p = 1 mod 4


# (sum, form, k, l, modulus, type name, repr) recorded before the Moebius
# numbers came from the prime table: the values, their types (Fraction on
# the untwisted S4 path, the Fraction subclass _Rational after the gcd-class
# collapse, whose repr is the one sympy's Rational and Zero gave) and their
# reprs, which recorded benchmark output hashes, must not move.
PINNED_SUM_REPRS = """
s4 x 0 0 3 Fraction Fraction(0, 1)
s5 x 0 0 3 _Rational 20/81
s4 x 0 0 5 Fraction Fraction(0, 1)
s5 x 0 0 5 _Rational 44/625
s4 x 0 0 7 Fraction Fraction(0, 1)
s5 x 0 0 7 _Rational -120/2401
s4 x 0 0 15 Fraction Fraction(0, 1)
s5 x 0 0 15 _Rational 176/10125
s3 x 0 0 3,5 _Rational 0
s3 x 0 0 5,5 _Rational 44/625
s3 x 0 0 3,7 _Rational 0
s4 x 1 2 3 _Rational -1/9
s5 x 1 2 3 _Rational 1/81
s4 x 1 2 5 _Rational -1/25
s5 x 1 2 5 _Rational 18/625
s4 x 1 2 7 _Rational -1/49
s5 x 1 2 7 _Rational 75/2401
s4 x 1 2 15 _Rational 1/225
s5 x 1 2 15 _Rational 2/5625
s3 x 1 2 3,5 _Rational 1/225
s3 x 1 2 5,5 _Rational 18/625
s3 x 1 2 3,7 _Rational 1/441
s4 y 0 0 3 Fraction Fraction(0, 1)
s5 y 0 0 3 _Rational 20/81
s4 y 0 0 5 Fraction Fraction(0, 1)
s5 y 0 0 5 _Rational 44/625
s4 y 0 0 7 Fraction Fraction(0, 1)
s5 y 0 0 7 _Rational 174/2401
s4 y 0 0 15 Fraction Fraction(0, 1)
s5 y 0 0 15 _Rational 176/10125
s3 y 0 0 3,5 _Rational 0
s3 y 0 0 5,5 _Rational 44/625
s3 y 0 0 3,7 _Rational 0
s4 y 1 2 3 _Rational 2/9
s5 y 1 2 3 _Rational -2/81
s4 y 1 2 5 _Rational 4/25
s5 y 1 2 5 _Rational 53/625
s4 y 1 2 7 _Rational 6/49
s5 y 1 2 7 _Rational 187/2401
s4 y 1 2 15 _Rational 8/225
s5 y 1 2 15 _Rational -106/50625
s3 y 1 2 3,5 _Rational 8/225
s3 y 1 2 5,5 _Rational 53/625
s3 y 1 2 3,7 _Rational 4/147
s4 z 0 0 3 Fraction Fraction(-4, 9)
s5 z 0 0 3 _Rational 8/27
s4 z 0 0 5 Fraction Fraction(0, 1)
s5 z 0 0 5 _Rational -56/625
s4 z 0 0 7 Fraction Fraction(-12, 49)
s5 z 0 0 7 _Rational 192/2401
s4 z 0 0 15 Fraction Fraction(0, 1)
s5 z 0 0 15 _Rational -448/16875
s3 z 0 0 3,5 _Rational 0
s3 z 0 0 5,5 _Rational -56/625
s3 z 0 0 3,7 _Rational 16/147
s4 z 1 2 3 _Rational 1/9
s5 z 1 2 3 _Rational -1/81
s4 z 1 2 5 _Rational -1/25
s5 z 1 2 5 _Rational 43/625
s4 z 1 2 7 _Rational 1/49
s5 z 1 2 7 _Rational 23/2401
s4 z 1 2 15 _Rational -1/225
s5 z 1 2 15 _Rational -43/50625
s3 z 1 2 3,5 _Rational -1/225
s3 z 1 2 5,5 _Rational 43/625
s3 z 1 2 3,7 _Rational 1/441
"""


def test_sum_types_and_reprs_are_pinned():
    om1, om2 = OMEGAS[1], OMEGAS[2]
    for line in PINNED_SUM_REPRS.strip().splitlines():
        name, f, k, l, q, type_name, expected = line.split(" ", 6)
        f, k, l = Form(f), int(k), int(l)
        qs = [int(v) for v in q.split(",")]
        if name == "s3":
            value = s3_direct(*qs, f, k, l, om1, om2)
        elif name == "s4":
            value = s4(qs[0], f, k, l, om1).value
        else:
            value = s5(qs[0], f, k, l, om1, om2).value
        assert (type(value).__name__, repr(value)) == (type_name, expected), line
