"""Census grading, sieve sequence mass accounting, and divisibility probes."""

import dataclasses
import hashlib
import importlib
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy

import triplesieve.cli as cli
from triplesieve import groups
from triplesieve.census import (
    SieveSequence,
    a_q,
    adq_terms,
    build_sequence,
    census,
    census_csv,
    distribution_probe,
    good_moduli,
    two_path_counts,
)
from triplesieve.gl2 import GEN_L, GEN_R, Form, UnimodularMatrix
from triplesieve.groups import (
    BallBudgetError,
    GeneratorSet,
    SmoothedWeight,
    enumerate_ball,
    modular_generators,
    schottky_generators,
)
from triplesieve.modular import FORM_PRIME_FLOOR, prime_factors

from matrix_oracles import ball_matrices, form_value

MOD = modular_generators()
# the package re-exports the function census under the module's name
census_mod = importlib.import_module("triplesieve.census")


def distinct_pairs(ball):
    """The ball's distinct bottom rows as (c, d) tuples, in kernel order."""
    c, d, _ = ball.distinct_rows()
    return list(zip(c.tolist(), d.tolist()))


def test_census_small_ball_grades():
    ball = enumerate_ball(MOD, 10)
    rep_z = census(ball, Form.Z, 2)
    by_row = {(r.c, r.d): r for r in rep_z.rows}
    assert by_row[(1, 2)].n == 5
    assert by_row[(1, 2)].grade == "P1"
    assert by_row[(1, 2)].factors == (5,)
    rep_area = census(ball, Form.AREA, 2)
    by_row_a = {(r.c, r.d): r for r in rep_area.rows}
    assert by_row_a[(1, 2)].grade == "unit"
    assert by_row_a[(1, 2)].factors == ()
    assert rep_z.count_at_most(1) <= rep_z.count_at_most(2)
    assert len(rep_z.rows) == sum(rep_z.omega_histogram.values()) + rep_z.zeros + rep_z.units


def test_census_zero_quarantine():
    ball = enumerate_ball(MOD, 10)
    rep_x = census(ball, Form.X, 2)
    by_row = {(r.c, r.d): r for r in rep_x.rows}
    assert by_row[(1, 1)].grade == "zero"
    assert by_row[(1, 1)].n == 0
    assert rep_x.zeros > 0
    assert all("zero" not in (r.grade,) or r.omega == 0 for r in rep_x.rows)


def test_census_regression_modular_T200():
    # pinned from a run: the z-census at T=200 and its prime-hypotenuse count
    ball = enumerate_ball(MOD, 200)
    rep = census(ball, Form.Z, 3)
    assert len(rep.rows) == 70768
    assert rep.count_at_most(1) == 15644
    assert rep.count_at_most(2) == 45556
    assert rep.count_at_most(3) == 64692
    assert rep.zeros == 0
    assert rep.units == 4
    assert rep.max_abs_value == 39962


def test_census_csv_and_json_deterministic():
    ball = enumerate_ball(MOD, 6)
    rep = census(ball, Form.Z, 2)
    text = census_csv(rep)
    lines = text.splitlines()
    assert lines[0] == "c,d,form,n,factors,omega,grade,imprimitive_flag"
    assert text.endswith("\n")
    assert len(lines) == len(rep.rows) + 1
    row5 = next(l for l in lines if l.startswith("1,2,"))
    assert row5 == "1,2,z,5,5,1,P1,0"
    assert census_csv(census(ball, Form.Z, 2)) == text


def test_census_imprimitive_flag_and_parity():
    ball = enumerate_ball(MOD, 20)
    rep = census(ball, Form.Z, 2)
    for r in rep.rows:
        both_odd = r.c % 2 == 1 and r.d % 2 == 1
        assert r.imprimitive == both_odd
        if both_odd:
            assert (r.c * r.c + r.d * r.d) % 4 == 2
    assert rep.imprimitive_count == sum(1 for r in rep.rows if r.imprimitive)


def test_hypotenuse_congruence_invariant():
    ball = enumerate_ball(MOD, 40)
    for c, d in distinct_pairs(ball):
        if (c + d) % 2 == 1:
            assert (c * c + d * d) % 4 == 1


def test_two_path_counts_prime_exact():
    ball = enumerate_ball(MOD, 30)
    for p in (3, 5, 7, 11, 13):
        direct, split = two_path_counts(ball, p)
        assert direct == split
        # elementwise: at most one coordinate vanishes, and p | xyz iff one does
        for c, d in distinct_pairs(ball):
            x, y, z = d * d - c * c, 2 * c * d, c * c + d * d
            hits = (x % p == 0) + (y % p == 0) + (z % p == 0)
            assert hits <= 1
            assert (x * y * z % p == 0) == (hits == 1)
    with pytest.raises(ValueError):
        two_path_counts(ball, 15)
    with pytest.raises(ValueError):
        two_path_counts(ball, 2)


def test_two_path_fails_for_composite_modulus():
    # (1,2): xyz = 60 vanishes mod 15 while no single coordinate does
    c, d = 1, 2
    x, y, z = d * d - c * c, 2 * c * d, c * c + d * d
    assert x * y * z % 15 == 0
    assert (x % 15 == 0) + (y % 15 == 0) + (z % 15 == 0) == 0


def brute_sequence(gens, X, Y, f):
    """Definition-level oracle: loop every (g, w) pair with Fraction weights.

    Returns the map n -> a(n), chi, and the unfolded pair count (distinct
    weighted bottom rows times the omega ball size)."""
    w = SmoothedWeight(X)
    hi = (Fraction(11, 10) * Fraction(X)) ** 2
    t = 1.1 * float(X)
    while Fraction(t) * Fraction(t) < hi:
        t = math.nextafter(t, math.inf)
    gball = enumerate_ball(gens, t)
    oball = enumerate_ball(gens, Y)
    acc = {}
    chi = Fraction(0)
    rows = set()
    for g in ball_matrices(gball):
        wt = w.weight_fraction(g.a * g.a + g.b * g.b + g.c * g.c + g.d * g.d)
        if wt == 0:
            continue
        rows.add((g.c, g.d))
        for om in ball_matrices(oball):
            prod_c = g.c * om.a + g.d * om.c
            prod_d = g.c * om.b + g.d * om.d
            n = form_value(f, prod_c, prod_d)
            n = int(n)
            acc[n] = acc.get(n, Fraction(0)) + wt
            chi += wt
    return acc, chi, len(rows) * len(oball)


S_ROT = UnimodularMatrix(0, -1, 1, 0)
MINUS_I = UnimodularMatrix(-1, 0, 0, -1)
# four symmetry types: rows and omega fold by {+-I, +-S} (modular, and <S, R>
# found without the modular pruning), omega folds by +-I only (<-I, R^2, L^2>),
# nothing folds (the free pair <R^2, L^2>)
SEQUENCE_GROUPS = [
    MOD,
    GeneratorSet("sr", (S_ROT, GEN_R)),
    GeneratorSet("gamma2", (MINUS_I, GEN_R @ GEN_R, GEN_L @ GEN_L)),
    GeneratorSet("free", (GEN_R @ GEN_R, GEN_L @ GEN_L)),
]
LARGE_LETTERS = GeneratorSet("n2400", (UnimodularMatrix(1, 2400, 0, 1), UnimodularMatrix(1, 0, 2400, 1)))


@pytest.mark.parametrize("f", list(Form))
def test_build_sequence_matches_bruteforce(f, monkeypatch):
    # X = 4.1 gives the weights a 322-bit denominator: Python-int weights.
    # At (4, 6) and (3, 5.5), Y > 1.1X: the omega ball is the one enumerated
    cases = [(gens, X, Y) for gens in SEQUENCE_GROUPS for X, Y in ((4, 4), (4.1, 4), (6, 5.5), (4, 6), (3, 5.5))]
    if f is Form.PRODUCT:
        # the omega row (2400, 1) has z = 5,760,001, above the int64 product
        # bound: the grid values are Python ints
        cases.append((LARGE_LETTERS, 4, 2401))
    seqs = {}
    for gens, X, Y in cases:
        seq = seqs[gens, X, Y] = build_sequence(gens, X, Y, f)
        brute, chi, pairs = brute_sequence(gens, X, Y, f)
        assert seq.chi == chi
        assert dict(seq.items()) == brute
        assert seq.total_mass() == chi
        assert all(num > 0 for num in seq.numerators)
        assert seq.pair_count == pairs
        assert seq.omega_ball_size == len(enumerate_ball(gens, Y))
        # the arrays build_sequence hands to a_q are those the lists give
        for primed, built in zip(seq._arrays, dataclasses.replace(seq)._arrays):
            assert primed.dtype == built.dtype and primed.tolist() == built.tolist()
    if f is Form.PRODUCT:
        assert (seq.ns, seq.numerators, seq.den) == (
            [-2654207999999920, 0, 2654207999999920], [1, 3, 1], 1)

    # one row per chunk: every sequence below is summed in several chunks
    # whose results are merged.  At X = 4 the gamma ball of LARGE_LETTERS is
    # {I}, one row; at X = 2200 it holds the letters, so it has three rows,
    # and at Y = 4 the row (0, 1) gives int64 product values and the rows
    # (+-2400, 1) Python ints.
    if f is Form.PRODUCT:
        del seqs[LARGE_LETTERS, 4, 2401]
        for Y in (4, 2401):
            seqs[LARGE_LETTERS, 2200, Y] = build_sequence(LARGE_LETTERS, 2200, Y, f)
    sums, run_sums = [], census_mod._run_sums
    monkeypatch.setattr(census_mod, "_CHUNK_PAIRS", 1)
    monkeypatch.setattr(census_mod, "_run_sums", lambda k, w: sums.append(len(k)) or run_sums(k, w))
    for (gens, X, Y), seq in seqs.items():
        sums.clear()
        chunked = build_sequence(gens, X, Y, f)
        assert len(sums) >= 4  # the row weights, two chunks or more, the merge
        assert (chunked.ns, chunked.numerators, chunked.den, chunked.chi) == (
            seq.ns, seq.numerators, seq.den, seq.chi)
        assert [a.dtype for a in chunked._arrays] == [a.dtype for a in seq._arrays]
        if X == 2200:
            brute, chi, _ = brute_sequence(gens, X, Y, f)
            assert (dict(chunked.items()), chunked.chi) == (brute, chi)


@pytest.mark.parametrize("chunk", [1, 300])
def test_chunk_merge_holds_bounded_pending_entries(chunk, monkeypatch):
    """_merged_sums merges the parts after the first one held once their
    entries reach max(its length, _CHUNK_PAIRS).  With _CHUNK_PAIRS forced
    small, for the five forms on modular and Schottky, in build_sequence and
    adq_terms: every due merge happens, none gets more pending entries than
    max(merged, _CHUNK_PAIRS) plus one part, and the sums and support equal
    the unchunked build's."""
    cases = [(MOD, 12, 12), (schottky_generators(), 3000, 3000)]
    want = {(gens, X, Y, f): build_sequence(gens, X, Y, f) for gens, X, Y in cases for f in Form}
    log, run_sums, merged_sums = [], census_mod._run_sums, census_mod._merged_sums

    def spy_run_sums(keys, weights):
        sums = run_sums(keys, weights)
        if sys._getframe(1).f_code.co_name == "_merged_sums":
            log.append(("merge", len(keys), len(sums[0])))
        return sums

    def spy_parts(parts):
        for part in parts:
            log.append(("part", len(part[0])))
            yield part

    def replay():
        """The number of due merges; every merge checked against the parts held."""
        held, due_merges = [], 0
        for k, (kind, size, *out) in enumerate(log):
            if kind == "part":
                held.append(size)
                if sum(held[1:]) >= max(held[0], chunk):  # due: merged before the next part
                    assert log[k + 1][0] == "merge"
                    due_merges += 1
                continue
            assert size == sum(held) and len(held) >= 2
            assert size - held[0] <= max(held[0], chunk) + held[-1]
            held = out
        assert len(held) == 1  # the last merge took every part left
        return due_merges

    monkeypatch.setattr(census_mod, "_CHUNK_PAIRS", chunk)
    monkeypatch.setattr(census_mod, "_run_sums", spy_run_sums)
    monkeypatch.setattr(census_mod, "_merged_sums", lambda parts: merged_sums(spy_parts(parts)))
    due_merges = 0
    for (gens, X, Y, f), seq in want.items():
        log.clear()
        chunked = build_sequence(gens, X, Y, f)
        assert (chunked.ns, chunked.numerators, chunked.den, chunked.chi) == (
            seq.ns, seq.numerators, seq.den, seq.chi)
        due_merges += replay()
        log.clear()
        assert adq_terms(gens, X, Y, f, 1)[2] == len(seq.ns)
        due_merges += replay()
    assert due_merges > 0


def test_run_sums_matches_python_sums():
    def python_sums(keys, weights):
        acc = {}
        for k, w in zip(keys, weights):
            acc[k] = acc.get(k, 0) + w
        return sorted(acc), [acc[k] for k in sorted(acc)]

    def check(keys, weights):
        got_keys, got_sums = census_mod._run_sums(keys, weights)
        # int64 exactly when every total is proven to fit: every sum of the
        # high halves w >> 31 lies in (-2^31, 2^31); else Python ints
        _, high = python_sums(keys.tolist(), [w >> 31 for w in weights.tolist()])
        fits = weights.dtype != object and all(abs(h) < 1 << 31 for h in high)
        assert got_sums.dtype == (np.int64 if fits else object)
        assert all(type(t) is int for t in got_sums.tolist() + got_keys.tolist())
        assert (got_keys.tolist(), got_sums.tolist()) == python_sums(keys.tolist(), weights.tolist())

    rng = np.random.default_rng(7)
    keys = rng.integers(-20, 20, size=500)
    # unsorted keys with repeats, int64 weights
    check(keys, rng.integers(0, 1 << 40, size=500))
    # weights just under 2^62: the totals pass 2^63 and must come back exact
    near = (1 << 62) - 1 - rng.integers(0, 1 << 33, size=500)
    check(keys, near)
    assert max(census_mod._run_sums(keys, near)[1].tolist()) >= 1 << 63
    # high sums at the edge of the proven range: 2^31 - 1 and -(2^31 - 1)
    # join in int64, while 2^31 and -2^31 fall back to Python ints, although
    # 2^62 itself would still fit
    edge = np.array([0, 0, 1, 1], dtype=np.int64)
    for high, dtype in (((1 << 31) - 1, np.int64), (1 << 31, object)):
        for sign in (1, -1):
            halves = np.array([sign * (high // 2), sign * (high - high // 2), 1, 2], dtype=np.int64) << 31
            check(edge, halves + np.array([5, 7, 0, 0]))
            assert census_mod._run_sums(edge, halves)[1].dtype == dtype
    # object weights (Python ints past int64)
    check(keys, np.array([3 ** 50 + int(k) for k in keys], dtype=object))
    # object keys (Python ints past int64), int64 and object weights
    big = np.array([int(k) * 2 ** 70 - 1 for k in keys], dtype=object)
    check(big, near)
    check(big, near.astype(object) * 5 ** 30)
    # nothing to sum
    check(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))


def test_build_sequence_fold_certificate():
    """The row fold needs the omega ball closed under W -> S.W and rotation
    invariant row weights, read off the computed balls."""
    def fold(c, d, wnums, omega):
        c2, d2, w2 = census_mod._fold_rows(c, d, wnums, omega)
        return list(zip(c2.tolist(), d2.tolist())), w2.tolist()

    for gens, folds in zip(SEQUENCE_GROUPS, (True, True, False, False)):
        gball = enumerate_ball(gens, 6.7)
        c, d, wnums, _ = census_mod._row_weights(gball, 6)
        rows = list(zip(c.tolist(), d.tolist()))
        omega = enumerate_ball(gens, 6).rows
        folded, fw = fold(c, d, wnums, omega)
        if folds:
            assert 4 * len(folded) == len(rows) and sum(fw) == sum(wnums)
            assert folded == [r for r in rows if r[0] > 0 and r[1] >= 0]
        else:
            assert (folded, fw) == (rows, wnums.tolist())
    # a ball that is not closed under W -> S.W blocks the fold
    gball = enumerate_ball(MOD, 6.7)
    c, d, wnums, _ = census_mod._row_weights(gball, 6)
    rows = list(zip(c.tolist(), d.tolist()))
    omega = enumerate_ball(MOD, 6).rows
    assert fold(c, d, wnums, omega[1:]) == (rows, wnums.tolist())
    # so does a row whose rotation weighs differently
    bumped = wnums.copy()
    bumped[0] += 1
    assert fold(c, d, bumped, omega) == (rows, bumped.tolist())


def test_omega_ball_at_a_float_just_above_an_integer_square():
    """Y = 5.196152422706632 squares to 27 in floats but lies above sqrt(27):
    the omega ball holds the 48 elements with sq_norm 27, and chi counts
    them as the pair loop does."""
    Y = 5.196152422706632
    seq = build_sequence(MOD, 4, Y, Form.Z)
    assert seq.omega_ball_size == 180
    assert seq.chi == brute_sequence(MOD, 4, Y, Form.Z)[1]


def test_build_sequence_chi_identity_and_positivity():
    seq = build_sequence(MOD, 8, 8, Form.Z)
    assert seq.total_mass() == seq.chi
    assert all(num > 0 for num in seq.numerators)
    assert seq.ns == sorted(seq.ns)
    assert seq.a(seq.ns[0]) == Fraction(seq.numerators[0], seq.den)
    assert seq.a(10 ** 9 + 7) == 0


def test_build_sequence_empty_balls():
    seq = build_sequence(MOD, 8, 1, Form.Z)
    assert seq.chi == 0 and seq.ns == []
    seq2 = build_sequence(MOD, 1, 8, Form.Z)
    assert seq2.chi == 0 and seq2.ns == []
    with pytest.raises(ValueError):
        build_sequence(MOD, 0.5, 8, Form.Z)


@pytest.mark.parametrize("X, Y", [(math.inf, 3), (3, math.inf), (math.nan, 3), (3, math.nan), (1e200, 3)])
def test_build_sequence_rejects_non_finite_radii(X, Y):
    with pytest.raises(ValueError, match="finite"):
        build_sequence(MOD, X, Y, Form.Z)


def test_build_sequence_at_x64_matches_its_digest():
    """build_sequence(modular, 64, 64, z) sums about 13.5M folded pairs in
    4M-pair chunks, the size at which _run_sums sorts whole chunks: sha256
    of repr((den, ns, numerators)), recorded before the packed sort kernel."""
    seq = build_sequence(MOD, 64, 64, Form.Z)
    digest = hashlib.sha256(repr((seq.den, seq.ns, seq.numerators)).encode()).hexdigest()
    assert digest == "01e999ae1e01f7239c949252e4c0e11e4a8b97e232f1e1d0b284f3451f801cfe"


def test_build_sequence_generator_order_irrelevant():
    swapped = GeneratorSet("modular", tuple(reversed(MOD.gens)))
    a = build_sequence(MOD, 6, 6, Form.Y)
    b = build_sequence(swapped, 6, 6, Form.Y)
    assert a.ns == b.ns
    assert a.numerators == b.numerators
    assert a.den == b.den
    assert a.chi == b.chi


def test_build_sequence_enumerates_one_ball(monkeypatch):
    """One enumeration, at the larger of the support radius and Y; the
    gamma and omega balls are its prefixes."""
    calls, enumerate_once = [], census_mod.enumerate_ball
    monkeypatch.setattr(census_mod, "enumerate_ball", lambda *a, **k: calls.append(a[1]) or enumerate_once(*a, **k))
    for X, Y in ((8, 6), (6, 12), (8, 1), (1, 8)):
        calls.clear()
        seq = build_sequence(MOD, X, Y, Form.Z)
        assert calls == [max(SmoothedWeight(X).support_radius(), Y)]
        assert seq.omega_ball_size == len(enumerate_once(MOD, Y))


def test_build_sequence_budget_error(monkeypatch):
    monkeypatch.setattr(groups, "_ELEMENT_CAP", 5)
    with pytest.raises(BallBudgetError):
        build_sequence(MOD, 20, 20, Form.Z)


# 3 * 5 * 7 * ... * 53: odd, squarefree and past int64
Q_PAST_INT64 = math.prod(p for p in range(3, 54) if sympy.isprime(p))
# an 80-bit probable prime past the range where Miller-Rabin is proven, so
# factoring it raises ArithmeticError
Q_PROBABLE_PRIME = 604462909807314587353111


def test_a_q_trivial_and_parity_vanishing():
    seq = build_sequence(MOD, 12, 12, Form.Z)
    mass, main, r = a_q(seq, 1)
    assert (mass, main, r) == (seq.chi, seq.chi, 0)
    mass7, main7, r7 = a_q(seq, 7)  # 7 = 3 mod 4: no z-values divisible
    assert main7 == 0
    assert mass7 == 0 and r7 == 0
    mass5, main5, r5 = a_q(seq, 5)
    assert mass5 == main5 + r5
    assert abs(r5) / seq.chi < Fraction(1, 5)
    assert main5 == Fraction(1, 3) * seq.chi  # beta_z(5) = 2/(5+1)
    for bad in (6, 9, 45):
        with pytest.raises(ValueError):
            a_q(seq, bad)
    with pytest.raises(ValueError, match="does not fit in int64"):
        a_q(seq, Q_PAST_INT64)


def test_moduli_past_int64_are_refused_before_they_are_factored():
    """A q past int64 is a ValueError in a_q and adq_terms, also a probable
    prime that factoring could not certify; zero and negative q are refused
    as not positive."""
    with pytest.raises(ArithmeticError, match="cannot certify"):
        prime_factors(Q_PROBABLE_PRIME)
    seq = build_sequence(MOD, 8, 8, Form.Z)
    for q in (Q_PROBABLE_PRIME, Q_PAST_INT64, 1 << 63):
        with pytest.raises(ValueError, match="does not fit in int64"):
            a_q(seq, q)
        with pytest.raises(ValueError, match="does not fit in int64"):
            adq_terms(MOD, 8, 8, Form.Z, q)
    for q in (0, -5, -Q_PROBABLE_PRIME):
        with pytest.raises(ValueError, match="modulus must be positive"):
            a_q(seq, q)
        with pytest.raises(ValueError, match="modulus must be positive"):
            adq_terms(MOD, 8, 8, Form.Z, q)


def test_a_q_matches_bruteforce_sum():
    def brute(seq, q):
        return sum((a for n, a in seq.items() if n % q == 0), Fraction(0))

    for f, qs in ((Form.Z, (3, 5, 13, 65, 85)), (Form.AREA, (5, 7, 11, 35, 77))):
        seq = build_sequence(MOD, 10, 10, f)
        assert seq._arrays[0].shape == (1, len(seq.ns))
        assert seq._arrays[0].dtype == seq._arrays[1].dtype == np.int64
        for q in qs:
            mass, main, r = a_q(seq, q)
            assert mass == brute(seq, q) and r == mass - main
    # a support past int64 is held as two 32-bit limbs of |n|; numerators
    # that each fit stay int64 though their total passes 2^63, and a
    # numerator past int64 makes them Python ints
    big = SieveSequence(1, 1, Form.Z, "hand", 7, [5, 15, 2 ** 62 + 5, 3 * 2 ** 62 + 15],
                        [1, 2, 3, 4], Fraction(10, 7), 4, 1)
    wide = SieveSequence(1, 1, Form.Z, "hand", 7, [5, 15, 21, 25],
                         [2 ** 62, 2 ** 62, 2 ** 62, 3], Fraction(3 * 2 ** 62 + 3, 7), 4, 1)
    huge = SieveSequence(1, 1, Form.Z, "hand", 7, [5, 15, 21, 25],
                         [2 ** 63, 1, 2 ** 62, 3], Fraction(6 * 2 ** 61 + 4, 7), 4, 1)
    assert big._arrays[0].shape == (2, 4) and wide._arrays[1].dtype == np.int64
    assert huge._arrays[1].dtype == object
    for seq in (big, wide, huge):
        for q in (3, 5, 7, 15, 21):
            assert a_q(seq, q)[0] == brute(seq, q)
    assert a_q(wide, 5)[0] == Fraction(2 ** 63 + 3, 7)
    assert a_q(huge, 5)[0] == Fraction(2 ** 63 + 4, 7)
    # the Schottky product at X = Y = 3000: 40,825 values of up to 131 bits,
    # five limbs each, on a seeded sample of its good moduli below N^0.0998
    seq = build_sequence(schottky_generators(), 3000, 3000, Form.PRODUCT)
    assert seq._arrays[0].shape == (5, 40825)
    items = list(seq.items())
    moduli = good_moduli(Form.PRODUCT, max(abs(seq.ns[0]), abs(seq.ns[-1])) ** 0.0998)
    for q in random.Random(21).sample(moduli, 50):
        mass, main, r = a_q(seq, q)
        assert mass == sum((a for n, a in items if n % q == 0), Fraction(0)) and r == mass - main


# the admissible moduli of each form among 3, 5, 7, 11, 13, 15, 35, 77
ADQ_MODULI = {f: [1] + [q for q in (3, 5, 7, 11, 13, 15, 35, 77)
                        if min(prime_factors(q)) >= FORM_PRIME_FLOOR[f]] for f in Form}


@pytest.mark.parametrize("f", list(Form))
def test_adq_terms_match_the_built_sequence(f, monkeypatch):
    """adq_terms reads chi, a_q and the support size off the grid as
    build_sequence + a_q do, with Y below and above 1.1X (the omega ball the
    one enumerated), on Schottky values past int64 (the area and product on
    limbs), and in any number of chunks: one row each, or a few hundred
    pairs each, which on the Schottky grid is one row each too."""
    cases = [(MOD, X, Y) for X, Ys in ((3, (2, 5)), (8, (6, 12)), (16, (12, 24))) for Y in Ys]
    cases.append((schottky_generators(), 3000, 3000))
    want = {}
    for gens, X, Y in cases:
        seq = build_sequence(gens, X, Y, f)
        for q in ADQ_MODULI[f]:
            want[gens, X, Y, q] = seq.chi, a_q(seq, q), len(seq.ns)
    for chunk in (census_mod._CHUNK_PAIRS, 300, 1):
        monkeypatch.setattr(census_mod, "_CHUNK_PAIRS", chunk)
        for (gens, X, Y, q), terms in want.items():
            if gens is not MOD and (chunk == 1 or q not in ADQ_MODULI[f][:2]):
                continue  # 297 one-row chunks, read at q = 1 and one q > 1
            assert adq_terms(gens, X, Y, f, q) == terms, (gens.label, X, Y, q, chunk)


def test_adq_terms_past_int64_weight_totals(monkeypatch):
    """At X = Y = 48 the pair weights total more than 2^63 over two chunks:
    the hit and pair totals are summed without wrapping."""
    seq = build_sequence(MOD, 48, 48, Form.Z)
    assert seq.chi * seq.den >= 1 << 63
    calls, chunk_values = [], census_mod._chunk_values
    monkeypatch.setattr(census_mod, "_chunk_values", lambda *a: calls.append(1) or chunk_values(*a))
    assert adq_terms(MOD, 48, 48, Form.Z, 5) == (seq.chi, a_q(seq, 5), len(seq.ns))
    assert len(calls) == 2


def test_adq_terms_refuses_inputs_in_order(monkeypatch):
    """X and Y first, then the ball's budget, then q, before any value is
    formed; empty balls still refuse a bad q, as a_q does."""
    with pytest.raises(ValueError, match="finite"):
        adq_terms(MOD, math.inf, 3, Form.Z, 6)
    with monkeypatch.context() as m:
        m.setattr(groups, "_ELEMENT_CAP", 5)
        with pytest.raises(BallBudgetError):
            adq_terms(MOD, 20, 20, Form.Z, 6)
    monkeypatch.setattr(census_mod, "_chunk_values", lambda *a: pytest.fail("a value was formed"))
    for f, q in ((Form.Z, 6), (Form.Z, 9), (Form.Z, 0), (Form.PRODUCT, 5), (Form.AREA, 3), (Form.Z, Q_PAST_INT64)):
        with pytest.raises(ValueError):
            adq_terms(MOD, 8, 8, f, q)
    for X, Y in ((8, 1), (1, 8)):
        assert adq_terms(MOD, X, Y, Form.Z, 5) == (0, (0, 0, 0), 0)
        with pytest.raises(ValueError):
            adq_terms(MOD, X, Y, Form.Z, 6)


def test_mass_identity_catches_a_wrong_class_multiplicity(monkeypatch, capsys):
    """One omega-class multiplicity off by one breaks sum a(n) = chi: both
    build_sequence and adq_terms raise ArithmeticError, and adq exits 2."""
    classes = census_mod._omega_classes

    def off_by_one(rows, f):
        reps, mult = classes(rows, f)
        mult = mult.copy()
        mult[0] += 1
        return reps, mult

    monkeypatch.setattr(census_mod, "_omega_classes", off_by_one)
    for f in (Form.Z, Form.X, Form.PRODUCT):
        with pytest.raises(ArithmeticError, match="mass accounting"):
            build_sequence(MOD, 8, 8, f)
        for q in (1, 7):
            with pytest.raises(ArithmeticError, match="mass accounting"):
                adq_terms(MOD, 8, 8, f, q)
    capsys.readouterr()
    assert cli.main(["adq", "--X", "8", "--Y", "8"]) == 2
    assert capsys.readouterr() == ("", "exactness check failed: mass accounting identity failed\n")


def test_area_two_path_decomposition_at_primes():
    seq_area = build_sequence(MOD, 10, 10, Form.AREA)
    seq_x = build_sequence(MOD, 10, 10, Form.X)
    seq_y = build_sequence(MOD, 10, 10, Form.Y)
    for p in (5, 7, 13):
        ma, maina, ra = a_q(seq_area, p)
        mx, mainx, rx = a_q(seq_x, p)
        my, mainy, ry = a_q(seq_y, p)
        assert ma == mx + my
        assert maina == mainx + mainy
        assert ra == rx + ry


def test_good_moduli_thresholds():
    assert good_moduli(Form.Z, 20) == [3, 5, 7, 11, 13, 15, 17, 19]
    assert good_moduli(Form.AREA, 20) == [5, 7, 11, 13, 17, 19]
    assert good_moduli(Form.PRODUCT, 20) == [7, 11, 13, 17, 19]
    assert good_moduli(Form.Z, 3) == []


@pytest.mark.parametrize("bound", [math.inf, -math.inf, math.nan])
def test_good_moduli_refuses_a_non_finite_bound(bound):
    with pytest.raises(ValueError):
        good_moduli(Form.Z, bound)


def good_moduli_oracle(form, bound):
    """Odd squarefree q in (1, bound) with every prime at or above the
    form's floor, by sympy factoring each q."""
    floor = census_mod.FORM_PRIME_FLOOR[form]
    return [q for q in range(3, math.ceil(bound), 2)
            if all(e == 1 and p >= floor for p, e in sympy.factorint(q).items())]


@pytest.mark.parametrize("form", list(Form))
def test_good_moduli_match_factoring_every_modulus(form):
    for bound in (0.5, 3, 20, 200, 200.5, 3001):
        assert good_moduli(form, bound) == good_moduli_oracle(form, bound), bound


def test_good_moduli_is_one_sieve_with_no_factoring():
    """Listing the moduli below 3e5 factors none of them: the prime_factors
    cache does not grow."""
    before = prime_factors.cache_info().currsize
    moduli = good_moduli(Form.Z, 3e5)
    assert prime_factors.cache_info().currsize == before
    assert len(moduli) == 121584 and moduli[:4] == [3, 5, 7, 11] and moduli[-1] == 299999


def test_distribution_probe_refuses_a_level_past_the_table(monkeypatch):
    """N^alpha past the prime table raises ValueError before any modulus is
    listed or any a_q is taken; a level just below the table still runs,
    with one a_q per good modulus."""
    def fail(*args):
        raise AssertionError("called past the table")

    far = SieveSequence(1, 1, Form.Z, "hand", 1, [5, 10 ** 40], [1, 1], Fraction(2), 2, 1)
    monkeypatch.setattr(census_mod, "a_q", fail)
    monkeypatch.setattr(census_mod, "good_moduli", fail)
    with pytest.raises(ValueError, match="prime table"):
        distribution_probe(far, 0.3)
    monkeypatch.undo()

    N = ((1 << 20) - 1) ** 4
    level = N ** 0.25
    assert (1 << 20) - 2 < level <= 1 << 20
    near = SieveSequence(1, 1, Form.Z, "hand", 1, [5, N], [1, 1], Fraction(2), 2, 1)
    calls = []
    monkeypatch.setattr(census_mod, "a_q", lambda seq, q: calls.append(q) or (0, 0, Fraction(0)))
    assert distribution_probe(near, 0.25) == (0, Fraction(2), 0)
    assert calls == good_moduli(Form.Z, level)


def test_chunk_values_past_int64_on_python_ints():
    """Rows and omega entries whose grid products could pass 2^63 are formed
    as Python ints; every value matches the scalar oracle."""
    rc = np.array([(1 << 31) - 1, -(1 << 31) + 5, 3, 1], dtype=np.int64)
    rd = np.array([(1 << 31) - 2, 7, -(1 << 30), 1 << 31], dtype=np.int64)
    k = 1 << 32
    reps = np.array([[1, k, 0, 1], [1, 0, k, 1], [1 + k, k, -k, 1 - k], [0, -1, 1, 0]], dtype=np.int64)
    assert 2 * max(int(np.abs(rc).max()), int(np.abs(rd).max())) * int(np.abs(reps).max()) >= 1 << 63
    for f in Form:
        got = census_mod._chunk_values(rc, rd, reps, f)
        want = [form_value(f, c * a + d * cc, c * b + d * dd)
                for c, d in zip(rc.tolist(), rd.tolist()) for a, b, cc, dd in reps.tolist()]
        assert [int(v) for v in got] == want, f


def test_distribution_probe_validation_and_tiny_alpha():
    seq = build_sequence(MOD, 8, 8, Form.Z)
    for bad in (0.0, 0.5, 0.7, -0.1):
        with pytest.raises(ValueError):
            distribution_probe(seq, bad)
    total, chi, ratio = distribution_probe(seq, 0.05)
    assert total == 0 and ratio == 0 and chi == seq.chi


def test_distribution_probe_trend_regression():
    # pinned from a run: ratios at alpha = 0.15 fall as the balls grow
    ratios = []
    for size in (16, 24, 32):
        seq = build_sequence(MOD, size, size, Form.Z)
        total, chi, ratio = distribution_probe(seq, 0.15)
        assert chi == seq.chi
        ratios.append(ratio)
    assert ratios[0] >= ratios[1] >= ratios[2]
    assert float(ratios[0]) == pytest.approx(2.580e-4, rel=1e-3)
    assert float(ratios[1]) == pytest.approx(3.427e-5, rel=1e-3)
    assert float(ratios[2]) == pytest.approx(5.050e-6, rel=1e-3)


def _oracle_census(ball, f):
    """The census the slow way: per-row form values factored by sympy."""
    rows = sorted({(int(c), int(d)) for c, d in ball.rows[:, 2:4].tolist()},
                  key=lambda r: (r[0] * r[0] + r[1] * r[1], r))
    out, hist = [], {}
    for c, d in rows:
        value = form_value(f, c, d)
        n = abs(value)
        fac = sympy.factorint(n) if n > 1 else {}
        primes = tuple(p for p in sorted(fac) for _ in range(fac[p]))
        grade = "zero" if n == 0 else "unit" if n == 1 else f"P{len(primes)}"
        if n > 1:
            hist[len(primes)] = hist.get(len(primes), 0) + 1
        out.append((c, d, value, n, primes, len(primes), grade, c % 2 == 1 and d % 2 == 1))
    return out, hist


def _oracle_csv(rows, f):
    lines = ["c,d,form,n,factors,omega,grade,imprimitive_flag"]
    for c, d, _, n, primes, omega, grade, imp in rows:
        lines.append(f"{c},{d},{f.value},{n},{'·'.join(map(str, primes))},{omega},{grade},{int(imp)}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("gens,T", [(MOD, 40.0), (schottky_generators(), 3.0e4)])
@pytest.mark.parametrize("f", list(Form))
def test_census_matches_sympy_oracle(gens, T, f):
    ball = enumerate_ball(gens, T)
    rep = census(ball, f, 3)
    rows, hist = _oracle_census(ball, f)
    assert [(r.c, r.d, r.value, r.n, r.factors, r.omega, r.grade, r.imprimitive)
            for r in rep.rows] == rows
    assert rep.omega_histogram == hist
    assert list(rep.omega_histogram) == list(hist)  # first-appearance order
    assert [(r.c, r.d) for r in rep.rows] == distinct_pairs(ball)
    assert census_csv(rep).encode() == _oracle_csv(rows, f).encode()
    # rows read only after the csv and the summary, from the columns
    late = census(ball, f, 3)
    assert census_csv(late) == census_csv(rep) and late.summary() == rep.summary()
    assert late.rows is late.rows and all(r.form is f for r in late.rows)
    assert [(r.c, r.d, r.value, r.n, r.factors, r.omega, r.grade, r.imprimitive)
            for r in late.rows] == rows
    assert late == rep and "array" not in repr(late)


def test_census_text_json_and_csv_build_no_rows(monkeypatch, capsys):
    """The CLI's text and json census and census_csv read the report's
    columns: with CensusRow made to raise they print the same bytes."""
    argvs = [["census", "--T", "30", "--f", f, "--format", fmt]
             for f in ("z", "area", "product") for fmt in ("text", "json")]
    ball = enumerate_ball(schottky_generators(), 3.0e4)

    def outputs():
        printed = []
        for argv in argvs:
            assert cli.main(argv) == cli.EXIT_PASS
            printed.append(capsys.readouterr().out)
        return printed, [census_csv(census(ball, f, 3)) for f in Form]

    want = outputs()

    def no_rows(*args):
        raise AssertionError("CensusRow built")

    monkeypatch.setattr(census_mod, "CensusRow", no_rows)
    assert outputs() == want


@pytest.mark.parametrize("f", list(Form))
def test_census_edge_balls_empty_and_ungraded(f):
    empty = census(enumerate_ball(MOD, 1), f, 3)
    assert empty.rows == () and empty.omega_histogram == {}
    assert census_csv(empty) == "c,d,form,n,factors,omega,grade,imprimitive_flag\n"
    ball = enumerate_ball(MOD, 1.5)  # +-I and +-S: rows (+-1, 0), (0, +-1)
    rep = census(ball, f, 3)
    rows, hist = _oracle_census(ball, f)
    assert len(rows) == 4 and hist == {}
    assert [(r.c, r.d, r.value, r.n, r.factors, r.omega, r.grade, r.imprimitive)
            for r in rep.rows] == rows
    assert census_csv(rep) == _oracle_csv(rows, f)
    zeros = 4 if f in (Form.Y, Form.AREA, Form.PRODUCT) else 0
    for report, n, z in ((empty, 0, 0), (rep, 4, zeros)):
        assert report.summary() == {
            "form": f.value, "label": ball.label, "T": report.T, "R": 3, "rows": n,
            "zeros": z, "units": n - z, "imprimitive": 0, "max_abs_value": 0,
            "omega_histogram": {}, "almost_prime_counts": {"le_1": 0, "le_2": 0, "le_3": 0},
        }


def _drop_last_of_many(index, prime):
    """factor_array's flat output without the last prime of every value that
    has more than one."""
    first = np.insert(index[1:] != index[:-1], 0, True)
    keep = first | ~np.append(first[1:], True)  # first, or not last, of its value
    return index[keep], prime[keep]


@pytest.mark.parametrize("f", [Form.AREA, Form.PRODUCT])
def test_census_raises_when_the_denominator_primes_are_missing(monkeypatch, f):
    real = census_mod.factor_array

    def no_threes(values, *args):
        index, prime = real(values, *args)
        return index[prime != 3], prime[prime != 3]

    monkeypatch.setattr(census_mod, "factor_array", no_threes)
    with pytest.raises(ArithmeticError, match="does not divide"):
        census(enumerate_ball(MOD, 12), f, 2)
    assert cli.main(["census", "--T", "12", "--f", f.value]) == cli.EXIT_FALSIFIED


def test_census_raises_when_kernel_drops_a_factor(monkeypatch):
    real = census_mod.factor_array

    def lossy(values, *args):
        return _drop_last_of_many(*real(values, *args))

    monkeypatch.setattr(census_mod, "factor_array", lossy)
    ball = enumerate_ball(MOD, 12)
    with pytest.raises(ArithmeticError, match="multiply back"):
        census(ball, Form.Z, 2)
    assert cli.main(["census", "--T", "12", "--format", "json"]) == cli.EXIT_FALSIFIED


def test_census_raises_when_kernel_reads_5_as_4(monkeypatch):
    """Each x value 5^k m (k <= 3 below 5^4 > 12^2) then gets the factors
    of 4^k m, and 5^k m // 4^k // m is still 1: only the remainders of the
    certificate catch it."""
    real = census_mod.factor_array

    def swapped(values, *args):
        index, prime = real(values, *args)
        return index, np.where(prime == 5, 4, prime)

    monkeypatch.setattr(census_mod, "factor_array", swapped)
    with pytest.raises(ArithmeticError, match="multiply back"):
        census(enumerate_ball(MOD, 12), Form.X, 2)


def test_census_certificate_on_python_ints(monkeypatch):
    """The Schottky product at T = 10^4 passes 2^63, so the multiply-back
    certificate divides on an object array: its rows match sympy on a seeded
    sample, and a kernel that drops a factor is caught there."""
    ball = enumerate_ball(schottky_generators(), 1e4)
    rep = census(ball, Form.PRODUCT, 4)
    assert rep.max_abs_value >= 1 << 63
    for r in random.Random(29).sample(rep.rows, 200):
        fac = sympy.factorint(r.n) if r.n > 1 else {}
        assert r.factors == tuple(p for p in sorted(fac) for _ in range(fac[p])) and r.omega == len(r.factors)
    real = census_mod.factor_array

    def lossy(values, *args):
        # drops the last prime of many only past 5, so 60 still divides xyz
        index, prime = real(values, *args)
        head = index[1:] != index[:-1]
        keep = np.insert(head, 0, True) | ~np.append(head, True) | (prime <= 5)
        return index[keep], prime[keep]

    monkeypatch.setattr(census_mod, "factor_array", lossy)
    with pytest.raises(ArithmeticError, match="multiply back"):
        census(ball, Form.PRODUCT, 4)


def test_exactness_check_survives_python_O():
    script = (
        "import importlib\n"
        "import numpy as np\n"
        "from triplesieve.gl2 import Form\n"
        "from triplesieve.groups import enumerate_ball, modular_generators\n"
        "census = importlib.import_module('triplesieve.census')\n"
        "real = census.factor_array\n"
        "def lossy(v, *a):\n"
        "    index, prime = real(v, *a)\n"
        "    first = np.insert(index[1:] != index[:-1], 0, True)\n"
        "    keep = first | ~np.append(first[1:], True)\n"
        "    return index[keep], prime[keep]\n"
        "census.factor_array = lossy\n"
        "try:\n"
        "    census.census(enumerate_ball(modular_generators(), 12), Form.Z, 2)\n"
        "except ArithmeticError as e:\n"
        "    raise SystemExit(0 if 'multiply back' in str(e) else 2)\n"
        "raise SystemExit(1)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(census_mod.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_row_extraction_refuses_rows_beyond_int64_squares():
    ball = enumerate_ball(MOD, 3)
    big = ball.rows.copy()
    big[:, 2:4] *= 1 << 31
    with pytest.raises(ValueError, match="2\\^31"):
        type(ball)(T=ball.T, label=ball.label, rows=big, word_lengths=ball.word_lengths).distinct_rows()
