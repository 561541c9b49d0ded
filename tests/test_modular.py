"""Projection closures, coset tables, and local densities."""

import itertools
import math
import operator
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import HealthCheck, given, settings, strategies as st

from triplesieve import modular
from triplesieve.gl2 import GEN_L, GEN_R, Form, GeneratorSet, UnimodularMatrix
from triplesieve.census import two_path_counts
from triplesieve.charsums import count_zero_locus, disjointness_check, s4_closed_form
from triplesieve.groups import enumerate_ball, modular_generators, schottky_generators
from triplesieve.modular import (
    TABLE_LIMIT,
    bad_modulus_probe,
    beta,
    coset_labels,
    coset_table,
    eta,
    factor_array,
    factor_int,
    is_prime,
    is_squarefree,
    local_density,
    predicted_density,
    prime_factors,
    primes_upto,
    project_group,
    sl2_order,
    strong_approx_check,
)

from matrix_oracles import crt_oracle, form_value, label_oracle

MOD_GENS = [GEN_R, GEN_L]
# both congruent to the identity mod 3 (and mod 2 for the second)
I_MOD3_GENS = [UnimodularMatrix(1, 3, 0, 1), UnimodularMatrix(1, 0, 3, 1)]


def coset_reps_oracle(q):
    """Every CRT combination of the per-prime reps (0,1), (1,0), ..., (1,p-1),
    the first prime most significant."""
    if q == 1:
        return ((0, 1),)
    primes = prime_factors(q)
    reps = [((), ())]
    for p in primes:
        per_prime = [(0, 1)] + [(1, d) for d in range(p)]
        reps = [(rc + (c,), rd + (d,)) for rc, rd in reps for c, d in per_prime]
    return tuple((crt_oracle(rc, primes), crt_oracle(rd, primes)) for rc, rd in reps)


def closure_oracle(gens, q):
    """Tuple-set closure of the generator images mod q under right
    multiplication, starting from the identity."""
    imgs = {tuple(e % q for e in g.entries()) for g in gens}
    ident = (1 % q, 0, 0, 1 % q)
    seen, frontier = {ident}, [ident]
    while frontier:
        nxt = []
        for a, b, c, d in frontier:
            for e, f, g, h in imgs:
                prod = ((a * e + b * g) % q, (a * f + b * h) % q, (c * e + d * g) % q, (c * f + d * h) % q)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return seen


def test_projection_full_at_5():
    assert len(project_group(MOD_GENS, 5)) == 120
    assert sl2_order(5) == 120
    assert strong_approx_check(MOD_GENS, 5)


def test_projection_trivial_when_gens_reduce_to_identity():
    gens = [UnimodularMatrix(1, 2, 0, 1), UnimodularMatrix(1, 0, 2, 1)]
    assert len(project_group(gens, 2)) == 1
    assert not strong_approx_check(I_MOD3_GENS, 3)


def test_bad_modulus_probe():
    assert bad_modulus_probe(MOD_GENS, 50) == [2]
    probe = bad_modulus_probe(I_MOD3_GENS, 10)
    assert 2 in probe and 3 in probe
    # prefix property
    assert bad_modulus_probe(MOD_GENS, 20) == bad_modulus_probe(MOD_GENS, 50)[: len(bad_modulus_probe(MOD_GENS, 20))]


def test_bad_modulus_probe_schottky():
    # (RL)^2 and (LR)^2 are both -I mod 3, and land in a proper subgroup mod 7
    gens = [g for g in schottky_generators().gens]
    assert bad_modulus_probe(gens, 50) == [2, 3, 7]
    assert strong_approx_check(gens, 5)
    assert not strong_approx_check(gens, 7)


@pytest.mark.parametrize("gens", [MOD_GENS, list(schottky_generators().gens), I_MOD3_GENS])
@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13, 15])
def test_projection_matches_closure_oracle(gens, q):
    rows = project_group(gens, q)
    assert rows.dtype == np.int64 and rows.shape[1] == 4
    assert rows.tolist() == sorted(map(list, closure_oracle(gens, q)))


@pytest.mark.parametrize("gens", [MOD_GENS, list(schottky_generators().gens), I_MOD3_GENS])
@pytest.mark.parametrize("q", [1, 2, 3, 5, 7, 15, 105])
def test_projection_of_a_list_equals_its_generator_set(gens, q):
    """A plain list of matrices is read as the GeneratorSet of its entries:
    the same letters, so the same rows, and the same closure check."""
    as_set = GeneratorSet("listed", tuple(gens))
    rows = project_group(gens, q)
    assert rows.dtype == np.int64 and rows.tolist() == project_group(as_set, q).tolist()
    assert modular._image_is_closed(rows, gens, q) and modular._image_is_closed(rows, as_set, q)


@pytest.mark.parametrize("gens", [MOD_GENS, list(schottky_generators().gens), I_MOD3_GENS])
@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_image_check_rejects_corrupted_projections(gens, p):
    """The closure check passes every true projection and fails it with one
    row dropped, a row duplicated, a row moved off determinant 1, or the
    identity replaced by a row outside [0, p)."""
    rows = project_group(gens, p)
    assert modular._image_is_closed(rows, gens, p)
    ident = int(np.flatnonzero((rows == [1, 0, 0, 1]).all(axis=1))[0])
    off = rows.copy()
    off[ident] = [1, 0, 0, 1 + p]
    wrong_det = rows.copy()
    wrong_det[-1, 3] = (wrong_det[-1, 3] + 1) % p
    for bad in (np.delete(rows, len(rows) // 2, axis=0), np.insert(rows, 0, rows[0], axis=0), wrong_det, off):
        assert not modular._image_is_closed(bad, gens, p)


def test_odd_prime_checks_share_one_helper():
    """Every entry point that needs an odd prime rejects 2, 1 and
    composites with the same ValueError."""
    ball = enumerate_ball(modular_generators(), 5)
    entry_points = [
        modular.require_odd_prime,
        lambda p: predicted_density(Form.X, p),
        lambda p: two_path_counts(ball, p),
        disjointness_check,
        lambda p: count_zero_locus(Form.X, p, UnimodularMatrix.identity()),
        lambda p: s4_closed_form(p, Form.X, 1, 0, UnimodularMatrix.identity()),
    ]
    for check in entry_points:
        check(3)
        for p in (2, 1, 0, -3, 15):
            with pytest.raises(ValueError, match="need an odd prime"):
                check(p)


def test_modulus_limits():
    for build in (lambda q: project_group(MOD_GENS, q), coset_table, lambda q: coset_labels(q, [1], [0])):
        with pytest.raises(ValueError, match="squarefree"):
            build(9)
    with pytest.raises(ValueError, match="packed residue codes"):
        project_group(MOD_GENS, 1 << 15)
    assert len(project_group(MOD_GENS, 1)) == 1
    for build in (coset_table, lambda q: coset_labels(q, [1], [0])):
        with pytest.raises(ValueError, match="int64"):
            build(1 << 31)
    with pytest.raises(ValueError, match="vanishes mod 5"):
        coset_labels(15, [1, 10], [2, 5])


def test_coset_table_matches_crt_oracle():
    for q in range(1, 211):
        if is_squarefree(q):
            reps = coset_table(q).reps
            assert reps == coset_reps_oracle(q)
            assert all(type(e) is int for rep in reps for e in rep)


def class_oracle(p, c, d):
    """The point of P^1(F_p) of the row (c, d), by Python's modular inverse:
    d/c, p for (0 : 1) and p + 1 for a row that vanishes mod p."""
    if c % p:
        return d * pow(c, -1, p) % p
    return p if d % p else p + 1


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 31])
def test_projective_class_matches_pow_oracle(p):
    """Every row mod p, c = 0 and the zero row included, and their shifts by
    -p and p: the class kernel agrees with the oracle on each."""
    c, d = (a.ravel() for a in np.indices((3 * p, 3 * p)) - p)
    got = modular._projective_class(p, c, d)
    assert got.dtype == np.int64
    assert got.tolist() == [class_oracle(p, x, y) for x, y in zip(c.tolist(), d.tolist())]


def test_projective_class_at_the_largest_label_prime():
    """10^4 seeded rows at p = 2^31 - 1, the largest prime below
    _LABEL_LIMIT, with entries anywhere in int64 and a tenth of the c
    multiples of p: square-and-multiply stays exact there."""
    p = (1 << 31) - 1
    assert is_prime(p) and p < modular._LABEL_LIMIT
    rng = np.random.default_rng(20261020)
    c, d = rng.integers(-(1 << 62), 1 << 62, size=(2, 10_000))
    c[::10] = rng.integers(-(1 << 30), 1 << 30, size=1000) * p
    d[::100] = 0
    got = modular._projective_class(p, c, d)
    assert got.tolist() == [class_oracle(p, x, y) for x, y in zip(c.tolist(), d.tolist())]


def test_coset_table_reps_are_the_classes_in_table_order():
    """A prime's reps are the classes p, 0, 1, ..., p - 1 in that order, and
    a composite q's reps are their glue, the first prime most significant:
    coset_positions reads each rep back at its own place, and every row at
    the place of its label_oracle."""
    rows = np.indices((40, 40)).reshape(2, -1)
    for q in (1, 3, 5, 7, 15, 105, 1155):
        reps = coset_table(q).reps
        c, d = np.array(reps).T
        assert modular.coset_positions(q, c, d).tolist() == list(range(len(reps)))
        c, d = rows[:, [all((x % p, y % p) != (0, 0) for p in prime_factors(q)) for x, y in rows.T]]
        want = [reps.index(label_oracle(q, x, y)) for x, y in zip(c.tolist(), d.tolist())]
        assert modular.coset_positions(q, c, d).tolist() == want
    with pytest.raises(ValueError, match=r"row \(3, 3\) vanishes mod 3"):
        modular.coset_positions(15, np.array([1, 3]), np.array([2, 3]))


def test_rows_and_labels_refuse_non_integers():
    """Rows are read as integers: a float raises TypeError, where it was
    once truncated to the label of (1, 2); Python ints of any size and numpy
    integers still label as their residues do."""
    for call in (lambda: coset_labels(5, [1.7], [2]), lambda: coset_labels(5, [1.5], [np.int64(2)]),
                 lambda: coset_labels(5, np.array([1.0]), [2]), lambda: coset_labels(1, [1.5], [2]),
                 lambda: coset_labels(15, ["1"], [2])):
        with pytest.raises(TypeError):
            call()
    want = [x.tolist() for x in coset_labels(35, [1, 3], [2, 34])]
    for c, d in (([1 + 35 * 2 ** 70, 3], [2, -1]), (np.array([1, 3], dtype=np.int32), np.array([2, 34], np.uint64))):
        assert [x.tolist() for x in coset_labels(35, c, d)] == want
    assert [x.tolist() for x in coset_labels(35, [np.int64(3)], [34 + 35 * 10 ** 30])] == [[want[0][1]], [want[1][1]]]
    with pytest.raises(ValueError, match=r"row \(35, 70\) vanishes mod 5"):
        coset_labels(35, [1, 35, 7], [2, 70, 0])


def test_prime_factors_cache_is_bounded():
    """The cache holds the few dozen moduli a verify run or a benchmark pass
    asks for, but a sweep over many moduli cannot grow it without bound."""
    assert prime_factors.cache_info().maxsize is not None


def test_projection_size_multiplicative_over_good_primes():
    s3 = len(project_group(MOD_GENS, 3))
    s5 = len(project_group(MOD_GENS, 5))
    s15 = len(project_group(MOD_GENS, 15))
    assert s15 == s3 * s5 == sl2_order(15)


def test_coset_table_small():
    t = coset_table(3)
    assert set(t.reps) == {(0, 1), (1, 0), (1, 1), (1, 2)}
    assert t.index == 4
    assert coset_table(15).index == 24
    assert eta(15) == 24
    with pytest.raises(ValueError):
        coset_table(12)


def test_eta_multiplicative():
    for q1, q2 in [(3, 5), (5, 7), (6, 35)]:
        assert eta(q1 * q2) == eta(q1) * eta(q2)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_representatives_partition_the_full_group(p):
    """Every element of SL(2,Z/pZ) labels to exactly one of the p+1 reps,
    and the fibers all have the same size p(p^2-1)/(p+1) = p(p-1)."""
    table = coset_table(p)
    counts = {rep: 0 for rep in table.reps}
    rows = project_group(MOD_GENS, p)
    for label in zip(*(x.tolist() for x in coset_labels(p, rows[:, 2], rows[:, 3]))):
        counts[label] += 1
    assert len(rows) == sl2_order(p)
    assert set(counts.values()) == {p * (p - 1)}


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_representatives_pairwise_inequivalent(p):
    """No two reps are unit multiples of each other mod p."""
    table = coset_table(p)
    for i, (c1, d1) in enumerate(table.reps):
        for (c2, d2) in table.reps[i + 1 :]:
            for a in range(1, p):
                assert not ((a * c1 - c2) % p == 0 and (a * d1 - d2) % p == 0)


def test_label_is_crt_compatible():
    """The labels mod 15 reduce to the oracle's labels mod 3 and mod 5."""
    rows = [(c, d) for c in range(15) for d in range(15)
            if not (c % 3 == 0 and d % 3 == 0 or c % 5 == 0 and d % 5 == 0)]
    lc, ld = coset_labels(15, *np.array(rows).T)
    for (c, d), label in zip(rows, zip(lc.tolist(), ld.tolist())):
        assert (label[0] % 3, label[1] % 3) == label_oracle(3, c % 3, d % 3)
        assert (label[0] % 5, label[1] % 5) == label_oracle(5, c % 5, d % 5)


squarefree_q = st.sampled_from([1, 2, 3, 5, 6, 7, 10, 11, 13, 15, 21, 30, 35, 105])


@given(squarefree_q, st.integers(0, 200), st.integers(0, 200))
def test_label_idempotent(q, c, d):
    def label(c, d):
        return tuple(int(x[0]) for x in coset_labels(q, [c], [d]))

    try:
        lab = label(c, d)
    except ValueError:
        return  # row vanishes mod some p | q
    assert label(*lab) == lab
    assert lab in coset_table(q).reps
    assert lab == label_oracle(q, c, d)
    assert label(c + 10**30 * q, d - 10**30 * q) == lab


def test_densities_match_predictions_small():
    for p in [5, 7, 13, 17, 19]:
        for f in (Form.X, Form.Y, Form.Z):
            assert local_density(f, p).match
    assert local_density(Form.Z, 5).measured == Fraction(1, 3)
    assert local_density(Form.Z, 7).measured == 0
    assert local_density(Form.AREA, 5).measured == Fraction(2, 3)
    assert local_density(Form.PRODUCT, 7).measured == Fraction(1, 2)
    assert local_density(Form.PRODUCT, 13).measured == Fraction(3, 7)


def test_density_thresholds_enforced():
    with pytest.raises(ValueError):
        predicted_density(Form.AREA, 3)
    with pytest.raises(ValueError):
        predicted_density(Form.PRODUCT, 5)
    with pytest.raises(ValueError):
        predicted_density(Form.X, 2)


def test_beta_multiplicative():
    assert beta(Form.Z, 65) == predicted_density(Form.Z, 5) * predicted_density(Form.Z, 13)
    assert beta(Form.Z, 21) == 0  # 7 = 3 mod 4 kills it
    assert beta(Form.X, 1) == 1


_TOP = primes_upto(TABLE_LIMIT)[-1]  # largest table prime
# semiprimes just above the trial bound: only the fallback can split them
_ABOVE = [p for p in range(TABLE_LIMIT + 1, TABLE_LIMIT + 200) if sympy.isprime(p)][:4]
# the largest prime below the trial reach (a cofactor taken as prime) and
# the smallest one at or past it (a cofactor only the fallback certifies)
_BELOW_REACH = sympy.prevprime((TABLE_LIMIT + 1) ** 2)
_PAST_REACH = sympy.nextprime((TABLE_LIMIT + 1) ** 2)
# high prime powers divided out over many rounds, and p^2 q with q past the table
_POWERS = [1 << 62, 3**39, 2 * 7**22, _TOP * _TOP * _ABOVE[0], 3 * 3 * 5]
_SPECIAL = [1, 2, _TOP, _TOP * _TOP, _TOP * _ABOVE[0]] + [1 << k for k in (1, 2, 31, 62)] + [
    p * q for p in _ABOVE for q in _ABOVE
] + _POWERS + [_BELOW_REACH, 2 * _BELOW_REACH, _PAST_REACH, 6 * _PAST_REACH]


def _sympy_primes(n):
    fac = sympy.factorint(n)
    return tuple(p for p in sorted(fac) for _ in range(fac[p]))


def _grouped(values, *args, **kwargs):
    """factor_array's flat (index, prime) arrays regrouped into one tuple of
    primes per value, after checking they are int64 and ordered by index and
    then by prime."""
    index, prime = factor_array(values, *args, **kwargs)
    assert index.dtype == prime.dtype == np.int64
    pairs = list(zip(index.tolist(), prime.tolist()))
    assert pairs == sorted(pairs)
    return [tuple(prime[index == k].tolist()) for k in range(len(values))]


@given(st.lists(st.one_of(st.sampled_from(_SPECIAL), st.integers(1, (1 << 63) - 1),
                          st.integers(1, 10 ** 7)), min_size=1, max_size=12, unique=True))
@settings(max_examples=60, deadline=None)
def test_factor_array_matches_sympy(values):
    assert _grouped(values) == [_sympy_primes(v) for v in values]


def test_factor_array_fallback_only_beyond_table(monkeypatch):
    calls = []
    real = modular._factor_beyond_table
    monkeypatch.setattr(modular, "_factor_beyond_table", lambda n: calls.append(n) or real(n))
    reach = (TABLE_LIMIT + 1) ** 2
    assert _grouped([_TOP * _TOP, reach - 1]) == [(_TOP, _TOP), _sympy_primes(reach - 1)]
    assert calls == []
    semi = _ABOVE[0] * _ABOVE[1]
    assert _grouped([6, semi]) == [(2, 3), (_ABOVE[0], _ABOVE[1])]
    assert calls == [semi]
    # a cofactor r > 1 below _TABLE_REACH is prime as it stands; only one at
    # or past the reach goes to the fallback, once per value
    calls.clear()
    assert modular._TABLE_REACH == reach and _BELOW_REACH < reach <= _PAST_REACH
    values = _POWERS + [_BELOW_REACH, 2 * _BELOW_REACH, 15 * _BELOW_REACH, reach, reach + 1,
                        _PAST_REACH, 6 * _PAST_REACH, semi]
    want = [_sympy_primes(v) for v in values]
    assert _grouped(values) == want
    cofactors = [math.prod(p for p in fac if p > TABLE_LIMIT) for fac in want]
    assert sorted(calls) == sorted(r for r in cofactors if r >= reach)
    assert calls.count(_PAST_REACH) == 2 and _BELOW_REACH not in calls


def _spy_divisor_hits(monkeypatch):
    """Replace modular._divisor_hits by a wrapper that records the (values,
    moduli) of each call, as copies, in the list it returns."""
    calls = []
    real = modular._divisor_hits
    monkeypatch.setattr(modular, "_divisor_hits",
                        lambda limbs, ps: calls.append((limbs.copy(), ps.copy())) or real(limbs, ps))
    return calls


@pytest.mark.parametrize("coprime_squares", [False, True])
def test_factor_array_blocks_see_only_live_values(coprime_squares, monkeypatch):
    """With a 64-cell budget, every _divisor_hits call gets only the live
    values: cofactors r >= p0^2 of its block's first prime p0.  The
    factors are factor_int's."""
    rng = random.Random(22)
    values = sorted({v * v + w * w if coprime_squares else v for v, w in
                     ((rng.randrange(1, 10 ** k), rng.randrange(1, 10 ** k)) for k in (1, 2, 3, 5) for _ in range(60))
                     if not coprime_squares or math.gcd(v, w) == 1})
    rng.shuffle(values)
    want = [factor_int(v) for v in values]
    monkeypatch.setattr(modular, "_CHUNK_CELLS", 64)
    calls = _spy_divisor_hits(monkeypatch)
    assert _grouped(values, coprime_squares) == want
    assert len(calls) > 1
    assert all(len(limbs) == 1 and (limbs[0] >= ps[0] * ps[0]).all() for limbs, ps in calls)


def _near_prime(n, step, coprime_squares):
    """The first prime from n on in direction step, 1 mod 4 when
    coprime_squares asks for a sum of two coprime squares; 2 if a downward
    search finds none."""
    while n > 2 and not (sympy.isprime(n) and (not coprime_squares or n % 4 == 1)):
        n += step
    return n


@pytest.mark.parametrize("coprime_squares", [False, True])
def test_factor_array_block_edges_match_sympy(coprime_squares, monkeypatch):
    """Values at the edge of every block, p0 the block's first prime and q
    the next prime tried: p0^2, p0 q, p0^2 q, and the primes just below and
    just above p0^2, factored with a 64-cell budget as sympy does."""
    monkeypatch.setattr(modular, "_CHUNK_CELLS", 64)
    probe = _near_prime(TABLE_LIMIT ** 2, -1, coprime_squares)  # live through every block
    calls = _spy_divisor_hits(monkeypatch)
    assert _grouped([probe], coprime_squares) == [(probe,)]
    tried = np.concatenate([ps for _, ps in calls]).tolist()
    assert len(calls) > 3 and tried == [p for p in primes_upto(math.isqrt(probe))
                                        if not coprime_squares or p == 2 or p % 4 == 1]
    firsts = [int(ps[0]) for _, ps in calls]
    values = {probe}
    for p0 in firsts:
        q = tried[tried.index(p0) + 1]
        values |= {p0 * p0, p0 * q, p0 * p0 * q, _near_prime(p0 * p0, -1, coprime_squares),
                   _near_prime(p0 * p0, 1, coprime_squares)}
    if coprime_squares:  # c^2 + d^2 with gcd(c, d) = 1: no prime 3 mod 4, and 4 does not divide
        values = {v for v in values if v % 4 and all(p % 4 != 3 for p in sympy.factorint(v))}
    values = sorted(values)
    calls.clear()
    assert _grouped(values, coprime_squares) == [_sympy_primes(v) for v in values]
    assert [int(ps[0]) for _, ps in calls] == firsts


def test_factor_array_cells_on_schottky_z(monkeypatch):
    """Trial division stops at the square root of each cofactor: on the
    distinct z values of the Schottky ball at T = 6e4, the (values x moduli)
    cells of all _divisor_hits calls stay at or below half of the 1,097,189
    that testing each value against every table prime up to the square root
    of the value as it started took."""
    c, d, _ = enumerate_ball(schottky_generators(), 6.0e4).distinct_rows()
    z = np.unique(c * c + d * d)
    z = z[z > 1]
    calls = _spy_divisor_hits(monkeypatch)
    index, prime = factor_array(z, sums_of_coprime_squares=True)
    assert np.multiply.reduceat(prime, np.flatnonzero(np.diff(index, prepend=-1))).tolist() == z.tolist()
    assert sum(limbs.shape[1] * len(ps) for limbs, ps in calls) <= 1_097_189 // 2


def test_factor_array_and_is_prime_refuse_non_integers():
    """Both read their input through operator.index, so a float, a string or
    a float array raises TypeError rather than answering for a truncated
    value; factor_array refuses a value at or past 2^63 with ValueError."""
    for call in (lambda: is_prime(1048583.7), lambda: is_prime(7.5), lambda: factor_array([1048583.7]),
                 lambda: factor_array(["12"]), lambda: factor_array(np.array([12.0]))):
        with pytest.raises(TypeError):
            call()
    for big in ([1 << 63], np.array([1 << 63], dtype=np.uint64), [2, 1 << 70]):
        with pytest.raises(ValueError):
            factor_array(big)
    assert is_prime(1048583) and is_prime(np.int64(1048583)) and not is_prime(np.int32(1048575))
    assert _grouped(np.array([12, 35], dtype=np.int32)) == _grouped([12, 35]) == [(2, 2, 3), (5, 7)]


def test_factor_beyond_table_refuses_a_table_prime_factor():
    """6p breaks the fallback's contract (no prime factor <= TABLE_LIMIT);
    its certificate turns that into ArithmeticError, not a wrong list."""
    with pytest.raises(ArithmeticError, match="certificate"):
        modular._factor_beyond_table(6 * _ABOVE[0])


def test_factor_int_examples():
    assert factor_int(1) == ()
    assert factor_int(60) == (2, 2, 3, 5)
    assert factor_int(5) == (5,)
    assert form_value(Form.Z, 8, 9) == 145
    assert factor_int(145) == (5, 29)
    # past 2^63 nothing is left after dividing out the table primes
    assert factor_int(2 ** 70) == (2,) * 70
    with pytest.raises(ValueError):
        factor_int(0)


_PRIME_POOL = [2, 3, 5, 7, 11, 13, 101, 9973]


@given(st.lists(st.sampled_from(_PRIME_POOL), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_factor_int_inverts_multiplication(primes):
    assert factor_int(math.prod(primes)) == tuple(sorted(primes))


def test_factor_beyond_table_matches_sympy():
    """Semiprimes, squares, cubes and three-prime products of primes just
    above the table, all below 2^63."""
    cases = [p * q for p, q in itertools.combinations_with_replacement(_ABOVE, 2)]
    cases += [p**3 for p in _ABOVE] + [math.prod(c) for c in itertools.combinations(_ABOVE, 3)]
    assert max(cases) < 1 << 63
    for n in cases:
        assert modular._factor_beyond_table(n) == list(_sympy_primes(n)), n
        assert _grouped([n]) == [factor_int(n)] == [_sympy_primes(n)], n


@given(st.lists(st.integers((1 << 20) + 1, (1 << 31) - 2).map(sympy.nextprime), min_size=2, max_size=3))
@settings(max_examples=40, deadline=None)
def test_factor_beyond_table_sweep(primes):
    n = math.prod(primes)
    assert modular._factor_beyond_table(n) == sorted(primes) == list(_sympy_primes(n))
    assert factor_int(n) == tuple(sorted(primes))


def test_miller_rabin_and_pollard_brent():
    # strong pseudoprimes to the bases 2..7 and 2..23; the bases up to 37 expose them
    for n in (3215031751, 3825123056546413051):
        assert not sympy.isprime(n) and not modular._strong_probable_prime(n)
        assert not is_prime(n)
    # psi_12 passes all twelve bases, so it is past what Miller-Rabin proves
    psi12 = 318665857834031151167461
    assert not sympy.isprime(psi12) and modular._strong_probable_prime(psi12)
    for call in (lambda: is_prime(psi12), lambda: factor_int(3 * psi12),
                 lambda: factor_int((1 << 127) - 1)):
        with pytest.raises(ArithmeticError):
            call()
    assert factor_int((1 << 64) + 1) == (274177, 67280421310721)
    big, m61 = sympy.nextprime(1 << 64), (1 << 61) - 1
    assert factor_int(big) == (big,) and factor_int(3**5 * m61) == (3,) * 5 + (m61,)
    # small odd composites often close a cycle at gcd = n, which needs a retry
    for n in range(9, 5000, 2):
        if not sympy.isprime(n):
            d = modular._pollard_brent(n)
            assert 1 < d < n and n % d == 0, n


def _strong_probable_prime_to(n, bases):
    """Reference Miller-Rabin: n passes every base in bases (n > max(bases))."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_miller_rabin_stops_at_the_proven_base_prefix():
    """Below psi_k the first k bases decide; the prefix run agrees with all
    twelve bases everywhere, and with sympy below _MR_LIMIT, on a seeded
    sample around every psi_k.  Each psi_k fools its first k bases, and all
    but psi_12 (which fools all twelve) come back composite."""
    rng = random.Random(15)
    for k, psi in enumerate(modular._MR_PSI, start=1):
        assert _strong_probable_prime_to(psi, modular._MR_BASES[:k]) and not sympy.isprime(psi)
        assert modular._strong_probable_prime(psi) == (psi == modular._MR_LIMIT)
        sample = {psi - 1, psi + 1, psi + 2} | {psi + rng.randrange(-10**4, 10**4) for _ in range(300)}
        for n in sample:
            got = modular._strong_probable_prime(n)
            assert got == (n in modular._MR_BASES or (all(n % a for a in modular._MR_BASES)
                                                      and _strong_probable_prime_to(n, modular._MR_BASES))), n
            if n < modular._MR_LIMIT:
                assert got == sympy.isprime(n), n


def test_is_prime_past_the_table_matches_sympy():
    """Past TABLE_LIMIT is_prime is Miller-Rabin alone; it agrees with sympy
    on a seeded sample in (2^20, 2^64), on Carmichael numbers (Chernick's
    (6k + 1)(12k + 1)(18k + 1)), on psi_1..psi_11 and their neighbours, and
    on semiprimes of two primes above the table.  psi_12 still raises."""
    rng = random.Random(30)
    sample = {rng.randrange(TABLE_LIMIT + 1, 1 << 64) for _ in range(10_000)}
    sample |= {rng.randrange(TABLE_LIMIT + 1, 1 << rng.randrange(21, 65)) for _ in range(2_000)}
    carmichael = [(6 * k + 1) * (12 * k + 1) * (18 * k + 1) for k in range(1, 5000)
                  if all(map(sympy.isprime, (6 * k + 1, 12 * k + 1, 18 * k + 1)))]
    assert len(carmichael) > 40 and all(pow(2, n - 1, n) == 1 for n in carmichael)
    sample |= {n for n in carmichael if TABLE_LIMIT < n < 1 << 64}
    sample |= {psi + e for psi in modular._MR_PSI[:11] for e in (-2, -1, 0, 1, 2)}
    sample |= {sympy.nextprime(rng.randrange(TABLE_LIMIT, 1 << 32)) * sympy.nextprime(rng.randrange(TABLE_LIMIT, 1 << 32))
               for _ in range(200)}
    for n in sorted(sample):
        assert is_prime(n) == bool(sympy.isprime(n)), n
    with pytest.raises(ArithmeticError):
        is_prime(modular._MR_LIMIT)


def test_factor_array_sums_of_coprime_squares():
    rows = [(c, d) for c in range(0, 60) for d in range(1, 60) if math.gcd(c, d) == 1]
    zs = sorted({c * c + d * d for c, d in rows})
    assert _grouped(zs, sums_of_coprime_squares=True) == [_sympy_primes(z) for z in zs]
    with pytest.raises(ValueError):
        factor_array([3, 0])


def test_small_number_helpers_match_sympy():
    assert primes_upto(1) == [] and primes_upto(2) == [2]
    assert primes_upto(5000) == list(sympy.primerange(2, 5001))
    assert primes_upto(TABLE_LIMIT + 100)[-4:] == list(sympy.primerange(TABLE_LIMIT - 100, TABLE_LIMIT + 101))[-4:]
    for n in list(range(-3, 400)) + [_TOP, _TOP * _TOP, (1 << 61) - 1, 10 ** 20 + 39]:
        assert is_prime(n) == bool(sympy.isprime(n)), n


@given(st.data())
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_divisor_hits_match_python_mod(monkeypatch, data):
    """The kernel's hits are the (value, modulus) pairs with v % m == 0 in
    Python ints, in row-major order, for |v| up to 2^256 (0 and negatives
    included) and moduli in [2, 2^31), with blocks split both ways."""
    monkeypatch.setattr(modular, "_CHUNK_CELLS", 5)
    bits = data.draw(st.sampled_from([62, 256]))
    moduli = data.draw(st.lists(st.integers(2, (1 << 31) - 1), min_size=1, max_size=12))
    values = data.draw(st.lists(st.one_of(
        st.just(0), st.integers(-(1 << bits), 1 << bits),
        st.builds(operator.mul, st.integers(-(1 << (bits - 31)), 1 << (bits - 31)), st.sampled_from(moduli))),
        min_size=1, max_size=16))
    limbs = modular._limbs(values)
    if all(-(1 << 63) <= v < 1 << 63 for v in values):
        assert limbs.tolist() == [values]
    else:
        k = len(limbs)
        assert k == -(-max(abs(v) for v in values).bit_length() // 32) and limbs.dtype == np.int64
        assert [sum(int(x) << (32 * (k - 1 - j)) for j, x in enumerate(col)) for col in limbs.T] == [
            abs(v) for v in values]
    hits = modular._divisor_hits(limbs, np.array(moduli, dtype=np.int64))
    assert list(zip(*(a.tolist() for a in hits))) == [
        (i, j) for i, v in enumerate(values) for j, m in enumerate(moduli) if v % m == 0]


def test_numpy_integers_factor_like_python_ints():
    prime_factors.cache_clear()  # np.int64(105) must not hit a cached 105
    assert prime_factors(np.int64(105)) == prime_factors(105) == (3, 5, 7)
    for n in (2 ** 40 + 15, 2 ** 40 + 16, 3 * 1_000_003 ** 2):
        got = factor_int(np.int64(n))
        assert got == factor_int(n) == _sympy_primes(n) and all(type(p) is int for p in got)


def test_divisor_hits_refuses_moduli_that_could_wrap():
    """Past int64 a modulus at or above 2^31 could wrap the Horner step, so
    it raises instead; on int64 values any modulus >= 2 is exact."""
    big = modular._limbs([2 ** 70 + 2 ** 31 * 3])
    for m in (1 << 31, 1, 0):
        with pytest.raises(ValueError):
            modular._divisor_hits(big, np.array([m], dtype=np.int64))
    hits = modular._divisor_hits(modular._limbs([(1 << 62) - 2, 6]), np.array([(1 << 62) - 2], dtype=np.int64))
    assert [a.tolist() for a in hits] == [[0], [0]]


def test_divisor_hits_refuses_moduli_below_two_for_every_limb_count():
    """On int64 values as past int64, a modulus below 2 raises: 0 does not
    divide every value and -3 is not read as 3."""
    for limbs in (modular._limbs([5, 6, -9]), modular._limbs([2 ** 70, 6]), modular._limbs([])):
        for m in (0, 1, -1, -3, -(1 << 63)):
            with pytest.raises(ValueError, match="at least 2"):
                modular._divisor_hits(limbs, np.array([3, m], dtype=np.int64))


def test_divisor_hits_at_the_uint64_edges():
    """int64 values against moduli at and past 2^31, odd, even and powers of
    two up to 2^63 - 1: the multiply-and-compare test answers as Python %,
    for 0, +-1, -2^63, 2^63 - 1 and +- multiples near the ends of int64."""
    moduli = [(1 << 31) - 1, 1 << 31, (1 << 31) + 1, 3 << 31, (1 << 32) + 2, 1 << 40, 3 ** 39,
              2 * 3 ** 38, (1 << 61) - 1, 1 << 62, (1 << 62) - 2, (1 << 62) + 1, (1 << 63) - 2, (1 << 63) - 1]
    top = (1 << 63) - 1
    values = [0, 1, -1, -(1 << 63), top, -top]
    for m in moduli:
        for k in (1, 2, 3, top // m - 1, top // m):
            values += [k * m, -k * m, k * m + 1, -k * m - 1] if k else []
    values = [v for v in values if -(1 << 63) <= v <= top]
    hits = modular._divisor_hits(modular._limbs(values), np.array(moduli, dtype=np.int64))
    assert list(zip(*(a.tolist() for a in hits))) == [
        (i, j) for i, v in enumerate(values) for j, m in enumerate(moduli) if v % m == 0]


def test_inverse_mod_2_64_inverts_odd_words():
    rng = random.Random(29)
    odd = [1, 3, (1 << 64) - 1, (1 << 63) + 1] + [rng.randrange(1 << 64) | 1 for _ in range(2000)]
    inverse = modular._inverse_mod_2_64(np.array(odd, dtype=np.uint64)).tolist()
    assert all(o * y % (1 << 64) == 1 for o, y in zip(odd, inverse))
