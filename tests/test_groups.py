"""Ball enumeration, growth fits, smoothing, and coset equidistribution."""

import hashlib
import importlib
import math
from collections import Counter
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from triplesieve import groups, modular, runs
from triplesieve.gl2 import GEN_L, GEN_R, UnimodularMatrix, sq_norm
from triplesieve.groups import (
    BallBudgetError,
    GeneratorSet,
    GrowthEstimate,
    SmoothedWeight,
    _norm_keys,
    coset_counts,
    enumerate_ball,
    estimate_delta,
    modular_generators,
    parse_generator_text,
    schottky_generators,
    word_ball,
)

from matrix_oracles import label_oracle

# the package re-exports the function census under the module's name
census_mod = importlib.import_module("triplesieve.census")


def brute_ball_count(T):
    """Independent oracle: scan the integer box for det-1, sq_norm < T^2."""
    bound = math.isqrt(int(T * T)) + 1
    count = 0
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            for c in range(-bound, bound + 1):
                for d in range(-bound, bound + 1):
                    if a * d - b * c == 1 and a * a + b * b + c * c + d * d < T * T:
                        count += 1
    return count


def test_empty_and_tiny_balls():
    mg = modular_generators()
    assert len(enumerate_ball(mg, 1)) == 0  # sq_norm >= 2 always
    # the four norm-2 elements (+-identity and the two rotation-like ones)
    ball = enumerate_ball(mg, 1.5)
    assert len(ball) == 4
    assert sorted(abs(int(v)) for row in ball.rows.tolist() for v in row).count(1) == 8
    # free hyperbolic pair: nothing but the identity below sq_norm 2.25
    assert len(enumerate_ball(schottky_generators(), 1.5)) == 1


def test_ball_matches_box_scan_oracle():
    mg = modular_generators()
    assert len(enumerate_ball(mg, 10)) == brute_ball_count(10)
    assert len(enumerate_ball(mg, 7)) == brute_ball_count(7)


def test_ball_regression_counts():
    mg = modular_generators()
    assert len(enumerate_ball(mg, 10)) == 580
    assert len(enumerate_ball(mg, 200)) == 239796


def test_ball_invariants():
    mg = modular_generators()
    ball = enumerate_ball(mg, 8)
    rows = ball.rows.tolist()
    assert all(a * d - b * c == 1 for a, b, c, d in rows)
    assert all(a * a + b * b + c * c + d * d < 64 for a, b, c, d in rows)
    assert len({tuple(r) for r in rows}) == len(rows)  # dedup
    # monotone nesting
    small = {tuple(r) for r in enumerate_ball(mg, 5).rows.tolist()}
    assert small <= {tuple(r) for r in rows}


def test_generator_order_does_not_change_the_set():
    g1 = GeneratorSet("fwd", (GEN_R, GEN_L))
    g2 = GeneratorSet("rev", (GEN_L, GEN_R))
    b1 = enumerate_ball(g1, 12)
    b2 = enumerate_ball(g2, 12)
    assert b1.rows.tolist() == b2.rows.tolist()


def test_word_lengths_on_small_balls():
    mg = modular_generators()
    ball = enumerate_ball(mg, 4)
    exact = word_ball(mg, 10)
    for row, wl in zip(ball.rows.tolist(), ball.word_lengths.tolist()):
        m = UnimodularMatrix(*row)
        # discovery length is a geodesic among in-region paths, so it can
        # only overshoot the true geodesic
        assert wl >= exact[m]
        if wl > 0:
            assert exact[m] >= 1


def test_budget_error_is_distinct(monkeypatch):
    monkeypatch.setattr(groups, "_ELEMENT_CAP", 1000)
    with pytest.raises(BallBudgetError) as ei:
        enumerate_ball(modular_generators(), 100)
    assert ei.value.cap == 1000
    assert ei.value.discovered > 1000


def test_large_letters_do_not_wrap_int64(monkeypatch):
    """Candidate products beyond int64 are computed with Python ints: with
    letters of size N = 30000 the expansion region has about 40 nodes and the
    ball at T = 10 is {I}; int64 products would wrap into false small norms
    and flood the search past the budget."""
    N = 30000
    gens = GeneratorSet("h", (UnimodularMatrix(1, N, 0, 1), UnimodularMatrix(1, 0, N, 1)))
    monkeypatch.setattr(groups, "_ELEMENT_CAP", 1000)
    ball = enumerate_ball(gens, 10)
    assert ball.rows.tolist() == [[1, 0, 0, 1]]
    assert ball.rows.dtype == np.int64 and ball.sq_norms().tolist() == [2]


def region_bound(gens, T):
    """The expansion bound of enumerate_ball's breadth-first search, in exact
    integers: ceil(T^2 M), M the largest letter sq_norm, or max(ceil(T^2), 4)
    on R and L."""
    t2 = Fraction(T) ** 2
    return max(math.ceil(t2), 4) if gens.monotone_cap else math.ceil(t2 * gens.max_letter_sq_norm())


def key_layout(gens, T):
    """(dtype, word count) of the search keys of enumerate_ball(gens, T)."""
    dtype, places = groups._key_layout([h.entries() for h in gens.letters()], region_bound(gens, T))
    return dtype, places[-1][0] + 1


def reference_ball(gens, T):
    """Independent enumerator: breadth-first search with a Python set of
    UnimodularMatrix over the same expansion region as enumerate_ball.
    Returns (rows, word lengths) in canonical (sq_norm, entries) order."""
    ball_bound = Fraction(T) ** 2
    expand_bound = region_bound(gens, T)
    letters = gens.letters()
    dist = {UnimodularMatrix.identity(): 0}
    frontier = list(dist)
    while frontier:
        nxt = []
        for g in frontier:
            for h in letters:
                w = g @ h
                if sq_norm(w) < expand_bound and w not in dist:
                    dist[w] = dist[g] + 1
                    nxt.append(w)
        frontier = nxt
    found = sorted((sq_norm(g), g.entries(), n) for g, n in dist.items() if sq_norm(g) < ball_bound)
    return [list(e) for _, e, _ in found], [n for _, _, n in found]


WORD_LETTERS = [GEN_R, GEN_L, UnimodularMatrix(0, -1, 1, 0), UnimodularMatrix(-1, 0, 0, -1)]
short_words = st.lists(st.sampled_from(WORD_LETTERS), min_size=1, max_size=3).map(
    lambda w: reduce(UnimodularMatrix.__matmul__, w)
)


def big_letters(N, with_rl):
    """<[[1,N],[0,1]], [[1,0],[N,1]]>, optionally with RL, whose powers give
    the ball more than the identity."""
    gens = (UnimodularMatrix(1, N, 0, 1), UnimodularMatrix(1, 0, N, 1))
    return GeneratorSet("h", gens + ((GEN_R @ GEN_L,) if with_rl else ()))


ball_cases = st.one_of(
    # short words in R, L, S and -I: finite, parabolic and lattice subgroups
    st.tuples(
        st.lists(short_words, min_size=1, max_size=3).map(lambda g: GeneratorSet("w", tuple(g))),
        st.floats(1, 6),
    ),
    st.tuples(st.just(modular_generators()), st.floats(1, 25)),
    # one packed word below T ~ 4779, two words above
    st.tuples(st.just(schottky_generators()), st.sampled_from([60, 4700, 4800])),
    # N = 3000 keys on uint64 (one word at T = 4, two above); 10**4 on
    # uint64 at T = 4, where the key words of rejected children wrap mod
    # 2^64, and on Python ints from T = 10; larger N on Python ints, with
    # fields wider than 64 bits for 10**18 at T >= 10
    st.tuples(
        st.builds(big_letters, st.sampled_from([3000, 10**4, 30000, 10**9, 10**18]), st.booleans()),
        st.sampled_from([4, 10, 30]),
    ),
)


@settings(max_examples=60, deadline=None)
@given(ball_cases)
def test_enumerate_ball_matches_set_bfs(case):
    gens, T = case
    ball = enumerate_ball(gens, T)
    rows, word_lengths = reference_ball(gens, T)
    assert ball.rows.dtype == np.int64
    assert ball.rows.tolist() == rows
    assert ball.word_lengths.tolist() == word_lengths


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 59).flatmap(lambda k: st.tuples(
    st.just(k),
    st.lists(st.tuples(*[st.integers(-math.isqrt(2**k - 1), math.isqrt(2**k - 1))] * 4), min_size=1, max_size=20),
)))
def test_norm_keys_sort_like_norm_then_tuples(case):
    """Sort keys of int64 rows, from one packed word to several, order rows
    by (sum of squares, tuple) and tell distinct rows apart."""
    k, rows = case
    arr = np.array(rows, dtype=np.int64)
    keys = _norm_keys(arr)
    order = np.lexsort(keys[::-1]).tolist()
    assert [rows[i] for i in order] == sorted(rows, key=lambda r: (sum(e * e for e in r), r))
    packed = list(zip(*(key[order].tolist() for key in keys)))
    assert all((p == q) == (rows[i] == rows[j]) for p, q, i, j in zip(packed, packed[1:], order, order[1:]))


def hand_built_ball():
    """Bottom rows with repeats, both signs and entries near +-(2^31 - 1);
    the top rows only tell the elements apart."""
    top = 2**31 - 1
    bottom = [(top, -top), (1, 0), (-top, top), (0, 1), (top, -top), (-1, 0), (0, -1),
              (1, 0), (top, top - 1), (-top, -top), (top - 1, top), (1, -1), (-1, 1), (top, top - 1)]
    rows = np.array([(k, 0, c, d) for k, (c, d) in enumerate(bottom)], dtype=np.int64)
    return groups.OrbitBall(T=2.0**32, label="hand", rows=rows, word_lengths=np.zeros(len(rows), dtype=np.int64))


@pytest.mark.parametrize("make", [lambda: enumerate_ball(modular_generators(), 60),
                                  lambda: enumerate_ball(schottky_generators(), 1e5),
                                  hand_built_ball])
def test_distinct_rows_kernel(make, monkeypatch):
    """distinct_rows orders the distinct bottom rows by (c^2+d^2, c, d), as a
    Python sort of the set does, and its inverse maps every element to its
    own row; the hand-built ball needs sort keys of more than one word."""
    words = []

    def spy(*args, **kwargs):
        keys = _norm_keys(*args, **kwargs)
        words.append(len(keys))
        return keys

    monkeypatch.setattr(groups, "_norm_keys", spy)
    ball = make()
    c, d, inverse = ball.distinct_rows()
    bottom = [tuple(r) for r in ball.rows[:, 2:4].tolist()]
    reference = sorted(set(bottom), key=lambda r: (r[0] * r[0] + r[1] * r[1], r))
    rows = list(zip(c.tolist(), d.tolist()))
    assert rows == reference
    assert [rows[i] for i in inverse.tolist()] == bottom
    if ball.label == "hand":
        assert len(rows) < len(bottom) and words[-1] > 1


def lexsort_distinct_rows(ball):
    """(c, d, inverse) from one stable lexsort on (c^2+d^2, c, d)."""
    c, d = ball.rows[:, 2], ball.rows[:, 3]
    order = np.lexsort((d, c, c * c + d * d))
    head = np.ones(len(order), dtype=bool)
    head[1:] = (np.diff(c[order]) != 0) | (np.diff(d[order]) != 0)
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(head) - 1
    return c[order[head]], d[order[head]], inverse


@pytest.mark.parametrize("make", [
    lambda: enumerate_ball(modular_generators(), 90),
    lambda: enumerate_ball(GeneratorSet("sr", (UnimodularMatrix(0, -1, 1, 0), GEN_R)), 40),
    lambda: enumerate_ball(GeneratorSet("mi", (UnimodularMatrix(-1, 0, 0, -1), GEN_R @ GEN_R, GEN_L @ GEN_L)), 40),
    hand_built_ball,
])
def test_distinct_rows_match_lexsort_oracle(make):
    """Balls where many elements share a bottom row: distinct_rows gives the
    same arrays, inverse and dtypes included, as a stable lexsort."""
    ball = make()
    got, want = ball.distinct_rows(), lexsort_distinct_rows(ball)
    assert len(want[0]) < len(ball)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


@pytest.mark.parametrize(
    "gens, T, cap, discovered",
    [(modular_generators(), 100, 1000, 1132), (schottky_generators(), 1e6, 5000, 10793)],
)
def test_budget_error_discovered_count(gens, T, cap, discovered, monkeypatch):
    """The count a capped enumeration reports: every distinct element found
    up to and including the layer that crossed the cap."""
    monkeypatch.setattr(groups, "_ELEMENT_CAP", cap)
    with pytest.raises(BallBudgetError) as ei:
        enumerate_ball(gens, T)
    assert ei.value.discovered == discovered


def test_no_parabolic_certificates():
    assert groups._ping_pong_certificate(letter_entries(schottky_generators())) is not None
    assert groups._ping_pong_certificate(letter_entries(modular_generators())) is None
    assert all(sq_norm(g) == 47 and g.trace() == 7 for g in schottky_generators().gens)


def test_schottky_ball_equals_reduced_word_enumeration():
    """Two-path check: the free pair's ball must equal the norm filter of a
    plain word enumeration taken deep enough that every longer word is loud."""
    sg = schottky_generators()
    T = 50
    ball = {tuple(r) for r in enumerate_ball(sg, T).rows.tolist()}
    dist = word_ball(sg, 6)
    by_words = {g.entries() for g in dist if sq_norm(g) < T * T}
    # depth 6 suffices: the quietest length-6 word is already far outside
    assert min(sq_norm(g) for g, l in dist.items() if l == 6) > T * T * 47
    assert ball == by_words


def letter_entries(gens):
    return tuple(h.entries() for h in gens.letters())


def conjugate(gens, c):
    return GeneratorSet("conj", tuple(c.inverse() @ g @ c for g in gens.gens))


S_MAT = UnimodularMatrix(0, -1, 1, 0)
CONJUGATORS = [
    u @ v if left else v @ u
    for u in (UnimodularMatrix.identity(), S_MAT)
    for v in (UnimodularMatrix.identity(), GEN_R, GEN_L, GEN_R.inverse(), GEN_L.inverse(),
              GEN_R @ GEN_L.inverse(), GEN_L @ GEN_R.inverse(),
              GEN_R.inverse() @ GEN_L, GEN_L.inverse() @ GEN_R)
    for left in (True, False)
]


def two_power_words(first, second):
    """first^a second^b for exponents a, b in 2..4: hyperbolic."""
    return st.tuples(st.integers(2, 4), st.integers(2, 4)).map(
        lambda e: reduce(UnimodularMatrix.__matmul__, [first] * e[0] + [second] * e[1])
    )


rl_words, lr_words = two_power_words(GEN_R, GEN_L), two_power_words(GEN_L, GEN_R)
certified_cases = st.tuples(
    st.one_of(
        # conjugates of the Schottky pair by short words
        st.sampled_from(CONJUGATORS).map(lambda c: conjugate(schottky_generators(), c)),
        # words R^a L^b and L^c R^d, as a pair or alone
        st.one_of(st.tuples(rl_words, lr_words), st.tuples(rl_words), st.tuples(lr_words)).map(
            lambda g: GeneratorSet("words", g)
        ),
    ),
    st.floats(1, 2000),
)


@settings(max_examples=60, deadline=None)
@given(certified_cases)
def test_certified_tree_matches_set_bfs(case):
    """The reduced-word tree returns the breadth-first ball exactly, word
    lengths included, on generator sets that carry a certificate."""
    gens, T = case
    assert groups._ping_pong_certificate(letter_entries(gens)) is not None
    ball = enumerate_ball(gens, T)
    rows, word_lengths = reference_ball(gens, T)
    assert ball.rows.dtype == np.int64 and ball.word_lengths.dtype == np.int64
    assert ball.rows.tolist() == rows
    assert ball.word_lengths.tolist() == word_lengths


def test_schottky_certificate_is_tight_under_moved_endpoints():
    """The Schottky certificate passes the checker, and moving any one
    endpoint inward by a quarter of its interval is rejected: the unwidened
    hull is spanned by rows of reduced words, which every valid interval
    must hold."""
    letters = letter_entries(schottky_generators())
    K = groups._ping_pong_certificate(letters)
    assert K is not None and groups._certificate_holds(letters, K)
    for j, (lo, hi) in enumerate(K):
        step = (hi - lo) / 4
        for moved in ((lo + step, hi), (lo, hi - step)):
            shrunk = list(K)
            shrunk[j] = moved
            assert not groups._certificate_holds(letters, shrunk)


def test_norm_gain_check_reaches_the_vertex():
    """Q for RL is s^2 + 6s + 4: nonnegative at -6 and 0 but -5 at its
    vertex -3, so only the vertex rejects [-6, 0]."""
    assert not groups._norm_gain_nonnegative((2, 1, 1, 1), (Fraction(-6), Fraction(0)))
    assert groups._norm_gain_nonnegative((2, 1, 1, 1), (Fraction(0), Fraction(1)))


def test_tree_checks_the_budget_after_each_block(monkeypatch):
    """The tree checks its total after each block of _TREE_BLOCK parents, so
    a capped run holds at most one block's children past the cap: each
    parent has three reduced children.  Blocks change only the order of a
    layer, which the canonical sort undoes."""
    sg = schottky_generators()
    whole = enumerate_ball(sg, 1e6)
    monkeypatch.setattr(groups, "_TREE_BLOCK", 16)
    blocked = enumerate_ball(sg, 1e6)
    assert blocked.rows.tolist() == whole.rows.tolist()
    assert blocked.word_lengths.tolist() == whole.word_lengths.tolist()
    monkeypatch.setattr(groups, "_ELEMENT_CAP", 1000)
    with pytest.raises(BallBudgetError) as ei:
        enumerate_ball(sg, 1e6)
    assert 1000 < ei.value.discovered <= 1000 + 3 * 16


def test_tree_counts_only_ball_elements(monkeypatch):
    """Without dedup the tree finds each element once: a cap equal to the
    ball size succeeds, while the breadth-first search, whose region is 3.8
    times the ball, would pass it."""
    sg = schottky_generators()
    monkeypatch.setattr(groups, "_ELEMENT_CAP", 14269)
    assert len(enumerate_ball(sg, 1e6)) == 14269
    monkeypatch.setattr(groups, "_ELEMENT_CAP", 14268)
    with pytest.raises(BallBudgetError) as ei:
        enumerate_ball(sg, 1e6)
    assert ei.value.discovered > 14268


@pytest.mark.parametrize(
    "gens, T",
    [
        (modular_generators(), 12),
        (GeneratorSet("r2l2", (GEN_R @ GEN_R, GEN_L @ GEN_L)), 40),
        (big_letters(3, False), 60),
        (big_letters(5, True), 60),
        (GeneratorSet("minus", schottky_generators().gens + (UnimodularMatrix(-1, 0, 0, -1),)), 300),
        (GeneratorSet("rot", schottky_generators().gens + (S_MAT,)), 300),
        # ping-pong holds but norms drop along some reduced words: the tree
        # pruned at T^2 would miss 2 of the 37 elements
        (conjugate(schottky_generators(), GEN_R @ GEN_R), 300),
    ],
)
def test_uncertified_sets_keep_the_bfs(gens, T, monkeypatch):
    """Parabolic letters, -I, S and letters whose norms can drop get no
    certificate, never reach the tree, and their balls stay the
    breadth-first ones."""
    assert groups._ping_pong_certificate(letter_entries(gens)) is None

    def no_tree(*args):
        raise AssertionError("uncertified set reached the reduced-word tree")

    monkeypatch.setattr(groups, "_tree_layers", no_tree)
    ball = enumerate_ball(gens, T)
    rows, word_lengths = reference_ball(gens, T)
    assert ball.rows.tolist() == rows
    assert ball.word_lengths.tolist() == word_lengths


def test_search_region_comes_from_the_letters(tmp_path, monkeypatch):
    """Only the letter set R^+-1, L^+-1 gets the column-reduction region,
    whatever the order, the signs or the source of the generators; no caller
    can set it."""
    path = tmp_path / "rl.txt"
    path.write_text("1 1 0 1\n1 0 1 1\n")
    from_file = groups.load_generator_file(path)
    for gens in (GeneratorSet("rl", (GEN_R, GEN_L)), GeneratorSet("lr", (GEN_L, GEN_R)),
                 GeneratorSet("ril", (GEN_R.inverse(), GEN_L)), from_file):
        assert gens.monotone_cap
    for gens in (GeneratorSet("rls", (GEN_R, GEN_L, S_MAT)),
                 GeneratorSet("r2l2", (GEN_R @ GEN_R, GEN_L @ GEN_L)), schottky_generators()):
        assert not gens.monotone_cap
    with pytest.raises(TypeError):
        GeneratorSet("rl", (GEN_R, GEN_L), monotone_cap=True)
    ball, mod = enumerate_ball(from_file, 60), enumerate_ball(modular_generators(), 60)
    assert np.array_equal(ball.rows, mod.rows) and np.array_equal(ball.word_lengths, mod.word_lengths)

    # the Schottky conjugate by R^2 runs the breadth-first search; the
    # column-reduction region would miss one of its 27 elements at T = 200
    conj = conjugate(schottky_generators(), GEN_R @ GEN_R)
    ball = enumerate_ball(conj, 200)
    rows, word_lengths = reference_ball(conj, 200)
    assert len(ball) == 27
    assert ball.rows.tolist() == rows and ball.word_lengths.tolist() == word_lengths
    monkeypatch.setattr(GeneratorSet, "monotone_cap", property(lambda self: True))
    assert len(enumerate_ball(conj, 200)) == 26


def test_schottky_tree_equals_bfs_at_1e7(monkeypatch):
    sg = schottky_generators()
    tree = enumerate_ball(sg, 1e7)
    monkeypatch.setattr(groups, "_ping_pong_certificate", lambda letters: None)
    bfs = enumerate_ball(sg, 1e7)
    assert len(tree) == 70089
    assert tree.rows.dtype == bfs.rows.dtype == np.int64
    assert np.array_equal(tree.rows, bfs.rows)
    assert np.array_equal(tree.word_lengths, bfs.word_lengths)


def test_tree_dtype_on_both_sides_of_its_edges():
    """The certified tree runs on int64 while its bound L = ceil(T^2) is
    below 2^61 and a child entry, below 2 e_max max|letter entry| with
    e_max = isqrt(L - 1) + 1, fits; on Python ints otherwise.  The rule it
    replaced gave the Schottky tree Python ints from about T = 1.5e8."""
    sch = letter_entries(schottky_generators())
    T = math.isqrt((1 << 61) - 1)  # 1518500249, the last integer radius on int64
    assert T * T < 1 << 61 <= (T + 1) ** 2
    assert groups._tree_dtype(sch, groups._radius_bound(T)) is np.int64
    assert groups._tree_dtype(sch, groups._radius_bound(T + 1)) is object
    assert groups._tree_dtype(sch, (1 << 61) - 1) is np.int64
    assert groups._tree_dtype(sch, 1 << 61) is object
    # at L = 4, e_max = 2: letter entries up to 2^61 - 1 keep int64
    for k, dtype in (((1 << 61) - 1, np.int64), (1 << 61, object)):
        assert groups._tree_dtype(((1, k, 0, 1), (1, -k, 0, 1)), 4) is dtype
    assert groups._entry_dtype(sch, groups._radius_bound(2e8)) is object
    assert groups._tree_dtype(sch, groups._radius_bound(2e8)) is np.int64


def test_tree_drops_large_entries_before_squaring(monkeypatch):
    """A child entry of 2^32 squares to 0 mod 2^64: on int64 the tree must
    drop it, as |e| >= e_max, before its sq_norm is formed, so the ball of
    these letters at T = 10 is {I}."""
    k = 1 << 32
    letters = ((1, k, 0, 1), (1, -k, 0, 1), (1, 0, k, 1), (1, 0, -k, 1))
    bound = groups._radius_bound(10)
    assert groups._tree_dtype(letters, bound) is np.int64
    monkeypatch.setattr(groups, "_ELEMENT_CAP", 100)
    layers = groups._tree_layers(letters, 10, bound)
    assert [layer.tolist() for layer in layers] == [[[1], [0], [0], [1]], [[], [], [], []]]


@pytest.mark.parametrize("T", [1e5, 3e6])
def test_tree_on_python_ints_equals_int64(T, monkeypatch):
    """The tree's two arithmetics give one ball: entries past e_max are
    dropped before squaring in both."""
    sg = schottky_generators()
    ball = enumerate_ball(sg, T)
    monkeypatch.setattr(groups, "_tree_dtype", lambda *a: object)
    wide = enumerate_ball(sg, T)
    for a, b in ((ball.rows, wide.rows), (ball.word_lengths, wide.word_lengths), (ball.sq_norms(), wide.sq_norms())):
        assert a.dtype == b.dtype == np.int64 and np.array_equal(a, b)


def test_schottky_tree_at_2e8_on_int64():
    """T = 2e8 ran on Python ints before the tree had its own rule; rows,
    word lengths and sq_norms are pinned to that run's."""
    ball = enumerate_ball(schottky_generators(), 2e8)
    digest = hashlib.sha256(ball.rows.tobytes() + ball.word_lengths.tobytes() + ball.sq_norms().tobytes())
    assert len(ball) == 567045
    assert digest.hexdigest() == "e57c0a9c53f67de4d388b8d83c52bcea2ef7e4c59db1b98c989d16ae85b0d288"


R3, L3 = GEN_R @ GEN_R @ GEN_R, GEN_L @ GEN_L @ GEN_L
R2, L2 = GEN_R @ GEN_R, GEN_L @ GEN_L


@pytest.mark.parametrize("gens, T", [
    *((modular_generators(), T) for T in (1, 1.5, math.sqrt(11), 12, 20.5, 60, 130.3)),
    (GeneratorSet("r2l2", (R2, L2)), 200),
    # one-word search, but (sq_norm, entries, word length) needs 66 bits
    (GeneratorSet("r3l3", (R3, L3)), 300),
    (GeneratorSet("rls", (GEN_R, GEN_L, S_MAT)), 60),
    (GeneratorSet("mi", (UnimodularMatrix(-1, 0, 0, -1), R2, L2)), 150),
])
def test_one_word_enumeration_matches_the_wide_path(gens, T, monkeypatch):
    """The search on uint64 key words gives the rows, word lengths and
    sq_norms, dtypes included, that one Python-int key per element gives
    (_entry_dtype patched to object); the finished ball is packed and
    sorted the same way after each."""
    layouts = []
    real = groups._key_layout
    monkeypatch.setattr(groups, "_key_layout", lambda *a: layouts.append(real(*a)) or layouts[-1])
    word = enumerate_ball(gens, T)
    monkeypatch.setattr(groups, "_entry_dtype", lambda *a: object)
    python = enumerate_ball(gens, T)
    assert [dtype for dtype, _ in layouts] == [np.uint64, object]
    for got, want in ((word.rows, python.rows), (word.word_lengths, python.word_lengths),
                      (word.sq_norms(), python.sq_norms())):
        assert got.dtype == want.dtype == np.int64 and np.array_equal(got, want)


H4 = GeneratorSet("h4", tuple(UnimodularMatrix(1 + 4 * i, -8 * i * i, 2, 1 - 4 * i) for i in (-2, -1, 0, 1)))


def ball_digest(ball):
    """sha256 of the dtype, shape and bytes of rows, word lengths and sq_norms."""
    h = hashlib.sha256()
    for a in (ball.rows, ball.word_lengths, ball.sq_norms()):
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("gens, T, words, digest", [
    # (sq_norm, entries, word length) in 61 bits, 16 + 4 * 9 + 9, then in
    # 65 as the modular ball's largest entry reaches 255 and its fields 10 bits
    (modular_generators(), 254.9, 1, "23fd6c25a37d17e017782a2297fcc47229f8567530378da278f181bf83890d6a"),
    (modular_generators(), 255.5, 2, "76197f4505c15955167d24802379a5a5b9bef6fee432df8b512c73302400c33e"),
    # the Schottky tree at 510.9: largest entry 355, sq_norm 229,763, so
    # 18 + 4 * 10 + 3 = 61 bits; at 800: 578 and 605,495, so 20 + 4 * 11 + 3 = 67
    (schottky_generators(), 510.9, 1, "42094d2ce50488b19ff30851e16fbfaf7fd18f3c61f5b25e59fbd22422c1a059"),
    (schottky_generators(), 800, 2, "fd4d3bc25c40689c4af7f57cfad74a107788798eb5b8504d819ac8e523ac6317"),
    # uint64 search keys, and one Python-int search key per element
    (H4, 300, 2, "bd53537ede84d8e86983e110db24f7911d3ee41dd296a27a0ba48e3505bfc33f"),
    (big_letters(30000, False), 30001, 2, "4f56225ce27f5ca55f343c2a829e896f407a4c1709319ee97e28860f631f1a8f"),
])
def test_one_sort_on_both_sides_of_the_one_word_edge(gens, T, words, digest, monkeypatch):
    """A finished ball packs (sq_norm, entries, word length) into as many
    uint64 words as it needs and sorts them.  On either side of the
    one-word edge its rows, word lengths and sq_norms are a lexsort of the
    same rows by (sq_norm, a, b, c, d), and match the digests recorded
    from the sort this one replaced."""
    packed = []
    real = groups._pack
    monkeypatch.setattr(groups, "_pack", lambda fields: packed.append(real(fields)) or packed[-1])
    ball = enumerate_ball(gens, T)
    assert [len(keys) for keys, _ in packed] == [words]
    perm = np.random.default_rng(0).permutation(len(ball))
    rows, word_lengths = ball.rows[perm], ball.word_lengths[perm]
    a, b, c, d = rows.T
    sq = a * a + b * b + c * c + d * d
    order = np.lexsort((d, c, b, a, sq))
    assert np.array_equal(rows[order], ball.rows)
    assert np.array_equal(word_lengths[order], ball.word_lengths)
    assert np.array_equal(sq[order], ball.sq_norms())
    assert ball_digest(ball) == digest


@pytest.mark.parametrize("N", [511, 512])
def test_bit_budget_edge(N):
    """At T = 6 the region of <[[1,N],[0,1]], [[1,0],[N,1]], RL> has 13-bit
    fields, so the keys are one uint64 word (4 * 13 + 1 bits) whatever the
    letter size; both balls match the set-based search."""
    gens = big_letters(N, True)
    assert key_layout(gens, 6) == (np.uint64, 1)
    ball = enumerate_ball(gens, 6)
    rows, word_lengths = reference_ball(gens, 6)
    assert ball.rows.tolist() == rows and ball.word_lengths.tolist() == word_lengths
    assert len(rows) == 3


@pytest.mark.parametrize("N, T, dtype, words", [
    (3000, 4, np.uint64, 1),  # four 15-bit fields and the tag in 61 bits
    (3000, 10, np.uint64, 2),  # four 16-bit fields fill a word; the tag has its own
    (3000, 30, np.uint64, 2),  # 18-bit fields: a, b, c in one word, d and the tag in the next
    (10**4, 6, np.uint64, 2),  # rejected children's key words wrap mod 2^64
    (10**4, 10, object, 1),  # products of region nodes by letters pass int64
])
def test_key_layouts(N, T, dtype, words):
    """Past the int64 budget the keys are uint64 words, however the fields
    split across them, or one Python int per element; every layout gives
    the ball of the set-based search."""
    gens = big_letters(N, True)
    assert key_layout(gens, T) == (dtype, words)
    layers = groups._bfs_layers(letter_entries(gens), T, region_bound(gens, T))
    assert {c.dtype for c in layers} == {np.dtype(np.int64 if dtype is np.uint64 else dtype)}
    ball = enumerate_ball(gens, T)
    rows, word_lengths = reference_ball(gens, T)
    assert ball.rows.dtype == np.int64
    assert ball.rows.tolist() == rows and ball.word_lengths.tolist() == word_lengths


def test_one_word_edge_of_the_modular_search():
    """On R and L the search keys are one uint64 word while four entry
    fields and the tag fit 64 bits: up to the region 16383^2 - 1 (off =
    16383, 15-bit fields), and two words from 16383^2 (off = 16384, 16 bits)."""
    letters = letter_entries(modular_generators())
    for region, words in ((16383**2 - 1, 1), (16383**2, 2)):
        dtype, places = groups._key_layout(letters, region)
        assert (dtype, places[-1][0] + 1) == (np.uint64, words)


KERNEL_KEYS = {
    "int64 at both ends": np.array([(1 << 63) - 1, -1 << 63, 5, -1 << 63, (1 << 63) - 1, 0, 5, -1], dtype=np.int64),
    "python ints past int64": np.array([1 << 70, -1 << 64, 1 << 63, 1 << 70, 3, -1 << 64, (1 << 63) - 1, 3],
                                       dtype=object),
    "empty": np.zeros(0, dtype=np.int64),
    "one": np.array([7], dtype=np.int64),
    "all equal": np.full(9, -4, dtype=np.int64),
    "random": np.random.default_rng(3).integers(-50, 50, 1000),
}


@pytest.mark.parametrize("name", sorted(KERNEL_KEYS))
def test_run_kernel_matches_np_unique(name, monkeypatch):
    """Every reader of the run kernel against np.unique as the oracle:
    distinct keys, inverse and counts; _run_sums and _exact_total against
    Python sums; and census's chunk merge against one _run_sums over the
    concatenated parts."""
    keys = KERNEL_KEYS[name]
    uniq, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    order, head, at = runs._runs(keys[None])
    assert keys[order[head]].tolist() == uniq.tolist()
    assert at.tolist() == inverse.ravel().tolist()
    assert np.diff(np.flatnonzero(head), append=len(keys)).tolist() == counts.tolist()
    values, value_counts = runs._distinct(keys)
    assert values.dtype == keys.dtype
    assert (values.tolist(), value_counts.tolist()) == (uniq.tolist(), counts.tolist())

    rng = np.random.default_rng(len(keys))
    for weights in (rng.integers(-(1 << 62), 1 << 62, len(keys)), rng.integers(-9, 9, len(keys)).astype(object) << 80):
        totals = {}
        for k, w in zip(keys.tolist(), weights.tolist()):
            totals[k] = totals.get(k, 0) + w
        sum_keys, sums = runs._run_sums(keys, weights)
        assert (sum_keys.tolist(), sums.tolist()) == (sorted(totals), [totals[k] for k in sorted(totals)])
        assert runs._exact_total(weights) == sum(weights.tolist())
        parts = [runs._run_sums(keys[cut], weights[cut]) for cut in np.array_split(np.arange(len(keys)), 4)]
        whole = runs._run_sums(*map(np.concatenate, zip(*parts)))
        for chunk in (census_mod._CHUNK_PAIRS, 5, 1):
            monkeypatch.setattr(census_mod, "_CHUNK_PAIRS", chunk)
            merged = census_mod._merged_sums(iter(parts))
            assert [a.tolist() for a in merged] == [a.tolist() for a in whole]


def test_run_kernel_on_key_words():
    """_runs over two words of packed keys groups like np.unique over rows."""
    rows = np.random.default_rng(5).integers(-3, 3, (400, 2))
    keys = _norm_keys(rows)
    words = np.stack([keys[0] >> np.uint64(2), keys[0] & np.uint64(3)])
    uniq, first, inverse = np.unique(words.T, axis=0, return_index=True, return_inverse=True)
    order, head, at = runs._runs(words)
    assert words.T[order[head]].tolist() == uniq.tolist()
    assert order[head].tolist() == first.tolist()  # a lexsort is stable
    assert at.tolist() == inverse.ravel().tolist()


FRESH_FORMS = {
    "one uint64 word": lambda k: np.array([k], dtype=np.uint64),
    "two words": lambda k: np.array([[x >> 32 for x in k], [x & (1 << 32) - 1 for x in k]], dtype=np.uint64),
    "python ints": lambda k: np.array([k], dtype=object),
}
# value maps: the two-word keys differ only in the high word up to the tag
FRESH_SCALES = {"one uint64 word": lambda x: x, "two words": lambda x: x << 40, "python ints": lambda x: (x << 70) + x}


@pytest.mark.parametrize("form", sorted(FRESH_FORMS))
@pytest.mark.parametrize("old, cand", [
    ([4, 7, 11], [7, 9, 11]),  # candidates equal to old keys
    ([4], [6, 6, 2, 6, 2]),  # candidates that repeat
    ([10, 20], [1, 15, 1]),  # a candidate at position 0
    ([], [3]),
    ([5], []),
])
def test_fresh_marks_each_new_candidate_once(form, old, cand):
    """_fresh on hand-made sorted keys, old keys tagged 0 and candidates 1 in
    the lowest bit, keeps each candidate outside the old keys once: the
    Python-set oracle."""
    scale = FRESH_SCALES[form]
    tagged = sorted([scale(x) << 1 for x in old] + [scale(x) << 1 | 1 for x in cand])
    keys = FRESH_FORMS[form](tagged)
    fresh = runs._fresh(keys)
    assert fresh.dtype == bool and fresh.shape == (len(tagged),)
    assert [tagged[i] >> 1 for i in np.flatnonzero(fresh)] == sorted(map(scale, set(cand) - set(old)))


def order_oracle_keys(rng, rows, n, dtype, span):
    """Seeded (rows, n) keys, span consecutive values per row: int64 keys
    centred on 0, uint64 keys ending at 2^64 - 1.  From n = 2 the first and
    last key of each row are its lowest and highest value."""
    keys = rng.integers(0, span, (rows, n), dtype=np.uint64)
    if n >= 2:
        keys[:, 0], keys[:, -1] = 0, span - 1
    if dtype is np.int64:
        return (keys - np.uint64(span // 2)).view(np.int64)
    return keys + np.uint64((1 << 64) - span)


@pytest.mark.parametrize("rows", [1, 2, 3])
@pytest.mark.parametrize("dtype", [np.int64, np.uint64])
def test_order_matches_lexsort_oracle(rows, dtype):
    """_order against np.lexsort, which is the stable np.argsort on one row:
    n = 0, 1 and either side of both floors, on spread keys and on keys
    with heavy ties.  Several rows give the oracle's order, tied keys in
    position order; one row gives a sorting permutation."""
    rng = np.random.default_rng(rows)
    floors = (runs._PACKED_FLOOR, runs._PACKED_FLOOR_PLAIN)
    for n in (0, 1, *(f + e for f in floors for e in (-1, 0))):
        for span in (3, 1 << (40 // rows)):
            keys = order_oracle_keys(rng, rows, n, dtype, span)
            want = np.lexsort(keys[::-1]).tolist()
            got = runs._order(keys)
            assert got.dtype == np.intp
            if rows > 1:
                assert got.tolist() == want
            else:
                assert sorted(got.tolist()) == list(range(n))
                assert (keys[0][got][1:] >= keys[0][got][:-1]).all()


@pytest.mark.parametrize("rows", [1, 2, 3])
@pytest.mark.parametrize("dtype", [np.int64, np.uint64])
def test_order_packs_exactly_up_to_64_bits(rows, dtype, monkeypatch):
    """At n = _PACKED_FLOOR (_PACKED_FLOOR_PLAIN for one row) one packed
    np.sort runs when the widths of the rows' spans max - min and of the
    positions come to exactly 64 bits, and numpy's lexsort or argsort when
    they come to 65; both give the lexsort order (the keys hold no ties), so
    no field of the packed word wraps."""
    n = runs._PACKED_FLOOR if rows > 1 else runs._PACKED_FLOOR_PLAIN
    rng = np.random.default_rng(rows)
    calls = []
    for name in ("argsort", "lexsort"):
        sort = getattr(np, name)
        monkeypatch.setattr(np, name, lambda *a, sort=sort, name=name, **k: calls.append(name) or sort(*a, **k))
    for over in (0, 1):
        total = 64 - (n - 1).bit_length() + over
        widths = [total - 20 * (rows - 1)] + [20] * (rows - 1)
        keys = np.stack([order_oracle_keys(rng, 1, n, dtype, 1 << w)[0] for w in widths])
        want = np.lexsort(keys[::-1]).tolist()
        calls.clear()
        assert runs._order(keys).tolist() == want
        assert bool(calls) == bool(over)


def test_order_on_object_keys():
    """Object keys past int64 take numpy's stable argsort or lexsort, in the
    oracle's order with ties in position order, on either side of the floor."""
    rng = np.random.default_rng(7)
    for n in (runs._PACKED_FLOOR - 1, runs._PACKED_FLOOR_PLAIN):
        keys = (rng.integers(-3, 3, (2, n)).astype(object) << 70) + rng.integers(0, 2, (2, n))
        for rows in (1, 2):
            want = [i for _, i in sorted(zip(keys[:rows].T.tolist(), range(n)))]
            assert runs._order(keys[:rows]).tolist() == want


@pytest.mark.parametrize("gens, T", [
    *((big_letters(N, True), T) for N, T in [(3000, 4), (3000, 10), (3000, 30), (10**4, 6), (10**4, 10)]),
    *((modular_generators(), T) for T in (1, 60, 400, 16383, 10**6, 10**10)),
])
def test_search_keys_are_uint64_exactly_where_entries_are_int64(gens, T):
    """The search keys are never int64: uint64 words where _entry_dtype
    gives int64 entries, one Python int per element where it gives object."""
    letters, region = letter_entries(gens), region_bound(gens, T)
    dtype = groups._key_layout(letters, region)[0]
    assert dtype is (np.uint64 if groups._entry_dtype(letters, region) is np.int64 else object)


def test_ball_past_int64_radius_is_sized_by_its_entries():
    """<S> at T = 10^19 > 2^63 is its four elements +-I, +-S: the finished
    ball's key offset comes from its entries, not from T."""
    ball = enumerate_ball(GeneratorSet("s", (S_MAT,)), 1e19)
    assert ball.rows.tolist() == [[-1, 0, 0, -1], [0, -1, 1, 0], [0, 1, -1, 0], [1, 0, 0, 1]]
    assert ball.sq_norms().tolist() == [2, 2, 2, 2]


def test_sq_norm_past_int64_is_bad_input():
    """On the tree of <[[2,1],[1,1]]> the ball at T = 4 * 10^9 has 45 elements,
    the largest sq_norm below 2^63; at T = 10^12 sq_norms pass 2^63, which
    is a ValueError, as OrbitBall.sq_norms gives, not an OverflowError."""
    gens = GeneratorSet("g", (UnimodularMatrix(2, 1, 1, 1),))
    ball = enumerate_ball(gens, 4e9)
    assert len(ball) == 45 and int(ball.sq_norms().max()) == 2459871053643326447
    with pytest.raises(ValueError, match="sq_norm does not fit in int64"):
        enumerate_ball(gens, 1e12)


@pytest.mark.parametrize("T", [math.inf, -math.inf, math.nan, 1e200, 10.0**155])
def test_non_finite_radius_is_bad_input(T):
    """A radius that is not finite, or whose square is not, is a ValueError,
    not an OverflowError from deep inside the enumeration."""
    for gens in (modular_generators(), schottky_generators()):
        with pytest.raises(ValueError, match="finite"):
            enumerate_ball(gens, T)


def test_smoothed_weight_shape():
    w = SmoothedWeight(10.0)
    assert w.weight_fraction(80) == 1  # below (0.9*10)^2 = 81
    assert w.weight_fraction(122) == 0  # above (1.1*10)^2 = 121
    mid = [w.weight_fraction(s) for s in range(81, 122)]
    assert all(type(v) is Fraction and 0 <= v <= 1 for v in mid)
    assert all(a >= b for a, b in zip(mid, mid[1:]))  # monotone nonincreasing
    assert w.weight_fraction(101) == Fraction(1, 2)  # u = 1/2 at the annulus midpoint


def smoothstep_oracle(T, s):
    """The cubic smoothstep by its definition, in Fractions: 1 up to
    (0.9T)^2, 0 from (1.1T)^2, u^2 (3 - 2u) between, u = ((1.1T)^2 - s) /
    ((1.1T)^2 - (0.9T)^2)."""
    lo, hi = (Fraction(9, 10) * Fraction(T)) ** 2, (Fraction(11, 10) * Fraction(T)) ** 2
    if s <= lo:
        return Fraction(1)
    if s >= hi:
        return Fraction(0)
    u = (hi - s) / (hi - lo)
    return u * u * (3 - 2 * u)


# 16 and 25.875 = 207/8 keep the integer form in int64 (C^3 = (40 * 207^2)^3
# is about 5.03e18 < 2^63); the float 16.02 has a 52-bit denominator
@pytest.mark.parametrize("T, dtype", [(16, np.int64), (25.875, np.int64), (16.02, object)])
def test_smoothed_weight_integer_form(T, dtype):
    """numerators agrees with the Fraction definition on every integer norm
    through and around the annulus, on both dtype paths, and the reduced
    denominator is the lcm of the weights' reduced denominators."""
    w = SmoothedWeight(T)
    t = Fraction(T)
    s = np.arange(math.floor(Fraction(81, 100) * t * t) - 3, math.ceil(Fraction(121, 100) * t * t) + 4)
    nums, cube = w.numerators(s)
    assert nums.dtype == dtype
    wide, same = w.numerators(s.astype(object))
    assert same == cube and wide.tolist() == nums.tolist()
    oracle = [smoothstep_oracle(T, v) for v in s.tolist()]
    assert [Fraction(n, cube) for n in nums.tolist()] == oracle
    assert [w.weight_fraction(v) for v in s.tolist()] == oracle
    assert oracle[0] == 1 and oracle[-1] == 0 and 0 < oracle[len(oracle) // 2] < 1
    g = math.gcd(cube, *nums.tolist())
    assert cube // g == math.lcm(*(fr.denominator for fr in oracle))
    # support_radius is the first float from 1.1T where the weight is 0
    r = w.support_radius()
    assert smoothstep_oracle(T, Fraction(r) ** 2) == 0
    assert r == 1.1 * T or smoothstep_oracle(T, Fraction(math.nextafter(r, 0)) ** 2) > 0


def test_support_radius_steps_past_a_float_below_eleven_tenths():
    """At this T the float 1.1T lies below the exact 11T/10, so the weight of
    its square is still positive and support_radius steps up one ulp."""
    T = 30590.952443570503
    assert Fraction(1.1 * T) < Fraction(11, 10) * Fraction(T)
    w = SmoothedWeight(T)
    r = w.support_radius()
    assert r == math.nextafter(1.1 * T, math.inf)
    assert w.weight_fraction(Fraction(r) ** 2) == 0
    assert w.weight_fraction(Fraction(math.nextafter(r, 0)) ** 2) > 0


def test_sub_ball_is_the_smaller_ball():
    """sub_ball(t) holds the rows, sq_norms and (on the tree) word lengths of
    the ball enumerated at t; count_below reads its length.  The square
    roots put elements on the boundary: their sq_norm equals float(t)^2."""
    for gens, T, ts in ((modular_generators(), 20.5, (1, 1.5, math.sqrt(11), 7, math.sqrt(146), 13.2, 20.5)),
                        (schottky_generators(), 3000, (1, math.sqrt(47), 47.5, 300, math.sqrt(605495), 2999.9))):
        big = enumerate_ball(gens, T)
        for t in ts:
            small, sub = enumerate_ball(gens, t), big.sub_ball(t)
            assert sub.T == small.T and sub.label == small.label
            assert np.array_equal(sub.rows, small.rows) and np.array_equal(sub.sq_norms(), small.sq_norms())
            assert big.count_below(t) == len(small)
            if gens.label == "schottky":
                assert np.array_equal(sub.word_lengths, small.word_lengths)
        with pytest.raises(ValueError):
            big.sub_ball(T + 1)


# the smallest doubles above sqrt(27), sqrt(34) and sqrt(39): their float
# squares round down onto the integer, their exact squares lie above it
ABOVE_SQUARES = [(5.196152422706632, 27, 180), (5.830951894845301, 34, 196), (6.244997998398398, 39, 260)]


def oracle_prefix(ball, T):
    """The rows of ball with sq_norm < T^2, the square taken exactly."""
    t2 = Fraction(T) ** 2
    return ball.rows[[s < t2 for s in ball.sq_norms().tolist()]]


@pytest.mark.parametrize("T, s, size", ABOVE_SQUARES)
def test_float_radius_just_above_an_integer_square(T, s, size):
    """Elements with sq_norm s are inside the ball although float(T)^2 == s:
    enumerate_ball, sub_ball and count_below compare with ceil(T^2) exactly,
    as the Fraction oracle on a larger ball does."""
    assert T * T == s and Fraction(T) ** 2 > s
    big = enumerate_ball(modular_generators(), 7)
    want = oracle_prefix(big, T)
    assert len(want) == size and s in big.sq_norms()[:size].tolist()
    for ball in (enumerate_ball(modular_generators(), T), big.sub_ball(T)):
        assert np.array_equal(ball.rows, want)
    assert big.count_below(T) == size


def test_exact_bound_at_the_radius_extremes():
    """No element lies below radius 0.5, and the hand-built ball at T = 2^32,
    whose bound ceil(T^2) = 2^64 is past int64, keeps every row."""
    assert enumerate_ball(modular_generators(), 7).count_below(0.5) == 0
    ball = hand_built_ball()
    assert len(ball.sub_ball(2**32)) == len(ball) == ball.count_below(2**32)


def test_negative_radius_is_bad_input():
    """A negative radius is refused by sub_ball, count_below and the
    coset counts of a supplied ball, as by enumerate_ball; radius 0 holds
    nothing."""
    gens = modular_generators()
    ball = enumerate_ball(gens, 7)
    for call in (lambda: ball.count_below(-7), lambda: ball.sub_ball(-3),
                 lambda: coset_counts(gens, -5, 5, ball=ball)):
        with pytest.raises(ValueError):
            call()
    assert ball.count_below(0) == 0


def test_lazy_sq_norms_are_exact_or_refused():
    """The sq_norms of a ball built without them are exact: the element
    (3037000500, 1; 3037000499, 1), whose sq_norm is past 2^63, is refused
    rather than wrapped to a negative int64 that count_below would count;
    an entry of 2^31 whose sq_norm fits is squared exactly."""
    def ball_of(*rows):
        rows = np.array(rows, dtype=np.int64)
        return groups.OrbitBall(T=2.0**40, label="hand", rows=rows, word_lengths=np.zeros(len(rows), dtype=np.int64))

    assert 3037000500 * 1 - 1 * 3037000499 == 1
    for call in (lambda b: b.sq_norms(), lambda b: b.count_below(2.0)):
        with pytest.raises(ValueError):
            call(ball_of((1, 0, 0, 1), (3037000500, 1, 3037000499, 1)))
    sq = ball_of((1, 0, 0, 1), (1, 2**31, 0, 1)).sq_norms()
    assert sq.dtype == np.int64 and sq.tolist() == [2, 2**62 + 2]
    hand = hand_built_ball()
    assert hand.sq_norms().tolist() == [sum(e * e for e in row) for row in hand.rows.tolist()]


def test_schottky_ball_past_2_53_is_complete():
    """At T = 134220186.4253455 the 8 elements with sq_norm s =
    18,015,058,444,054,502 lie below T^2 by about 1.18, which a float T^2
    cannot tell; the ball is the exact prefix of a larger one."""
    T, s = 134220186.4253455, 18_015_058_444_054_502
    assert 0 < Fraction(T) ** 2 - s < 2
    big = enumerate_ball(schottky_generators(), 1.35e8)
    ball = enumerate_ball(schottky_generators(), T)
    assert len(ball) == 425_633 and int((ball.sq_norms() == s).sum()) == 8
    assert np.array_equal(ball.rows, oracle_prefix(big, T))
    assert big.count_below(T) == 425_633 and np.array_equal(big.sub_ball(T).rows, ball.rows)


def test_nan_radius_is_bad_input(capfd):
    """A NaN radius is refused with a ValueError, before any search or fit
    runs, by every reader of a ball's prefixes; NaN compares false with
    everything, so a check written as T > ball.T would let it through."""
    mg = modular_generators()
    ball = enumerate_ball(mg, 20)
    for call in (lambda: ball.sub_ball(math.nan), lambda: ball.count_below(math.nan),
                 lambda: coset_counts(mg, math.nan, 5, ball=ball),
                 lambda: estimate_delta(mg, [4, math.nan, 9, 16, 25])):
        with pytest.raises(ValueError):
            call()
    assert capfd.readouterr().err == ""


def test_estimate_delta_modular_lattice():
    est = estimate_delta(modular_generators(), [20, 35, 60, 105, 180, 320])
    assert 0.9 <= est.delta_hat <= 1.05
    assert est.stderr < 0.05
    assert [c for _, c in est.samples] == sorted(c for _, c in est.samples)


def test_estimate_delta_schottky_thin_and_pinned():
    est = estimate_delta(schottky_generators(), [62.5, 125, 250, 500, 1000, 2000, 4000])
    assert est.delta_hat < 1
    assert abs(est.delta_hat - 0.366) < 0.03  # pinned regression value
    assert est.samples[-1][1] == 297  # ball count at T=4000, pinned


def test_estimate_delta_grid_validation():
    mg = modular_generators()
    with pytest.raises(ValueError):
        estimate_delta(mg, [10, 20, 30])  # too few
    with pytest.raises(ValueError):
        estimate_delta(mg, [10, 10, 20, 30])  # not strictly increasing
    with pytest.raises(ValueError):
        GrowthEstimate(1.5, 0.0, ((1.0, 1), (2.0, 2), (3.0, 3), (4.0, 4)))


def test_coset_counts_partition_and_equidistribution():
    mg = modular_generators()
    ball = enumerate_ball(mg, 200)
    counts = coset_counts(mg, 200, 3, ball=ball)
    assert len(counts) == 4
    assert sum(counts.values()) == len(ball)
    for v in counts.values():
        assert abs(v / len(ball) - 0.25) < 0.10
    assert coset_counts(mg, 50, 1) == {(0, 1): enumerate_ball(mg, 50).count_below(50)}


def test_coset_counts_labels_match_label_oracle():
    """coset_counts' array labels agree with the scalar label_oracle on every
    row of the ball, and the counts are their tally in table order."""
    mg = modular_generators()
    ball = enumerate_ball(mg, 200)
    c, d = ball.rows[:, 2], ball.rows[:, 3]
    for q in (3, 105):
        table = modular.coset_table(q)
        residues = list(zip((c % q).tolist(), (d % q).tolist()))
        by_residue = {r: label_oracle(q, *r) for r in set(residues)}
        labels = [by_residue[r] for r in residues]
        lc, ld = modular.coset_labels(q, c, d)
        assert list(zip(lc.tolist(), ld.tolist())) == labels
        tally = Counter(labels)
        counts = coset_counts(mg, 200, q, ball=ball)
        assert list(counts.items()) == [(rep, tally[rep]) for rep in table.reps]


@pytest.mark.parametrize("gens, T", [(modular_generators(), 40.5), (schottky_generators(), 1e6)])
def test_coset_counts_match_per_row_labels(gens, T):
    """coset_counts tallies the label of every ball row, found one row at a
    time, in table order; also from a ball built with a larger T.  Moduli
    at which the projection is not onto raise."""
    big = enumerate_ball(gens, 1.5 * T)
    for ball in (enumerate_ball(gens, T), big):
        inside = [tuple(r) for r, s in zip(ball.rows[:, 2:].tolist(), ball.sq_norms().tolist()) if s < T * T]
        for q in (1, 3, 5, 55, 105, 1155):
            if any(not modular.strong_approx_check(gens, p) for p in modular.prime_factors(q)):
                with pytest.raises(ValueError):
                    coset_counts(gens, T, q, ball=ball)
                continue
            table = modular.coset_table(q)
            label = {r: label_oracle(q, *r) for r in {(c % q, d % q) for c, d in inside}}
            tally = Counter(label[c % q, d % q] for c, d in inside)
            assert len(tally) > 1 or q == 1
            assert coset_counts(gens, T, q, ball=ball) == {rep: tally[rep] for rep in table.reps}


def test_coset_counts_keys_and_values_are_python_ints():
    """The counts are hashed as repr(sorted(items)), where an np.int64 would
    print differently though dict == accepts it: every entry of every key
    and every value is a Python int."""
    mg = modular_generators()
    ball = enumerate_ball(mg, 60)
    for q in (5, 7, 105):
        counts = coset_counts(mg, 60, q, ball=ball)
        assert all(type(e) is int for rep in counts for e in rep)
        assert all(type(v) is int for v in counts.values())
        assert sum(counts.values()) == len(ball) and len(counts) == modular.eta(q)


def test_coset_counts_rejects_bad_moduli():
    mg = modular_generators()
    with pytest.raises(ValueError):
        coset_counts(mg, 20, 6)  # shares factor 2
    gens3 = GeneratorSet("cong3", (UnimodularMatrix(1, 3, 0, 1), UnimodularMatrix(1, 0, 3, 1)))
    with pytest.raises(ValueError):
        coset_counts(gens3, 20, 3)  # not surjective mod 3


def test_generator_text_roundtrip(tmp_path):
    p = tmp_path / "gens.txt"
    p.write_text("# label: custom\n1 1 0 1\n1 0 1 1\n")
    from triplesieve.groups import load_generator_file

    loaded = load_generator_file(p)
    assert loaded.label == "custom"
    assert loaded.gens == (GEN_R, GEN_L)
    with pytest.raises(ValueError):
        parse_generator_text("1 2 3\n")
    with pytest.raises(ValueError):
        parse_generator_text("# empty\n")
