"""Norm balls in finitely generated subgroups of SL(2,Z).

Balls are B_T = {g : sq_norm(g) < T^2}, enumerated breadth-first over words in
the generators and their inverses.  Search expands a node g only while
sq_norm(g) stays below an expansion bound:

  * generic generator sets use T^2 * max_h sq_norm(h): by submultiplicativity
    sq_norm(g h) >= sq_norm(g) / sq_norm(h^-1), every child of a node beyond
    that bound lies outside the ball;
  * letters that are exactly R^+-1 and L^+-1 only need max(T^2, 4): column
    reduction (Lagrange-Gauss) gives every matrix outside the norm-2 core a
    one-step norm-decreasing right multiplication by one of them, so
    reversing the reduction chain reaches each ball element through
    intermediates no larger than max(its own norm, 3); a larger letter set
    keeps the generic bound, whose paths give it other word lengths;
  * generator sets whose letters carry a ping-pong certificate
    (_ping_pong_certificate) skip the search altogether and walk the tree of
    reduced words (no letter followed by its inverse), pruned at T^2 itself,
    with no deduplication.  The certificate is a closed slope interval K_h
    per letter h, checked exactly in Fractions: the K_h are disjoint, hold
    h's rows, and K_g.h lies in K_h for g != h^-1.  Then the rows of a
    reduced word ending in h have slopes in K_h, so no nontrivial reduced
    word is +-I and distinct reduced words are distinct elements (Tits'
    ping-pong).  The certificate also checks |r.h|^2 >= |r|^2 for rows r with
    slope in K_g, g != h^-1, so sq_norm never decreases along a reduced word:
    every prefix of a ball element lies in the ball, which makes pruning at
    T^2 complete, and the reduced length, the unique geodesic, is the
    breadth-first layer.  Parabolic letters, -I and S are never certified.
    The tree drops a child with an entry |e| >= e_max = isqrt(L - 1) + 1,
    L = ceil(T^2), before squaring it, since its sq_norm is at least L; so
    it runs on int64 while L < 2^61 and 2 e_max max|letter entry| < 2^63
    (_tree_dtype), about T < 1.5e9 for the Schottky pair, and on Python
    ints past that.

Membership, search regions and sub-balls compare integer sq_norms with exact
integer bounds, since an integer is below x iff below ceil(x): the ball is
sq_norm < ceil(T^2), from Fraction(T) (_radius_bound), and the regions
above are ceil(T^2 max_h sq_norm(h)) and max(ceil(T^2), 4).

Keys.  One rule lays out every packed key (_word_places): nonnegative
fields of given widths go whole, in order, into as few words as hold them,
the last field of each word lowest.  The words of n keys are the rows of
one array, sorted in place when one, else by the sort kernel runs._order
taken on every word (_sort_keys); one shift and mask reads a field back
(_field).  Keys are uint64 words, or in the search one Python int per
element where _entry_dtype gives Python-int entries.  An entry e is packed
as e + off, off the largest |entry| + 1 of the rows packed (_offset), in
bit_length(2 off) bits; only the search, which fixes its layout before it
sees a node, takes off from its region.  The sort and run kernels live in
the leaf module runs, which this module, modular, census and charsums read.

Both searches carry a layer as (4, n) entry columns.  Deduplication is
layer-local.  The letters include their inverses, so the Cayley graph
induced on the expansion region is undirected and a candidate made from
layer k lies in layer k - 1, in layer k, or is new.  Each layer therefore
sorts the keys of layers k - 1 and k with the candidate keys.  With E the
integer region bound, off = isqrt(E) + 1 and bits = bit_length(2 off), a
key holds a + off, b + off, c + off, d + off (bits bits each; a region
node has |e| < off) and a tag in the lowest bit of the last word: 0 on the
old keys, 1 on the candidates, so an old key sorts just before a candidate
equal to it up to the tag.  A layer is its sorted keys, decoded by one
_field of all four.  A candidate is new iff it heads its run once the tag
is shifted out (_fresh).  Key words are linear in the entries and g.h =
(ap + br, aq + bs, cp + dr, cq + ds) for h = (p, q, r, s), so each child
key word is one matmul of per-letter weights by the parent columns, plus a
constant added only to the children that pass the norm filter; each child
sq_norm is one matmul of the coefficients (p^2 + q^2, 2(pr + qs), r^2 +
s^2) by the parent's Gram entries (a^2 + c^2, ab + cd, b^2 + d^2),
compared with E.  No (4, m n) child array is built.  _key_layout picks:

  * uint64 words modulo 2^64 where _entry_dtype gives int64; one word
    while 4 bits + 1 <= 64, which on R and L holds up to the region
    16383^2 - 1 (off = 16383, 15-bit fields), two words from 16383^2.
    Unsigned overflow is defined, and reduction mod 2^64 is a ring
    map: each result is its true value's residue.  A child's true sq_norm
    lies in [0, 2^63) by _entry_dtype's bound, so the filter is exact; a
    child that passes it is a region node, whose key words lie below 2^64
    and so are their residues, and whose entries decode as the int64 view
    of theirs.  Only keys of rejected children wrap, and they are dropped
    unused: no sq_norm, kept key or entry wraps.
  * Python ints (object) where _entry_dtype gives them: one key per
    element, with no word limit.

A finished ball is in canonical order, sorted by (sq_norm, entries): _pack
lays out sq_norm (bit_length of the largest), the entries plus their
_offset and the word length (bit_length of the last layer index), and the
words holding the distinct (sq_norm, entries) sort them; a sq_norm past
int64 is a ValueError.  One word holds the modular ball while its largest
entry is below 255 (16 + 4 * 9 + 9 = 61 bits at T = 254.9, 65 at 255.5)
and the Schottky tree to at least T = 724 (largest entry 355, sq_norm
229,763: 18 + 4 * 10 + 3 = 61 bits; 67 at T = 800).  Distinct bottom rows
sort by the same keys (_norm_keys) in OrbitBall.distinct_rows, the one
kernel census, build_sequence and orbit read.  Since the canonical order
sorts by sq_norm first, the ball of any radius 0 <= t <= T is a prefix of
the ball at T (OrbitBall.sub_ball), which count_below, coset_counts and the
sieve sequence read.

Every enumeration runs under one element budget, the constant _ELEMENT_CAP:
the tree counts ball elements, the search every node of its region, and a
total past the cap raises BallBudgetError rather than returning a
truncated ball.  The search checks its total after each layer, since its
dedup needs the whole layer; the tree grows each layer from blocks of at
most _TREE_BLOCK parents and checks after each block, so a capped tree
holds at most the cap plus one block's children.  On top of the
balls: the smoothing weight (cubic smoothstep on the annulus 0.9T..1.1T, in
one integer form), growth-exponent fits (count ~ C T^(2 delta)), and
per-coset counts mod q.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import modular
from .gl2 import GEN_L, GEN_R, GeneratorSet, UnimodularMatrix, sq_norm
from .runs import _distinct, _fresh, _order, _runs


# The element budget of every enumeration: _bfs_layers and _tree_layers count against it.
_ELEMENT_CAP = 10_000_000
# The most parents whose children _tree_layers builds before it checks the budget.
_TREE_BLOCK = 1 << 16


class BallBudgetError(RuntimeError):
    """Enumeration exceeded its element budget before completing the ball."""

    def __init__(self, T: float, discovered: int, cap: int):
        super().__init__(
            f"ball at T={T} exceeded the element budget ({discovered} discovered, cap {cap})"
        )
        self.T = T
        self.discovered = discovered
        self.cap = cap


def modular_generators() -> GeneratorSet:
    """The elementary pair generating all of SL(2,Z) (a lattice; has parabolics)."""
    return GeneratorSet("modular", (GEN_R, GEN_L))


def schottky_generators() -> GeneratorSet:
    """A purely hyperbolic pair: squares of the two trace-3 products of R and L.

    Both generators have trace 7 and sq_norm 47; the pair carries a ping-pong
    certificate, so it is free and has no parabolic element (checked in tests).
    """
    a = (GEN_R @ GEN_L) @ (GEN_R @ GEN_L)
    b = (GEN_L @ GEN_R) @ (GEN_L @ GEN_R)
    return GeneratorSet("schottky", (a, b))


def parse_generator_text(text: str) -> GeneratorSet:
    """Plain text: optional '# <label>' header, then one 'a b c d' per line."""
    label = "unnamed"
    gens: List[UnimodularMatrix] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if not gens:
                head = line.lstrip("#").strip()
                if head.lower().startswith("label:"):
                    head = head[len("label:"):].strip()
                if head:
                    label = head
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ValueError(f"expected four integers per line, got {line!r}")
        gens.append(UnimodularMatrix(*(int(p) for p in parts)))
    if not gens:
        raise ValueError("no generators in input")
    return GeneratorSet(label, tuple(gens))


def load_generator_file(path) -> GeneratorSet:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_generator_text(fh.read())


@dataclass
class OrbitBall:
    """All group elements with sq_norm < T^2, deduplicated.

    rows holds the four entries per element in canonical order (sorted by
    sq_norm, then entries); word_lengths[i] is the word length at first
    breadth-first discovery, i.e. the geodesic length among paths staying
    inside the expansion region (checked against unpruned search on small
    balls in the tests).  On the reduced-word tree of a certified free set
    it is the reduced-word length, which is the geodesic and equals that
    breadth-first layer.
    """

    T: float
    label: str
    rows: np.ndarray
    word_lengths: np.ndarray
    _sq: Optional[np.ndarray] = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.rows)

    def sq_norms(self) -> np.ndarray:
        """Exact int64 sq_norms; a ValueError when one does not fit int64."""
        if self._sq is None:
            r = self.rows
            # below 2^31 four squares sum below 2^64, so a wrapped int64 sum is negative
            big = len(r) and max(-int(r.min()), int(r.max())) >= 1 << 31
            self._sq = _int64_sq_norms(((r.astype(object) if big else r) ** 2).sum(axis=1))
        return self._sq

    def sub_ball(self, T: float) -> "OrbitBall":
        """The ball of radius T, 0 <= T <= the ball's T: the prefix of rows,
        _sq and word_lengths with sq_norm <= ceil(T^2) - 1 (clipped to
        int64), found by one searchsorted on the sq_norm-first canonical order.
        The arrays are views.  On the breadth-first path the word lengths are
        the ones found in this larger search, whose region may hold shorter
        paths than a search at T.  A NaN T is refused like one outside."""
        if not 0 <= T <= self.T:
            raise ValueError(f"need 0 <= T <= {self.T}, the radius the ball is complete to; asked for {T}")
        k = np.searchsorted(self.sq_norms(), min(math.ceil(Fraction(T) ** 2) - 1, (1 << 63) - 1), side="right")
        return OrbitBall(float(T), self.label, self.rows[:k], self.word_lengths[:k], self.sq_norms()[:k])

    def count_below(self, T: float) -> int:
        """Number of elements with sq_norm < T^2, 0 <= T <= the ball's T."""
        return len(self.sub_ball(T))

    def distinct_rows(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(c, d, inverse): the distinct bottom rows sorted by (c^2+d^2, c, d),
        the heads of equal-key runs after one sort (_order) of their packed
        keys, and for each element the index of its bottom row among them.
        Equal keys are equal rows, so the order within a run is immaterial."""
        c, d = self.rows[:, 2], self.rows[:, 3]
        if len(c) and max(-int(c.min()), int(c.max()), -int(d.min()), int(d.max())) >= 1 << 31:
            raise ValueError("bottom rows need |c|, |d| < 2^31 so that c^2 + d^2 fits in int64")
        order, head, inverse = _runs(_norm_keys(self.rows[:, 2:4]))
        return c[order[head]], d[order[head]], inverse


def _int64_sq_norms(sq: np.ndarray) -> np.ndarray:
    """The sq_norms sq as int64; a ValueError when one does not fit int64."""
    if len(sq) and not 0 <= int(sq.min()) <= int(sq.max()) < 1 << 63:
        raise ValueError("an element's sq_norm does not fit in int64")
    return sq.astype(np.int64, copy=False)


def _offset(entries: np.ndarray) -> int:
    """The largest |entry| + 1: the shift of every entry field packed outside the search."""
    return max(-int(entries.min(initial=0)), int(entries.max(initial=0))) + 1


def _word_places(widths: Sequence[int], size: int = 64) -> List[Tuple[int, int]]:
    """(word, shift) of each field, for fields of the given widths packed
    whole, in order, into as few size-bit words as hold them, the last field
    of each word lowest: the layout of every packed sort key."""
    words: List[List[int]] = []
    for width in widths:
        if not words or sum(words[-1]) + width > size:
            words.append([])
        words[-1].append(width)
    return [(j, sum(word[i + 1:])) for j, word in enumerate(words) for i in range(len(word))]


def _pack(fields: Sequence[Tuple[np.ndarray, int]]) -> Tuple[np.ndarray, List[Tuple[int, int]]]:
    """(uint64 words, places) of the nonnegative int64 (column, bits) fields, laid out by _word_places."""
    places = _word_places([bits for _, bits in fields])
    words = np.zeros((places[-1][0] + 1, len(fields[0][0])), dtype=np.uint64)
    for (col, _), (word, shift) in zip(fields, places):
        words[word] |= np.asarray(col, dtype=np.int64).view(np.uint64) << np.uint64(shift)
    return words, places


def _field(words: np.ndarray, place: Tuple, bits: int) -> np.ndarray:
    """The bits-wide field at place = (word, shift), or at index and shift arrays, of key words."""
    out = words[place[0]] >> place[1]
    out &= (1 << bits) - 1
    return out


def _sort_keys(keys: np.ndarray, by: Optional[int] = None) -> np.ndarray:
    """Key words (rows) sorted together by the first `by` (default all): one in place, more by _order."""
    if len(keys) == 1:
        keys[0].sort()
        return keys
    return keys.take(_order(keys[:by]), axis=1)


def _norm_keys(rows: np.ndarray) -> np.ndarray:
    """The _pack words of (sum of squares, entries + _offset) of the int64 rows (n, k), k >= 1,
    whose sums of squares fit int64: the order of a ball's rows, bottom rows and omega classes."""
    sq = (rows * rows).sum(axis=1)
    off = _offset(rows)
    bits = (2 * off).bit_length()
    return _pack([(sq, int(sq.max(initial=0)).bit_length()), *((col + off, bits) for col in rows.T)])[0]


# Ping-pong certificate search: hull rounds before widening, and the widening
# as a fraction of each interval's length.
_CERT_ROUNDS = 4
_CERT_WIDEN = Fraction(1, 64)

Entries = Tuple[int, int, int, int]
Interval = Tuple[Fraction, Fraction]


def _inverse_index(letters: Tuple[Entries, ...]) -> List[int]:
    """Position of each letter's inverse (letters() adjoins every inverse)."""
    return [letters.index((d, -b, -c, a)) for a, b, c, d in letters]


def _row_slopes(h: Entries) -> Optional[Tuple[Fraction, Fraction]]:
    """Slopes y/x of the rows (x, y) of h, or None when a row has x = 0."""
    a, b, c, d = h
    if a == 0 or c == 0:
        return None
    return Fraction(b, a), Fraction(d, c)


def _slope_image(h: Entries, K: Interval) -> Optional[Interval]:
    """The interval K.h of slopes s of (1, s).h for s in K, or None when the
    pole -a/c of that Moebius map lies in K (the image then contains slope
    infinity); off the pole the map is monotone, so the image is the hull of
    the endpoint images."""
    a, b, c, d = h
    lo, hi = K
    if c and lo <= Fraction(-a, c) <= hi:
        return None
    u, v = ((b + s * d) / (a + s * c) for s in K)
    return min(u, v), max(u, v)


def _norm_gain_nonnegative(h: Entries, K: Interval) -> bool:
    """Q_h(1, s) = |(1, s).h|^2 - (1 + s^2) >= 0 for every s in K, exactly:
    at both endpoints and, for a convex Q, at its vertex when inside K."""
    a, b, c, d = h
    A, B, C = c * c + d * d - 1, 2 * (a * c + b * d), a * a + b * b - 1
    lo, hi = K
    points = [lo, hi]
    if A > 0 and lo < Fraction(-B, 2 * A) < hi:
        points.append(Fraction(-B, 2 * A))
    return all(A * s * s + B * s + C >= 0 for s in points)


def _certificate_holds(letters: Tuple[Entries, ...], K: Sequence[Interval]) -> bool:
    """Exact check of a ping-pong certificate with monotone norms: closed
    slope intervals K[j], one per letter, that are pairwise disjoint, hold
    their letter's rows, and for every letter g other than h^-1 satisfy:
    h's pole lies outside K[g], K[g].h lies in K[h], and Q_h >= 0 on K[g].

    Then by induction on length the rows of a reduced word ending in h have
    nonzero first entry and slope in K[h], so no nontrivial reduced word is
    +-I (whose row (0, +-1) has slope infinity) and distinct reduced words
    are distinct elements; and sq_norm(w.h) >= sq_norm(w) for every reduced
    word w.h, since each row r = x(1, s) of w gains x^2 Q_h(1, s)."""
    inv = _inverse_index(letters)
    bounds = sorted(K)
    if any(lo > hi for lo, hi in K) or any(p[1] >= q[0] for p, q in zip(bounds, bounds[1:])):
        return False
    for j, h in enumerate(letters):
        slopes = _row_slopes(h)
        if slopes is None or not all(K[j][0] <= s <= K[j][1] for s in slopes):
            return False
        for i, Kg in enumerate(K):
            if i == inv[j]:
                continue
            image = _slope_image(h, Kg)
            if image is None or image[0] < K[j][0] or image[1] > K[j][1]:
                return False
            if not _norm_gain_nonnegative(h, Kg):
                return False
    return True


@lru_cache(maxsize=None)
def _ping_pong_certificate(letters: Tuple[Entries, ...]) -> Optional[Tuple[Interval, ...]]:
    """Slope intervals passing _certificate_holds, or None (cached either way).

    Each K[h] starts as the hull of h's row slopes and takes _CERT_ROUNDS
    rounds of K[h] <- hull(K[h], K[g].h for g != h^-1), then is widened by
    _CERT_WIDEN of its length on each side so that the contracting images
    land strictly inside.  An interval that would hold slope infinity ends
    the search; letters with a = 0 or c = 0, such as R, L, S and -I, fail at
    once.  No parabolic letter passes the check: h and h^-1 would map their
    disjoint intervals into themselves, so both would hold h's only fixed
    slope."""
    inv = _inverse_index(letters)
    K: List[Interval] = []
    for h in letters:
        slopes = _row_slopes(h)
        if slopes is None:
            return None
        K.append((min(slopes), max(slopes)))
    for _ in range(_CERT_ROUNDS):
        grown = []
        for j, h in enumerate(letters):
            lo, hi = K[j]
            for i, Kg in enumerate(K):
                if i == inv[j]:
                    continue
                image = _slope_image(h, Kg)
                if image is None:
                    return None
                lo, hi = min(lo, image[0]), max(hi, image[1])
            grown.append((lo, hi))
        K = grown
    K = [(lo - (hi - lo) * _CERT_WIDEN, hi + (hi - lo) * _CERT_WIDEN) for lo, hi in K]
    return tuple(K) if _certificate_holds(letters, K) else None


def _entry_dtype(letters: Sequence[Entries], region: int):
    """int64 when products of region nodes (entries e with e^2 < region)
    by letters, and their sq_norms, provably fit; else Python ints (object).

    A candidate entry a*p + b*r is at most 2 * max_abs * letter_max in size
    and its sq_norm sums four squares of those."""
    max_abs = math.isqrt(region) + 1
    letter_max = max(abs(e) for h in letters for e in h)
    bound = 2 * max_abs * letter_max
    return np.int64 if 4 * bound * bound < 1 << 63 else object


def _children(layer: np.ndarray, letters: np.ndarray) -> np.ndarray:
    """Entries of the products g.h of each column g of layer (4, n) with
    each letter h of letters (m, 4), as (4, m * n) columns, letter-major."""
    n = layer.shape[1]
    # einsum writing into kids needs no second buffer of kids' size
    kids = np.empty((2, 2, len(letters), n), dtype=layer.dtype)
    np.einsum("rkn,mkc->rcmn", layer.reshape(2, 2, n), letters.reshape(-1, 2, 2), out=kids)
    return kids.reshape(4, -1)


def _key_layout(letters: Sequence[Entries], region: int) -> Tuple[type, List[Tuple[int, int]]]:
    """(dtype, places) of the search keys over the region sq_norm < region:
    uint64 or Python ints (object), and the (word, shift) of a + off, b +
    off, c + off, d + off and the tag, as the module docstring sets out."""
    bits = (2 * (math.isqrt(region) + 1)).bit_length()
    widths = [bits] * 4 + [1]
    if _entry_dtype(letters, region) is object:
        return object, _word_places(widths, sum(widths))
    return np.uint64, _word_places(widths)


def _bfs_layers(letters: Tuple[Entries, ...], T: float, region: int) -> List[np.ndarray]:
    """Layers, as (4, n) entry columns (int64, or Python ints where
    _entry_dtype says so), of the breadth-first search over sq_norm < region,
    each carried as its sorted keys (_key_layout, module docstring).  Every
    node of the region found counts, so a total past _ELEMENT_CAP after a
    layer raises BallBudgetError."""
    dtype, places = _key_layout(letters, region)
    off = math.isqrt(region) + 1
    bits = (2 * off).bit_length()
    n_words = places[-1][0] + 1
    # g.h = (ap + br, aq + bs, cp + dr, cq + ds): per key word, the weight of
    # each parent entry, the constant of a candidate (the tag set in the last
    # word) and the identity's key; and the coefficients of a^2+c^2, ab+cd,
    # b^2+d^2 in the child's sq_norm.  Letters and coefficients fit int64
    # unless dtype is object; int64 -> uint64 takes residues mod 2^64.
    signed = object if dtype is object else np.int64
    mats = np.array(letters, dtype=signed).astype(dtype)
    w = [[1 << shift if word == j else 0 for word, shift in places[:4]] for j in range(n_words)]
    weights = np.stack([mats @ np.array([[w0, 0, w2, 0], [w1, 0, w3, 0], [0, w0, 0, w2], [0, w1, 0, w3]], dtype)
                        for w0, w1, w2, w3 in w])
    bases = np.array([[off * sum(wj) + (j == n_words - 1)] for j, wj in enumerate(w)], dtype)
    cur = np.array([[off * sum(wj) + wj[0] + wj[3]] for wj in w], dtype)
    entries = np.array([p[0] for p in places[:4]]), np.array([p[1] for p in places[:4]], dtype)[:, None]
    gram = [(p * p + q * q, 2 * (p * r + q * s), r * r + s * s) for p, q, r, s in letters]
    gram = np.array(gram, signed).astype(dtype)
    layer = np.array([[1], [0], [0], [1]], dtype=dtype)
    prev = cur[:, :0]
    collected = [layer]
    total = 1
    while cur.shape[1]:
        a, b, c, d = layer
        sq = gram @ np.stack([a * a + c * c, a * b + c * d, b * b + d * d])
        inside = (sq < region).ravel()
        kids = (weights @ layer).reshape(n_words, -1).compress(inside, axis=1) + bases
        keys = _sort_keys(np.concatenate([prev, cur, kids], axis=1))
        prev, cur = cur, keys.compress(_fresh(keys), axis=1)
        cur[-1] -= 1
        total += cur.shape[1]
        if total > _ELEMENT_CAP:
            raise BallBudgetError(T, total, _ELEMENT_CAP)
        layer = _field(cur, entries, bits) - off
        collected.append(layer)
    # uint64 entries are residues mod 2^64 of int64 ones: their int64 views
    return [c.view(np.int64) for c in collected] if dtype is np.uint64 else collected


def _tree_dtype(letters: Sequence[Entries], bound: int):
    """int64 for the reduced-word tree pruned at sq_norm < bound when it
    provably cannot wrap, else Python ints (object).

    Tree nodes are ball elements, whose entries are below e_max =
    isqrt(bound - 1) + 1, so a child entry is below 2 e_max max|letter
    entry|; the children kept have entries of at most e_max - 1 =
    isqrt(bound - 1), so their sq_norms are below 4 bound, which fits int64
    while bound < 2^61."""
    e_max = math.isqrt(bound - 1) + 1
    letter_max = max(abs(e) for h in letters for e in h)
    return np.int64 if bound < 1 << 61 and 2 * e_max * letter_max < 1 << 63 else object


def _tree_layers(letters: Tuple[Entries, ...], T: float, bound: int) -> List[np.ndarray]:
    """Layers, as (4, n) entry columns, of the reduced-word tree pruned at
    sq_norm < bound.

    Sound only for letters with a _ping_pong_certificate: reduced words are
    then distinct elements (no dedup) and norms never decrease along them,
    so every prefix of a ball element is in the ball.  Only ball elements
    are counted.  Each layer grows from blocks of at most _TREE_BLOCK
    parents, in order, and a total past _ELEMENT_CAP after a block raises
    BallBudgetError; a layer of one block keeps the letter-major order of
    _children.

    A child with an entry |e| >= e_max = isqrt(bound - 1) + 1 has sq_norm
    >= e_max^2 >= bound, so it is dropped before any square is taken; the
    survivors' sq_norms are below 4 bound (_tree_dtype)."""
    dtype = _tree_dtype(letters, bound)
    e_max = math.isqrt(bound - 1) + 1
    mats = np.array(letters, dtype=dtype)
    m = len(letters)
    # follows[i, j]: letter i may come after last letter j; column m is the root
    follows = np.ones((m, m + 1), dtype=bool)
    follows[_inverse_index(letters), np.arange(m)] = False
    frontier = np.array([[1], [0], [0], [1]], dtype=dtype)
    last = np.array([m])
    collected = [frontier]
    total = 1
    while frontier.shape[1]:
        grown, ends = [], []
        for start in range(0, frontier.shape[1], _TREE_BLOCK):
            parents = frontier[:, start : start + _TREE_BLOCK]
            kids = _children(parents, mats)
            reduced = follows[:, last[start : start + _TREE_BLOCK]].ravel()
            for entry in kids:
                reduced &= np.abs(entry) < e_max
            kids, index = kids.compress(reduced, axis=1), np.flatnonzero(reduced)
            inside = np.einsum("ij,ij->j", kids, kids) < bound
            grown.append(kids.compress(inside, axis=1))
            ends.append(index.compress(inside) // parents.shape[1])
            total += grown[-1].shape[1]
            if total > _ELEMENT_CAP:
                raise BallBudgetError(T, total, _ELEMENT_CAP)
        frontier, last = np.concatenate(grown, axis=1), np.concatenate(ends)
        collected.append(frontier)
    return collected


def _radius_bound(T: float) -> int:
    """ceil(T^2), exactly, for a radius T >= 1 with a finite square; raises ValueError otherwise."""
    if not (T >= 1 and float(T) * float(T) < math.inf):
        raise ValueError(f"need a finite T >= 1 with a finite T^2, got {T}")
    return math.ceil(Fraction(T) ** 2)


def enumerate_ball(gens: GeneratorSet, T: float) -> OrbitBall:
    """Complete, deduplicated enumeration of B_T: on the reduced-word tree
    when the letters carry a ping-pong certificate, else breadth-first.

    Raises BallBudgetError when more than _ELEMENT_CAP nodes are discovered;
    a returned ball is always complete.  The tree counts ball elements, the
    search every node of its region, which holds the ball.
    """
    bound = _radius_bound(T)
    letters = tuple(h.entries() for h in gens.letters())
    if _ping_pong_certificate(letters) is not None:
        collected = _tree_layers(letters, T, bound)
    else:
        region = max(bound, 4) if gens.monotone_cap else math.ceil(Fraction(T) ** 2 * gens.max_letter_sq_norm())
        collected = _bfs_layers(letters, T, region)

    cols = np.concatenate(collected, axis=1)
    # the word length of an element is the index of its layer
    wls = np.repeat(np.arange(len(collected), dtype=np.int64), [c.shape[1] for c in collected])
    wl_bits = (len(collected) - 1).bit_length()
    del collected  # the layers are copied; freeing them bounds the peak below
    sq = np.einsum("ij,ij->j", cols, cols)
    keep = sq < bound
    if not keep.all():  # the tree, and the search at T >= 2 on R and L, hold only ball elements
        cols, wls, sq = cols.compress(keep, axis=1), wls.compress(keep), sq.compress(keep)
    # entries e with e^2 <= sq_norm < 2^63 fit int64
    sq = _int64_sq_norms(sq)
    cols = cols.astype(np.int64, copy=False)
    off = _offset(cols)
    bits = (2 * off).bit_length()
    sq_bits = int(sq.max(initial=0)).bit_length()
    cols += off
    keys, places = _pack([(sq, sq_bits), *((col, bits) for col in cols), (wls, wl_bits)])
    del cols, sq, wls
    keys = _sort_keys(keys, places[4][0] + 1)  # (sq_norm, entries) are unique
    rows = np.empty((keys.shape[1], 4), dtype=np.int64)
    for i in range(4):
        rows[:, i] = _field(keys, places[i + 1], bits)
    rows -= off
    sq, wls = (_field(keys, places[i], width).view(np.int64) for i, width in ((0, sq_bits), (5, wl_bits)))
    return OrbitBall(T=float(T), label=gens.label, rows=rows, word_lengths=wls, _sq=sq)


@dataclass(frozen=True)
class SmoothedWeight:
    """Cubic smoothstep cutoff: 1 below 0.9T, 0 above 1.1T, 3u^2 - 2u^3
    between, u = (1.21T^2 - s) / (0.4T^2) measured on squared norms s.

    The one formula is numerators, in integers: with T = N/D exactly,
    C = 40N^2 and A = 121N^2 - 100sD^2 = Cu clamped to [0, C], the weight is
    A^2 (3C - 2A) / C^3, which is C^3 / C^3 = 1 below the annulus and 0 above
    it.  weight_fraction and support_radius read it, and so do the row
    weights of the sieve sequence."""

    T: float

    def numerators(self, s: np.ndarray) -> Tuple[np.ndarray, int]:
        """(A^2 (3C - 2A) for each squared norm of s, C^3): the weights of s
        over C^3.  s is an int64 array, or an object array of Python ints or
        Fractions.  The numerators lie in [0, C^3]; they and A are computed in
        int64 when C^3 and 121N^2 + 100D^2 max|s| are below 2^63, else in
        Python ints."""
        t = Fraction(self.T)
        n2, d2 = t.numerator ** 2, t.denominator ** 2
        cap = 40 * n2
        if s.dtype != object:
            s_max = max(int(s.max(initial=1)), -int(s.min(initial=0)))
            if max(cap ** 3, 121 * n2 + 100 * d2 * s_max) >= 1 << 63:
                s = s.astype(object)
        a = np.clip(121 * n2 - 100 * d2 * s, 0, cap)
        return a * a * (3 * cap - 2 * a), cap ** 3

    def weight_fraction(self, s) -> Fraction:
        num, den = self.numerators(np.array([Fraction(s)], dtype=object))
        return Fraction(num[0], den)

    def support_radius(self) -> float:
        """A float t, from 1.1T up by ulps, where the weight of t^2 is 0: the
        hard ball of radius t holds every element of positive weight."""
        t = 1.1 * float(self.T)
        while self.weight_fraction(Fraction(t) ** 2):
            t = math.nextafter(t, math.inf)
        return t


@dataclass(frozen=True)
class GrowthEstimate:
    """Fitted growth exponent: count(T) ~ C T^(2 delta_hat)."""

    delta_hat: float
    stderr: float
    samples: Tuple[Tuple[float, int], ...]

    def __post_init__(self):
        if not (0 < self.delta_hat <= 1.1):
            raise ValueError(f"fitted exponent {self.delta_hat} outside (0, 1.1]")
        ts = [t for t, _ in self.samples]
        if any(t2 <= t1 for t1, t2 in zip(ts, ts[1:])):
            raise ValueError("samples must be strictly increasing in T")


def estimate_delta(gens: GeneratorSet, T_grid: Sequence[float]) -> GrowthEstimate:
    """Least-squares slope of log(count) on log(T); slope = 2 delta_hat.

    A single enumeration at max(T_grid) supplies every grid count (balls are
    nested), keeping the fit consistent with hard counts; it runs under
    enumerate_ball's one budget, _ELEMENT_CAP.
    """
    grid = sorted(float(t) for t in T_grid)
    if len(grid) < 4:
        raise ValueError("need at least 4 grid points")
    # written so that a NaN, which compares false, fails it
    if not (grid[0] >= 1 and all(t2 > t1 for t1, t2 in zip(grid, grid[1:]))):
        raise ValueError("grid must be strictly increasing with min >= 1")
    ball = enumerate_ball(gens, grid[-1])
    counts = [ball.count_below(t) for t in grid]
    if any(c == 0 for c in counts):
        raise ValueError("grid reaches below the first group element; shrink it")
    x = np.log(np.array(grid))
    y = np.log(np.array(counts, dtype=np.float64))
    (slope, _intercept), cov = np.polyfit(x, y, 1, cov=True)
    return GrowthEstimate(
        delta_hat=float(slope) / 2.0,
        stderr=float(np.sqrt(cov[0, 0])) / 2.0,
        samples=tuple(zip(grid, counts)),
    )


def coset_counts(
    gens: GeneratorSet, T: float, q: int, ball: Optional[OrbitBall] = None
) -> Dict[Tuple[int, int], int]:
    """Ball elements per coset label mod squarefree q; counts partition the ball.

    Requires surjectivity mod every prime of q (so q odd, coprime to the bad
    modulus); pass a precomputed ball to reuse an enumeration.
    """
    ball = (enumerate_ball(gens, T) if ball is None else ball).sub_ball(T)
    n = len(ball)
    if q == 1:
        return {(0, 1): n}
    if q % 2 == 0:
        raise ValueError("modulus shares the factor 2 with the bad modulus")
    table = modular.coset_table(q)
    for p in modular.prime_factors(q):
        if not modular.strong_approx_check(gens, p):
            raise ValueError(f"projection not surjective mod {p}; bad modulus overlap")
    # each occupied cell mod q once, tallied at its coset's place in table.reps
    cells, per_cell = _distinct(ball.rows[:, 2] % q * q + ball.rows[:, 3] % q)
    tally = np.zeros(table.index, dtype=np.int64)
    np.add.at(tally, modular.coset_positions(q, cells // q, cells % q), per_cell)
    counts = dict(zip(table.reps, tally.tolist()))
    if sum(counts.values()) != n:
        raise ArithmeticError("coset counts do not partition the ball")
    return counts


def word_ball(gens: GeneratorSet, max_length: int) -> Dict[UnimodularMatrix, int]:
    """Every word of length <= max_length with its geodesic word length.

    Pure breadth-first closure without norm pruning; exponential in
    max_length, so keep the length small.
    """
    ident = UnimodularMatrix.identity()
    letters = gens.letters()
    dist = {ident: 0}
    frontier = [ident]
    for ell in range(1, max_length + 1):
        nxt = []
        for g in frontier:
            for h in letters:
                w = g @ h
                if w not in dist:
                    dist[w] = ell
                    nxt.append(w)
        frontier = nxt
    return dist


def sample_words(gens: GeneratorSet, count: int, seed: int) -> List[UnimodularMatrix]:
    """Reproducible sample of group elements from the ball of words of length <= 4.

    The pool is canonically ordered before seeding, so the draw depends only
    on (gens, count, seed).
    """
    pool = sorted(word_ball(gens, 4), key=lambda g: (sq_norm(g),) + g.entries())
    if count >= len(pool):
        return pool
    return random.Random(seed).sample(pool, count)
