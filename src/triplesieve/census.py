"""Almost-prime census over orbit balls and the smoothed sieve sequence.

The census grades exact form values: factor completely, count prime factors
with multiplicity (Omega), and report membership in P_R = {at most R prime
factors}.  Zeros and units are quarantined, never graded.

Factorizations come from modular.factor_array as flat (index, prime)
arrays: trial division by the one prime table on the kernel
modular._divisor_hits, and one rule that certifies each cofactor.  Only
small pieces are factored: |c|, |d|, |d - c| and |d + c|, all below 1.5T,
and z = c^2 + d^2 < T^2, whose prime factors are 2 or 1 mod 4 since
gcd(c, d) = 1.  The rest follows from Omega being completely additive:
x = (d - c)(d + c) and y = 2cd are graded from their pieces, and the area
xy/12 and product xyz/60 from the multiset union of their coordinates'
primes minus {2, 2, 3} or {2, 2, 3, 5} (12 | xy and 60 | xyz on coprime
rows).

The rows are the ball's distinct bottom rows from the one kernel
OrbitBall.distinct_rows.  The factors, Omega and grade of a row depend on
n = |value| alone, so the rows are grouped by n on runs._runs, and
each distinct n > 1 is graded once, on any of its rows.  The pieces of those rows
are deduplicated and factored, kept as flat arrays, and each value's primes
are merged by one sort on (value, prime), runs._order; the area and
product drop {2, 2, 3} or {2, 2, 3, 5} by rank within runs of equal primes,
and a value that lacks them raises ArithmeticError.  What remains is two
flat int64 arrays, the primes sorted by (value, prime) and each value's run
end, and Omega is the length of the value's run.  The certificate
multiplies the primes back by dividing: round r divides every value by its
prime of rank r, in int64 when the values are below 2^63 and on an object
array of Python ints otherwise, and the first value left with a remainder
or a quotient other than 1 raises ArithmeticError.  The report keeps the rows as
columns plus the two arrays; census_csv spells each distinct prime once
and joins each distinct n's factors once, from its own slice, and
CensusReport.rows, one CensusRow per row, is built on first access.

The sieve sequence attaches to each integer n the mass

    a(n) = sum_{g, w} Upsilon_X(g) 1_{f(row(g w)) = n},     w in the hard
                                                            ball of radius Y

computed exactly: the smoothed weights are rationals with a common
denominator, so every a(n) is an integer numerator over that denominator and
the accounting identity sum_n a(n) = chi = |ball_Y| * sum_g Upsilon_X(g)
holds to the last digit.  One ball is enumerated, at the larger of the
weight's support radius and Y; the g-ball and the omega ball are its
prefixes (OrbitBall.sub_ball), since balls are sorted by sq_norm first.  The
weights come from the integer form of the smoothstep
(SmoothedWeight.numerators), one per distinct sq_norm, over C^3 reduced by
its gcd with them.  Since a(n) only sees g through its bottom row, the g-ball
is first collapsed to weights on the same kernel's rows, summed over its
inverse index; the (row, w) product grid is then processed in chunks:
gl2.form_values evaluates each chunk (int64 under its proven bounds, Python
ints otherwise), whose weights are summed by value, and the chunk results
are merged as they come (_merged_sums); runs._run_sums takes each of these
sums exactly.  The support and numerators are handed to SieveSequence as the
arrays a_q reads, under the same rules as a sequence built from lists: the
support as modular._limbs (plain int64 when it fits, else 32-bit limbs of
|n|), the numerators in int64 when each fits.  a_q sums them at the hits of
modular._divisor_hits by _exact_total.  Every form value in this module
comes from gl2.form_values.

The grid (the ball, the row weights, the fold below, the omega classes, the
int64 choice and the chunks) is built by one helper, _sequence_grid, and has
two readers.  build_sequence sums it by value into a(n), and a_q then reads
any number of moduli off the built sequence.  adq_terms reads one modulus
straight off the grid, for the CLI's adq, with no sum by value: each chunk
adds the weights of the pairs whose value q divides (modular._divisor_hits
on the chunk's _limbs) and the total of its pair weights, which must come to
chi times the denominator, and the support is the length of the merge
(_merged_sums) of each chunk's distinct values (runs._distinct).

Before that the grid is folded by the rotation S = [[0, -1], [1, 0]].  Right
multiplication by S maps every row (c1, d1) to (d1, -c1), which leaves z, xy
and xyz alone and flips the signs of x and y; so the omega ball is grouped
into classes {W S^k} (for x and y only {W, -W}) carried as one
representative and an integer multiplicity, exactly and for any generators.
On the row side, r and r.S see the same values r.S.W when the omega ball
is closed under W -> S.W, so when that holds and every row weighs what its
rotation does, the four rotations of a row collapse to the one with c > 0,
d >= 0 at four times the weight.  Both conditions are read off the computed
balls.  The modular group folds 552 x 1476 pairs to 138 x 369 at X = Y = 16.
pair_count and omega_ball_size still describe the unfolded grid.
"""

from __future__ import annotations

import bisect
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Dict, Iterator, List, NamedTuple, Tuple

import numpy as np

from .gl2 import Form, GeneratorSet, form_values
from .groups import OrbitBall, SmoothedWeight, _norm_keys, enumerate_ball
from .modular import beta as modular_beta
from .modular import FORM_PRIME_FLOOR, TABLE_LIMIT, _divisor_hits, _limbs, factor_array, primes_upto, require_odd_prime
from .runs import _distinct, _exact_total, _heads, _order, _run_sums, _runs

# Kept only for perfbench's census.uncertified counter; it goes with ROADMAP
# item 7's single benchmark change.
FACTOR_GUARANTEE = 10 ** 18
_CHUNK_PAIRS = 4_000_000


class CensusRow(NamedTuple):
    """One orbit point: bottom row, form value, factorization, grade."""

    c: int
    d: int
    form: Form
    value: int  # signed form value
    n: int  # |value|; the graded quantity
    factors: Tuple[int, ...]
    omega: int
    grade: str  # "zero", "unit", or "P<omega>"
    imprimitive: bool  # both c and d odd: the triple has content 2


@dataclass(frozen=True)
class CensusReport:
    """The census as columns (distinct rows c, d, signed values, and each
    row's index into the sorted distinct |values| ns) and the per-value
    primes as flat arrays: the sorted primes of ns[k] are
    primes[ends[k - 1]:ends[k]] (from 0 for k = 0); rows is built on first
    access.  == skips the columns and the arrays."""

    form: Form
    R: int
    label: str
    T: float
    omega_histogram: Dict[int, int]
    zeros: int
    units: int
    imprimitive_count: int
    max_abs_value: int
    c: np.ndarray = field(repr=False, compare=False)
    d: np.ndarray = field(repr=False, compare=False)
    values: np.ndarray = field(repr=False, compare=False)
    value_index: np.ndarray = field(repr=False, compare=False)
    ns: List[int] = field(repr=False, compare=False)
    ends: np.ndarray = field(repr=False, compare=False)
    primes: np.ndarray = field(repr=False, compare=False)

    def _value_runs(self) -> Iterator[Tuple[int, int, int, str]]:
        """(n, start, end, grade) of each distinct |value| n: its sorted primes
        are primes[start:end] and Omega is end - start; 0 and 1 are the
        ungraded "zero" and "unit", the rest "P<Omega>"."""
        ends = self.ends.tolist()
        for n, a, b in zip(self.ns, [0] + ends, ends):
            yield n, a, b, "zero" if n == 0 else "unit" if n == 1 else f"P{b - a}"

    @cached_property
    def rows(self) -> Tuple[CensusRow, ...]:
        """One CensusRow per distinct row, in the columns' order."""
        plist = self.primes.tolist()
        table = [(n, tuple(plist[a:b]), b - a, grade) for n, a, b, grade in self._value_runs()]
        imprimitive = (self.c & self.d & 1).astype(bool).tolist()
        return tuple(CensusRow(c, d, self.form, v, *table[k], imp) for c, d, v, k, imp in zip(
            self.c.tolist(), self.d.tolist(), self.values.tolist(), self.value_index.tolist(), imprimitive))

    def count_at_most(self, r: int) -> int:
        """#{graded rows with Omega(n) <= r}."""
        return sum(v for k, v in self.omega_histogram.items() if k <= r)

    def summary(self) -> Dict[str, object]:
        cumulative = {f"le_{r}": self.count_at_most(r) for r in range(1, self.R + 1)}
        return {
            "form": self.form.value,
            "label": self.label,
            "T": self.T,
            "R": self.R,
            "rows": len(self.c),
            "zeros": self.zeros,
            "units": self.units,
            "imprimitive": self.imprimitive_count,
            "max_abs_value": self.max_abs_value,
            "omega_histogram": {str(k): v for k, v in sorted(self.omega_histogram.items())},
            "almost_prime_counts": cumulative,
        }


# Primes that xy and xyz carry beyond the area xy/12 and the product xyz/60.
_DENOMINATOR_PRIMES = {Form.AREA: {2: 2, 3: 1}, Form.PRODUCT: {2: 2, 3: 1, 5: 1}}


def _piece_primes(
    pieces: List[np.ndarray], sums_of_coprime_squares: bool = False
) -> Tuple[np.ndarray, np.ndarray]:
    """(owner, prime): the primes, with multiplicity, of every entry of the
    equally long positive arrays in pieces, owner being the entry's index.

    Each distinct entry is factored once by factor_array, whose flat
    (index, prime) arrays are gathered back to every entry."""
    values = np.concatenate(pieces)
    order, head, at = _runs(values[None])
    uniq = values[order[head]]
    index, primes = factor_array(uniq, sums_of_coprime_squares)
    lengths = np.bincount(index, minlength=len(uniq))
    offsets = np.cumsum(lengths) - lengths
    count = lengths[at]
    owner = np.repeat(np.tile(np.arange(len(pieces[0])), len(pieces)), count)
    gather = np.repeat(offsets[at] - (np.cumsum(count) - count), count) + np.arange(len(owner))
    return owner, primes[gather]


def _grade_values(f: Form, rc: np.ndarray, rd: np.ndarray, ns: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(run ends, primes), two int64 arrays: the sorted primes of each
    |form value| ns[k] > 1 are primes[ends[k - 1]:ends[k]] (from 0 for
    k = 0), graded once on its representative row (rc[k], rd[k]) from the
    factored pieces.  ns is the ascending array of those values, int64 or
    object.

    The primes of all values are merged by one sort on (value, prime),
    runs._order; the area and product then drop {2, 2, 3} or
    {2, 2, 3, 5} by rank within each run of equal primes.  A value whose
    primes lack them raises ArithmeticError, and so does the first value
    whose primes do not multiply back to it (_multiply_back)."""
    small, parts = [], []
    if f in (Form.X, Form.AREA, Form.PRODUCT):
        small += [np.abs(rd - rc), np.abs(rd + rc)]
    if f in (Form.Y, Form.AREA, Form.PRODUCT):
        small += [np.abs(rc), np.abs(rd)]
        parts.append((np.arange(len(ns)), np.full(len(ns), 2, dtype=np.int64)))  # y = 2cd
    if small:
        parts.append(_piece_primes(small))
    if f in (Form.Z, Form.PRODUCT):
        parts.append(_piece_primes([form_values(Form.Z, rc, rd)], sums_of_coprime_squares=True))
    keys = np.stack([np.concatenate(column) for column in zip(*parts)])  # (owner, prime)
    owner, prime = keys = keys[:, _order(keys)]
    if f in _DENOMINATOR_PRIMES:
        pos = np.arange(len(owner))
        rank = pos - np.maximum.accumulate(np.where(_heads(keys), pos, 0))
        drop = np.zeros(len(owner), dtype=bool)
        for p, k in _DENOMINATOR_PRIMES[f].items():
            drop |= (prime == p) & (rank < k)
        dropped = np.bincount(owner[drop], minlength=len(ns))
        need = sum(_DENOMINATOR_PRIMES[f].values())
        if (dropped != need).any():
            k = int(np.flatnonzero(dropped != need)[0])
            divisor = math.prod(p ** e for p, e in _DENOMINATOR_PRIMES[f].items())
            row = (int(rc[k]), int(rd[k]))
            raise ArithmeticError(f"{divisor} does not divide the coordinate product at row {row}")
        owner, prime = owner[~drop], prime[~drop]
    ends = np.cumsum(np.bincount(owner, minlength=len(ns)))
    failed = _multiply_back(ns, ends, prime)
    if len(failed):
        k = int(failed[0])
        row = (int(rc[k]), int(rd[k]))
        raise ArithmeticError(f"factors of {int(ns[k])} at row {row} do not multiply back")
    return ends, prime


def _multiply_back(ns: np.ndarray, ends: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """Indices k, ascending, at which the primes[ends[k - 1]:ends[k]] do not
    multiply back to ns[k] in exact integers.

    Each value is divided by its primes one rank per round: round r divides
    every value with more than r primes by its prime of rank r, and marks it
    when the division leaves a remainder.  A value fails when it was marked
    or its quotient is not 1.  The values are divided in int64 when they are
    below 2^63 and as Python ints on an object array otherwise."""
    rest = ns.astype(np.int64 if len(ns) and int(ns[-1]) < 1 << 63 else object)
    counts = np.diff(ends, prepend=0)
    exact = np.ones(len(ns), dtype=bool)
    live = np.arange(len(ns))
    for r in range(int(counts.max(initial=0))):
        live = live[counts[live] > r]
        p = primes[ends[live] - counts[live] + r]
        exact[live] &= rest[live] % p == 0
        rest[live] //= p
    return np.flatnonzero(~exact | (rest != 1))


def census(ball: OrbitBall, f: Form, R: int) -> CensusReport:
    """Grade every distinct orbit point of the ball; deterministic order.

    Rows sharing |value| share its factors, Omega and grade, so each distinct
    |value| is graded once and reaches its rows through the inverse index."""
    if R < 1:
        raise ValueError("need R >= 1")
    f = Form(f)
    c, d, _ = ball.distinct_rows()
    if not (np.gcd(c, d) == 1).all():
        raise ArithmeticError("bottom rows of SL(2,Z) elements must be coprime")
    values = form_values(f, c, d)
    absolute = np.abs(values)
    order, head, inv = _runs(absolute[None])
    ns = absolute[order[head]].tolist()
    lo = sum(1 for n in ns[:2] if n <= 1)  # zero and unit come first
    reps = order[head][lo:]
    ends, primes = _grade_values(f, c[reps], d[reps], absolute[reps])
    ends = np.concatenate((np.zeros(lo, dtype=np.int64), ends))
    omegas = np.diff(ends, prepend=0)
    # keys in order of first appearance among the graded rows
    hist = Counter(omegas[inv[inv >= lo]].tolist())
    return CensusReport(
        form=f,
        R=R,
        label=ball.label,
        T=ball.T,
        omega_histogram=dict(hist),
        zeros=int((absolute == 0).sum()),
        units=int((absolute == 1).sum()),
        imprimitive_count=int((c & d & 1).sum()),
        max_abs_value=ns[-1] if len(ns) > lo else 0,
        c=c, d=d, values=values, value_index=inv, ns=ns, ends=ends, primes=primes,
    )


def census_csv(report: CensusReport) -> str:
    """One line per row, read from the columns; the form,n,factors,omega,grade
    tail is formatted once per distinct |value|, its factors joined from the
    value's own slice of the flat primes, each distinct prime spelled once."""
    form, primes = report.form.value, report.primes
    distinct = _distinct(primes)[0]
    names = np.array(list(map(str, distinct.tolist())), dtype=object)[np.searchsorted(distinct, primes)].tolist()
    tails = [f"{form},{n},{'·'.join(names[a:b])},{b - a},{grade}" for n, a, b, grade in report._value_runs()]
    lines = ["c,d,form,n,factors,omega,grade,imprimitive_flag"]
    lines += [f"{c},{d},{tails[k]},{imp}" for c, d, k, imp in zip(
        report.c.tolist(), report.d.tolist(), report.value_index.tolist(),
        (report.c & report.d & 1).tolist())]
    return "\n".join(lines) + "\n"


def two_path_counts(ball: OrbitBall, p: int) -> Tuple[int, int]:
    """(#rows with xyz = 0 mod p, sum of the three per-coordinate counts).

    Equal for every odd prime p because no two coordinates vanish together
    on rows with coprime entries; false for composite moduli.
    """
    require_odd_prime(p)
    c = ball.rows[:, 2] % p
    d = ball.rows[:, 3] % p
    x, y, z = (form_values(g, c, d) % p for g in (Form.X, Form.Y, Form.Z))
    direct = int(((x * y % p) * z % p == 0).sum())
    split = int((x == 0).sum()) + int((y == 0).sum()) + int((z == 0).sum())
    return direct, split


@dataclass
class SieveSequence:
    """The exact map n -> a(n), stored as integer numerators over a common
    denominator, plus the mass chi and the build parameters."""

    X: float
    Y: float
    form: Form
    label: str
    den: int
    ns: List[int]  # sorted distinct form values with positive mass
    numerators: List[int]  # aligned with ns; a(n) = numerators[i]/den
    chi: Fraction
    pair_count: int  # distinct weighted rows x |omega ball|, before folding
    omega_ball_size: int

    def a(self, n: int) -> Fraction:
        i = bisect.bisect_left(self.ns, n)
        if i < len(self.ns) and self.ns[i] == n:
            return Fraction(self.numerators[i], self.den)
        return Fraction(0)

    def items(self) -> Iterator[Tuple[int, Fraction]]:
        for n, num in zip(self.ns, self.numerators):
            yield n, Fraction(num, self.den)

    def total_mass(self) -> Fraction:
        return Fraction(sum(self.numerators), self.den)

    @staticmethod
    def _numerator_array(nums: np.ndarray) -> np.ndarray:
        """An int64 or object array of numerators in int64 when each fits, else as Python ints."""
        fits = nums.dtype != object or int(nums.max(initial=0)) < 1 << 63 and int(nums.min(initial=0)) >= -(1 << 63)
        return nums.astype(np.int64 if fits else object, copy=False)

    @cached_property
    def _arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """(the support ns as modular._limbs, the numerators as _numerator_array), built once
        per sequence; build_sequence primes them with the arrays it already holds."""
        return _limbs(self.ns), self._numerator_array(np.array(self.numerators, dtype=object))


def _row_weights(gamma_ball: OrbitBall, X: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Collapse the gamma-ball to its distinct rows (c, d) with integer weight
    numerators (Python ints) over a common denominator, summed over the
    inverse index of distinct_rows by _run_sums; rows with zero total weight
    are dropped.

    The weights are SmoothedWeight.numerators over C^3 of the distinct
    sq_norms, the run heads of the ball's sorted sq_norms.  Dividing them and
    C^3 by g = gcd(C^3, every numerator) leaves the denominator C^3 / g, the
    lcm of the weights' reduced denominators."""
    sq = gamma_ball.sq_norms()
    head = _heads(sq)
    nums, cube = SmoothedWeight(X).numerators(sq[head])
    g = math.gcd(cube, *nums.tolist())
    c, d, inverse = gamma_ball.distinct_rows()
    _, wnums = _run_sums(inverse, (nums // g)[np.cumsum(head) - 1])  # every row occurs: keys 0..len(c)-1
    keep = wnums != 0
    return c[keep], d[keep], wnums[keep].astype(object), cube // g


def _half_turn(w: np.ndarray) -> np.ndarray:
    """The one of +-W whose top row has a > 0, or a = 0 < b."""
    flip = (w[:, 0] < 0) | ((w[:, 0] == 0) & (w[:, 1] < 0))
    return np.where(flip[:, None], -w, w)


def _omega_classes(omega_rows: np.ndarray, f: Form) -> Tuple[np.ndarray, np.ndarray]:
    """(representatives, multiplicities) of the omega ball under W -> W.S.

    W.S = [[b, -a], [d, -c]] turns every row (c1, d1) = r.W into (d1, -c1),
    so x and y change sign and z, xy and xyz do not: the four rotations of
    W share one value of z, area and product, and W, -W share every form.
    A class is represented by its rotation with a > 0, b >= 0 (by +-W with
    a > 0 or a = 0 < b for x and y) and counts its members in the ball, the
    length of its run on _norm_keys (_runs); every reader sums by value."""
    reps = _half_turn(omega_rows)
    if f in (Form.Z, Form.AREA, Form.PRODUCT):
        w_s = reps[:, [1, 0, 3, 2]] * np.array([1, -1, 1, -1])
        turned = _half_turn(w_s)
        off = (reps[:, 0] == 0) | (reps[:, 1] < 0)
        reps = np.where(off[:, None], turned, reps)
    order, head, inverse = _runs(_norm_keys(reps))
    return reps[order[head]], np.bincount(inverse)


def _fold_rows(
    c: np.ndarray, d: np.ndarray, wnums: np.ndarray, omega_rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct rows and weights folded under r -> r.S = (d, -c) when certified.

    If the omega ball is closed under W -> S.W, the rows r and r.S see the
    same values r.S.W; if moreover every row weighs what its rotation does,
    the four rotations of a row carry one histogram, and the one with c > 0,
    d >= 0 stands for them with 4 times the weight.  Otherwise nothing folds.

    Each closure compares a set, in the order given, with its image sorted by
    (sum of squares, entries) (_norm_keys): the order of distinct_rows and
    of a ball's rows.  Equal arrays prove the set closed whatever the given
    order; a set given in another order only fails to fold."""
    turned = _order(_norm_keys(np.stack([d, -c], axis=1)))
    if not ((c == d[turned]).all() and (d == -c[turned]).all() and (wnums == wnums[turned]).all()):
        return c, d, wnums
    s_w = omega_rows[:, [2, 3, 0, 1]] * np.array([-1, -1, 1, 1])
    if not (omega_rows == s_w[_order(_norm_keys(s_w))]).all():
        return c, d, wnums
    keep = (c > 0) & (d >= 0)
    return c[keep], d[keep], 4 * wnums[keep]


def _chunk_values(rc: np.ndarray, rd: np.ndarray, reps: np.ndarray, form: Form) -> np.ndarray:
    """Form values over the (row x omega) grid, row-major.  The grid rows
    (c1, d1) = (c a + d c', c b + d d') are formed in int64 only when
    2 max(|c|, |d|) max|omega entry| < 2^63 bounds them, else as Python ints."""
    row_max = max(int(np.abs(rc).max(initial=0)), int(np.abs(rd).max(initial=0)))
    if 2 * row_max * int(np.abs(reps).max(initial=0)) >= 1 << 63:
        rc, rd, reps = rc.astype(object), rd.astype(object), reps.astype(object)
    wa, wb, wc, wd = reps.T
    c1 = (rc[:, None] * wa[None, :] + rd[:, None] * wc[None, :]).ravel()
    d1 = (rc[:, None] * wb[None, :] + rd[:, None] * wd[None, :]).ravel()
    return form_values(form, c1, d1)


@dataclass(frozen=True)
class _Grid:
    """The folded (row x omega-class) grid of the sieve sequence, the one
    grid build_sequence and adq_terms read.  Pair (i, j) is the row
    (c[i], d[i]) times the class representative reps[j] and weighs
    wnums[i] * mult[j] over den; total = chi * den is the mass numerator.
    wnums is int64 when every pair weight fits, else Python ints."""

    form: Form
    den: int
    total: int
    pair_count: int  # distinct weighted rows x |omega ball|, before folding
    m: int  # |omega ball|
    c: np.ndarray
    d: np.ndarray
    wnums: np.ndarray
    reps: np.ndarray
    mult: np.ndarray

    def chunks(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """(form values, row weight numerators) of each block of rows whose
        pairs number at most _CHUNK_PAIRS (one row at least); the values
        are row-major over (row, class)."""
        rows_per_chunk = max(1, _CHUNK_PAIRS // max(1, len(self.reps)))
        for start in range(0, len(self.c), rows_per_chunk):
            part = slice(start, start + rows_per_chunk)
            yield _chunk_values(self.c[part], self.d[part], self.reps, self.form), self.wnums[part]


def _merged_sums(parts: Iterator[Tuple[np.ndarray, np.ndarray]]) -> Tuple[np.ndarray, np.ndarray]:
    """(distinct keys, ascending, and their exact totals) of one part or more,
    each a chunk's ascending distinct keys and totals.  Parts after the first
    held one wait till their entries reach max(its length, _CHUNK_PAIRS), and
    then _run_sums merges all held: the merge work is linear in the entries."""
    held = []
    for part in parts:
        held.append(part)
        if sum(len(keys) for keys, _ in held[1:]) >= max(len(held[0][0]), _CHUNK_PAIRS):
            held = [_run_sums(*map(np.concatenate, zip(*held)))]
    return held[0] if len(held) == 1 else _run_sums(*map(np.concatenate, zip(*held)))


def _sequence_grid(gens: GeneratorSet, X: float, Y: float, f: Form) -> _Grid:
    """The grid of build_sequence(gens, X, Y, f): one ball enumerated at the
    larger of the weight's support radius and Y, the row weights, the
    S-fold and the omega classes.  An empty gamma or omega ball gives an
    empty grid over den = 1."""
    if not (1 <= X < math.inf and 1 <= Y < math.inf):
        raise ValueError(f"need finite X >= 1 and Y >= 1, got X={X}, Y={Y}")
    f = Form(f)
    radius = SmoothedWeight(X).support_radius()
    ball = enumerate_ball(gens, max(radius, Y))
    gamma_ball, omega_ball = ball.sub_ball(radius), ball.sub_ball(Y)
    m = len(omega_ball)
    c, d, wnums, den = _row_weights(gamma_ball, X)
    if not len(c) or m == 0:
        empty = np.zeros(0, dtype=np.int64)
        return _Grid(f, 1, 0, 0, m, empty, empty, empty, empty.reshape(0, 4), empty)
    total = int(wnums.sum()) * m
    pair_count = len(c) * m
    c, d, wnums = _fold_rows(c, d, wnums, omega_ball.rows)
    reps, mult = _omega_classes(omega_ball.rows, f)
    # every pair weight (row weight times class multiplicity) fits in int64;
    # its readers bound their own sums
    wnums = wnums.astype(np.int64 if int(wnums.max()) * int(mult.max()) < 1 << 63 else object)
    return _Grid(f, den, total, pair_count, m, c, d, wnums, reps, mult)


def build_sequence(gens: GeneratorSet, X: float, Y: float, f: Form) -> SieveSequence:
    """Exact smoothed sieve sequence a(n) for the form f on the orbit of gens.

    The g-weight is the cubic smoothstep at scale X (support inside norm
    1.1X); the inner sum ranges over the hard ball of radius Y.  Both balls
    are prefixes of one enumeration, under enumerate_ball's one budget
    groups._ELEMENT_CAP (BallBudgetError past it).  Weights sit on the
    g-ball's rows from OrbitBall.distinct_rows, the rows census grades.
    Generator order does not affect the result.
    """
    grid = _sequence_grid(gens, X, Y, f)
    chi = Fraction(grid.total, grid.den)
    if not grid.pair_count:
        return SieveSequence(X, Y, grid.form, gens.label, 1, [], [], chi, 0, grid.m)
    ns, numerators = _merged_sums(_run_sums(values, np.outer(w, grid.mult).ravel()) for values, w in grid.chunks())
    seq = SieveSequence(X, Y, grid.form, gens.label, grid.den, ns.tolist(), numerators.tolist(), chi,
                        grid.pair_count, grid.m)
    if seq.total_mass() != chi:
        raise ArithmeticError("mass accounting identity failed")
    seq._arrays = _limbs(ns), seq._numerator_array(numerators)
    return seq


def _modulus(q: int) -> np.ndarray:
    """q as the moduli of modular._divisor_hits; a q below 1 or past int64
    is a ValueError, raised before q is factored."""
    if q < 1:
        raise ValueError(f"modulus must be positive, got {q}")
    if q >> 63:
        raise ValueError(f"modulus {q} does not fit in int64")
    return np.array([q], dtype=np.int64)


def adq_terms(
    gens: GeneratorSet, X: float, Y: float, f: Form, q: int
) -> Tuple[Fraction, Tuple[Fraction, Fraction, Fraction], int]:
    """(chi, a_q(seq, q), len(seq.ns)) of seq = build_sequence(gens, X, Y, f),
    read off the grid without building seq.

    Inputs are refused as build_sequence and then a_q refuse them: X and Y,
    the ball's budget groups._ELEMENT_CAP, then q (one past int64 before it
    is factored), before any value is formed.  Each chunk adds the weights
    of its pairs whose value q divides (modular._divisor_hits on the chunk's
    _limbs, as a_q reads the support) and its pair weights, whose total must
    be chi * den (else ArithmeticError); the support is counted on the merge
    of the chunks' distinct values (_merged_sums)."""
    grid = _sequence_grid(gens, X, Y, f)
    chi = Fraction(grid.total, grid.den)
    if q != 1:
        moduli = _modulus(q)
        main = modular_beta(grid.form, q) * chi  # rejects even, non-squarefree, small p
    k, mult_total = len(grid.reps), int(grid.mult.sum())
    hit_total = pair_total = 0

    def parts() -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        nonlocal hit_total, pair_total
        for values, w in grid.chunks():
            pair_total += _exact_total(w) * mult_total
            if q != 1:
                i, j = np.divmod(_divisor_hits(_limbs(values), moduli)[0], k)
                hit_total += _exact_total(w[i] * grid.mult[j])
            yield _distinct(values)
    support = len(_merged_sums(parts())[0]) if grid.pair_count else 0
    if pair_total != grid.total:
        raise ArithmeticError("mass accounting identity failed")
    if q == 1:
        return chi, (chi, chi, Fraction(0)), support
    mass = Fraction(hit_total, grid.den)
    return chi, (mass, main, mass - main), support


def a_q(seq: SieveSequence, q: int) -> Tuple[Fraction, Fraction, Fraction]:
    """(|A_q|, beta(q) * chi, remainder), all exact.

    |A_q| is the mass on multiples of q, the numerators summed at the hits
    of modular._divisor_hits on the support's limbs; the main term uses the
    local densities, which are sums of the constituent coordinate densities
    for the composite forms.  q = 1 returns (chi, chi, 0).
    """
    if q == 1:
        return seq.chi, seq.chi, Fraction(0)
    moduli = _modulus(q)
    b = modular_beta(seq.form, q)  # rejects even, non-squarefree, small p
    limbs, numerators = seq._arrays
    mass = Fraction(_exact_total(numerators[_divisor_hits(limbs, moduli)[0]]), seq.den)
    main = b * seq.chi
    return mass, main, mass - main


def good_moduli(form: Form, bound: float) -> List[int]:
    """Odd squarefree q in (1, bound) whose primes all admit local densities,
    by one sieve over [0, ceil(bound)) striking 0, 1, the multiples of each
    prime below the form's floor (2 included) and of every other p^2.  A
    non-finite bound raises ValueError."""
    if not -math.inf < bound < math.inf:
        raise ValueError(f"need a finite bound, got {bound}")
    floor = FORM_PRIME_FLOOR[Form(form)]
    good = np.ones(max(math.ceil(bound), 0), dtype=bool)
    good[:2] = False
    for p in primes_upto(max(math.isqrt(len(good)), floor)):
        good[:: p if p < floor else p * p] = False
    return np.flatnonzero(good).tolist()


def distribution_probe(
    seq: SieveSequence, alpha: float
) -> Tuple[Fraction, Fraction, Fraction]:
    """(sum of |remainder| over good q < N^alpha, chi, their ratio).

    N is the largest |form value| in the sequence, read off the ends of the
    sorted support; a level N^alpha past modular.TABLE_LIMIT raises
    ValueError before any modulus is listed.  Report only; the ratio going
    down as balls grow is evidence of level-of-distribution behavior, not a
    proof.
    """
    if not 0 < alpha < 0.5:
        raise ValueError("need 0 < alpha < 1/2")
    if seq.chi == 0:
        return Fraction(0), Fraction(0), Fraction(0)
    N = max(abs(seq.ns[0]), abs(seq.ns[-1])) if seq.ns else 0
    if N < 2:
        return Fraction(0), seq.chi, Fraction(0)
    level = N ** alpha
    if level > TABLE_LIMIT:
        raise ValueError(f"level N^alpha = {level:.4g} is past the prime table ({TABLE_LIMIT}): "
                         "every good modulus below it would cost a_q a pass over the support")
    total = Fraction(0)
    for q in good_moduli(seq.form, level):
        _, _, r = a_q(seq, q)
        total += abs(r)
    return total, seq.chi, total / seq.chi
