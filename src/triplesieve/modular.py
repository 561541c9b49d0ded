"""Reduction mod q: group projections, surjectivity probes, coset tables, densities.

For a squarefree modulus q the projection pi_q : SL(2,Z) -> SL(2,Z/qZ) is
computed by breadth-first closure of the images of the generators and their
inverses, the letters of GeneratorSet.letters(), each element packed into
one int64 code ((a q + b) q + c) q + d and deduplicated layer by layer by
runs._fresh, as the norm balls are.  A plain list of matrices is read as
the GeneratorSet of its entries.
A subgroup has full image at a prime p exactly when the closure reaches
p(p^2-1) elements; primes where this fails, and 2, always excluded, form
the empirical bad-modulus set.  Before its size is read, each projection
is checked by its own searchsorted (identity present, distinct rows of
determinant 1, closed under every letter); a failure raises ArithmeticError.

Cosets of the row-stabilizer subgroup {g : (0,1).g = a.(0,1) mod q, a a unit}
are the points of P^1(Z/pZ) per prime, glued by CRT; the index is
eta(q) = prod_{p|q} (p+1).  One class kernel, _projective_class, numbers
the points (d/c, p for (0:1), p + 1 for a vanishing row), and one CRT glue,
_glue, turns classes into labels for coset_labels and coset_table's
representatives; groups.coset_counts and charsums' twists read the classes.

Local densities count, among the p+1 coset representatives, those whose row
makes a chosen coordinate form vanish mod p.  Exact rationals throughout.

Every divisibility question on many values, which table primes divide each
value (factor_array, factor_int) and which support values a modulus q
divides (census.a_q), is answered by one kernel, _divisor_hits; past the
table, is_prime is Miller-Rabin alone (_certified_prime).  The kernel
reads the values as a (k, n) int64 array of limbs from _limbs: the plain
int64 values when k = 1, else the 32-bit limbs of |v|, most significant
first.  Every modulus is at least 2, and past int64 below 2^31.  All limbs
but the last are carried as a residue in Horner form
r -> ((r << 32) + limb) % m, where r <= m - 1 < 2^31 - 1 and
limb <= 2^32 - 1 bound every intermediate by
(2^31 - 1) 2^32 + 2^32 - 1 = 2^63 - 1, so no step wraps in int64.  The last
step takes no remainder.  With x = (r << 32) + the last limb, or x = |v|
when k = 1, and m = 2^s o for odd o, m divides x iff x & (2^s - 1) = 0 and
x o^-1 mod 2^64 <= floor((2^64 - 1) / o), one multiply and one compare in
uint64 (Granlund and Montgomery, PLDI 1994; Lemire, Kaser and Kurz, Softw.
Pract. Exp. 2019).  Multiplying by o^-1 permutes Z/2^64 and sends each
multiple o k < 2^64 to k, so the multiples of o are exactly the x landing
in [0, floor((2^64 - 1) / o)].  o^-1 mod 2^64 takes five Newton steps
y -> y (2 - o y) from y = o, which is right to 3 bits since o^2 = 1 mod 8;
each step doubles the good bits, to 96.  The inverses are computed per call
on that call's moduli, so no table is built.

factor_array tries the table primes in rounds over blocks that double in
length, each round on the values still live, and divides every hit out,
powers included, before the next block; it returns flat (index, prime)
arrays.  A value leaves once its cofactor r is below p0^2, p0 the first
prime of the next block: no prime below p0 divides r, so r is 1 or prime.
A cofactor still live after the last block is prime below _TABLE_REACH, and
a larger one goes to _factor_beyond_table.  The (index, prime) pairs are
put in order by the one sort kernel, runs._order.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Tuple

import numpy as np

from .gl2 import Form, GeneratorSet, UnimodularMatrix, form_values
from .runs import _fresh, _order

# Trial division by the primes up to TABLE_LIMIT proves every factorization
# of n < (TABLE_LIMIT + 1)^2 (about 1.1e12); only a cofactor beyond that
# reach goes to _factor_beyond_table (Miller-Rabin and Pollard-Brent).
TABLE_LIMIT = 1 << 20
_TABLE_REACH = (TABLE_LIMIT + 1) ** 2
# Miller-Rabin with the prime bases 2..37 proves primality below
# psi_12 = _MR_LIMIT (Sorenson and Webster, "Strong pseudoprimes to twelve
# prime bases", Math. Comp. 2017); a larger probable prime is never certified.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 318665857834031151167461
# psi_k, the least strong pseudoprime to the first k bases, for k = 1..12
# (as tabulated there): below psi_k those k bases already prove primality.
_MR_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
           341550071728321, 341550071728321, 3825123056546413051,
           3825123056546413051, 3825123056546413051, _MR_LIMIT)
# Pollard-Brent gives up (raising) past this cycle length, or after this many
# constants c that each closed a cycle with gcd = n.  A composite below 2^63
# with no table prime factor has a prime factor below 2^32, which the walk
# finds in about 2^16 steps.
_RHO_STEPS = 1 << 22
_RHO_CONSTANTS = 16
# Cells of one (values x moduli) block of _divisor_hits: bounds the scratch memory.
_CHUNK_CELLS = 1 << 16
# _divisor_hits carries residues mod m < 2^31 through 32-bit limbs in int64.
_MODULUS_LIMIT = 1 << 31
# 2^64 - 1, the top of uint64, where _divisor_hits tests divisibility mod 2^64.
_U64_MAX = (1 << 64) - 1
# project_group packs four residues mod q, then a tag bit, into int64: q^4 < 2^60.
_CODE_LIMIT = 1 << 15
# Coset labels multiply residues mod q in int64, so q^2 < 2^63.
_LABEL_LIMIT = 1 << 31

# Smallest prime at which each form has a local density: the fixed
# denominators 12 of the area and 60 of the product must be invertible.
FORM_PRIME_FLOOR = {Form.X: 3, Form.Y: 3, Form.Z: 3, Form.AREA: 5, Form.PRODUCT: 7}


def _sieve(n: int) -> np.ndarray:
    """Primality flags of 0..n, by the sieve of Eratosthenes."""
    s = np.ones(n + 1, dtype=bool)
    s[:2] = False
    s[4::2] = False
    for p in range(3, math.isqrt(n) + 1, 2):
        if s[p]:
            s[p * p :: 2 * p] = False
    return s


@lru_cache(maxsize=None)
def _prime_table() -> Tuple[np.ndarray, np.ndarray]:
    """(primality flags of 0..TABLE_LIMIT, the primes up to TABLE_LIMIT)."""
    flags = _sieve(TABLE_LIMIT)
    return flags, np.flatnonzero(flags)


def primes_upto(n: int) -> List[int]:
    """All primes p <= n, ascending."""
    if n > TABLE_LIMIT:
        return np.flatnonzero(_sieve(n)).tolist()
    primes = _prime_table()[1]
    return primes[: np.searchsorted(primes, n, side="right")].tolist()


def _limbs(values) -> np.ndarray:
    """The integers in values (an array, list or tuple of integers, or one
    integer, each read through operator.index) as the (k, n) int64
    limbs _divisor_hits reads: an int64 array as itself, (1, n) with no copy;
    other values as (1, n) int64 when all fit int64, else as the k 32-bit
    limbs of each |v|, most significant first, with k set by the largest."""
    if isinstance(values, np.ndarray):
        if values.dtype == np.int64:
            return values.reshape(1, -1)
        values = values.ravel().tolist()
    vals = list(map(operator.index, values if isinstance(values, (list, tuple)) else [values]))
    lo, hi = min(vals, default=0), max(vals, default=0)
    if -(1 << 63) <= lo and hi < 1 << 63:
        return np.array(vals, dtype=np.int64).reshape(1, -1)
    k = -(-max(hi, -lo).bit_length() // 32)
    raw = b"".join(abs(v).to_bytes(4 * k, "big") for v in vals)
    return np.ascontiguousarray(np.frombuffer(raw, dtype=">u4").reshape(-1, k).T, dtype=np.int64)


def _inverse_mod_2_64(odd: np.ndarray) -> np.ndarray:
    """The inverses mod 2^64 of odd uint64 values, by five Newton steps
    y -> y (2 - o y) from y = o: o^2 = 1 mod 8 makes y right to 3 low bits,
    and each step doubles them, to 96 >= 64."""
    inverse = odd
    for _ in range(5):
        inverse = inverse * (2 - odd * inverse)
    return inverse


def _divisor_hits(limbs: np.ndarray, moduli: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(value index, modulus index) of every pair where the modulus divides
    the value, ordered by value and then by modulus.

    limbs is a (k, n) int64 array from _limbs and moduli an int64 vector of
    moduli m >= 2, checked to lie below 2^31 when k > 1; a smaller modulus
    raises ValueError for every k.  The work runs on blocks of at most
    _CHUNK_CELLS (values x moduli) cells.

    Every limb but the last is folded into a residue in Horner form,
    r = limbs[0] % m and then r = ((r << 32) + limb) % m.  Since
    r <= m - 1 < 2^31 - 1 and a limb is at most 2^32 - 1, every
    intermediate, and x = (r << 32) + the last limb, is at most
    (2^31 - 1) 2^32 + 2^32 - 1 = 2^63 - 1, so nothing wraps; x is
    congruent to the value mod m.  For k = 1 there is no residue and
    x = |v|, read in uint64 so that |-2^63| = 2^63 is exact.

    The last step is a multiply and a compare in uint64, where numpy wraps
    mod 2^64.  Write m = 2^s o with o odd; then m | x iff x & (2^s - 1) = 0
    and o | x, and o | x iff x o^-1 mod 2^64 <= L = floor((2^64 - 1) / o).
    Proof: o is odd, so o^-1 exists mod 2^64 and x -> x o^-1 permutes
    Z/2^64.  The multiples of o in [0, 2^64) are o k for k = 0..L, and the
    permutation maps o k to k, so it maps them onto exactly [0, L]; every
    other x maps past L.  The inverses come from _inverse_mod_2_64, computed
    on each call's own moduli."""
    n, width = limbs.shape[1], len(moduli)
    if width and int(moduli.min()) < 2:
        raise ValueError(f"moduli must be at least 2, got {int(moduli.min())}")
    if not n or not width:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    if len(limbs) > 1 and int(moduli.max()) >= _MODULUS_LIMIT:
        raise ValueError(f"moduli of values past int64 must lie in [2, {_MODULUS_LIMIT})")
    u = moduli.astype(np.uint64)
    low = u & -u  # 2^s
    odd = u // low
    inverse, limit, mask = _inverse_mod_2_64(odd), np.uint64(_U64_MAX) // odd, low - 1
    even = bool(mask.any())
    rows, cols = max(1, _CHUNK_CELLS // width), min(width, _CHUNK_CELLS)
    hits = []
    for i in range(0, n, rows):
        block = limbs[:, i : i + rows, None]
        if len(block) == 1:
            x = np.abs(block[0]).view(np.uint64)
        for j in range(0, width, cols):
            cut = slice(j, j + cols)
            if len(block) > 1:
                m = moduli[cut]
                r = block[0] % m
                for t in range(1, len(block) - 1):
                    r = ((r << 32) + block[t]) % m
                x = ((r << 32) + block[-1]).view(np.uint64)
            hit = x * inverse[cut] <= limit[cut]
            if even:
                hit &= (x & mask[cut]) == 0
            vi, mj = np.divmod(np.flatnonzero(hit), hit.shape[1])
            hits.append((vi + i, mj + j) if i or j else (vi, mj))
    return hits[0] if len(hits) == 1 else tuple(map(np.concatenate, zip(*hits)))


def _strong_probable_prime(n: int) -> bool:
    """Miller-Rabin on n >= 2 with the first k of the bases 2..37, the
    fewest with n < psi_k, or all 12 from psi_11 on.  False proves n
    composite; True proves n prime when n < _MR_LIMIT."""
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _MR_BASES[: bisect.bisect_right(_MR_PSI, n) + 1]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _certified_prime(n: int) -> bool:
    """Primality of n >= 2 proven by Miller-Rabin; raises ArithmeticError on
    a probable prime at or above _MR_LIMIT, where the test proves nothing."""
    if not _strong_probable_prime(n):
        return False
    if n >= _MR_LIMIT:
        raise ArithmeticError(f"cannot certify {n} prime: Miller-Rabin with bases 2..37 "
                              f"is proven only below {_MR_LIMIT}")
    return True


def _pollard_brent(n: int) -> int:
    """A proper divisor of an odd composite n, by Brent's variant of Pollard's
    rho (BIT 1980): the walk y -> y^2 + c mod n, differences multiplied in
    batches before each gcd, and a step-by-step replay of a batch whose gcd
    is n.  A replay that still ends at n retries with the next constant c."""
    for c in range(1, _RHO_CONSTANTS + 1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if r > _RHO_STEPS:
                raise ArithmeticError(
                    f"Pollard-Brent found no factor of {n} within cycle length {_RHO_STEPS}")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"Pollard-Brent found no factor of {n} with {_RHO_CONSTANTS} constants")


def _factor_beyond_table(n: int) -> List[int]:
    """Sorted prime factors, with multiplicity, of n > 1 with no prime factor
    <= min(sqrt(n), TABLE_LIMIT), certified: the cofactor factor_array and
    factor_int leave after trial division by the table primes.  So n is
    prime below _TABLE_REACH, and so is each piece of a larger n below it.

    Unless Miller-Rabin proves n prime outright, Miller-Rabin tells primes
    from composites and Pollard-Brent splits the composites.  Every factor
    returned is proven prime by Miller-Rabin and their product is checked
    against n; a piece that cannot be proven prime or split raises
    ArithmeticError, so no answer is uncertified.  An n that breaks the
    contract, such as 6p, fails that certificate or gets its true factors,
    never a wrong list.
    """
    if n >= _TABLE_REACH and _certified_prime(n):
        return [n]
    primes, pieces = [], [n]
    while pieces:
        m = pieces.pop()
        if m < _TABLE_REACH or _certified_prime(m):
            primes.append(m)
        else:
            d = _pollard_brent(m)
            pieces += [d, m // d]
    primes.sort()
    if math.prod(primes) != n or not all(map(_certified_prime, set(primes))):
        raise ArithmeticError(f"factorization {primes} of {n} failed its certificate")
    return primes


def factor_array(values, sums_of_coprime_squares: bool = False) -> Tuple[np.ndarray, np.ndarray]:
    """The prime factors, with multiplicity, of the positive values below
    2^63 (integers, each read through operator.index) as two int64 arrays
    (index, prime), ordered by index and then by prime in one call to the
    sort kernel runs._order, which packs both into one uint64 word when
    they fit.

    The table primes p with p^2 <= the largest value are tried in rounds
    over blocks that double in length.  Each round tests only the live
    values against its block in one _divisor_hits call, then divides every
    hit out, powers included.  A value leaves the live set once its
    cofactor r is below p0^2, p0 the first prime of the next block: no prime
    below p0 divides r, so r is 1 or prime.  A value still live after the
    last block has had every table prime p <= min(sqrt(v), TABLE_LIMIT)
    divided out, so r is prime below _TABLE_REACH, and only a larger r is
    factored by _factor_beyond_table.

    sums_of_coprime_squares declares every value to be c^2 + d^2 with
    gcd(c, d) = 1, whose prime factors are 2 or 1 mod 4, so only those
    primes are tried.
    """
    limbs = _limbs(values)
    if len(limbs) > 1:
        raise ValueError("factor_array needs values below 2^63")
    rest = limbs[0].copy()
    if len(rest) and int(rest.min()) < 1:
        raise ValueError("factor_array needs positive values")
    primes = _prime_table()[1]
    primes = primes[: np.searchsorted(primes, math.isqrt(int(rest.max(initial=0))), side="right")]
    if sums_of_coprime_squares:
        primes = primes[(primes == 2) | (primes % 4 == 1)]
    hits = []  # (index, prime)
    live = np.arange(len(rest))
    start, width = 0, 32
    while start < len(primes):
        live = live[rest[live] >= primes[start] ** 2]
        if not len(live):
            break
        block = primes[start : start + width]
        rows, cols = _divisor_hits(rest[live].reshape(1, -1), block)
        i, p = live[rows], block[cols]
        while len(i):
            hits.append((i, p))
            np.floor_divide.at(rest, i, p)
            still = rest[i] % p == 0
            i, p = i[still], p[still]
        start, width = start + width, 2 * width
    cofactor = np.flatnonzero((rest > 1) & (rest < _TABLE_REACH))
    hits.append((cofactor, rest[cofactor]))
    for k in np.flatnonzero(rest >= _TABLE_REACH).tolist():
        ps = _factor_beyond_table(int(rest[k]))
        hits.append((np.full(len(ps), k), np.array(ps, dtype=np.int64)))
    keys = np.stack([np.concatenate(column) for column in zip(*hits)])  # (index, prime)
    index, prime = keys[:, _order(keys)]
    return index, prime


def factor_int(n: int) -> Tuple[int, ...]:
    """Sorted prime factors of n >= 1 with multiplicity: trial division by
    the table primes up to sqrt(n), then _factor_beyond_table."""
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    table = _prime_table()[1]
    table = table[: np.searchsorted(table, math.isqrt(n), side="right")]
    primes, rest = [], n
    for p in table[_divisor_hits(_limbs(n), table)[1]].tolist():
        while rest % p == 0:
            rest //= p
            primes.append(p)
    return tuple(primes + (_factor_beyond_table(rest) if rest > 1 else []))


def is_prime(n: int) -> bool:
    """Deterministic primality: a table lookup up to TABLE_LIMIT, beyond it
    Miller-Rabin (_certified_prime), proven below _MR_LIMIT.  Raises
    ArithmeticError for a probable prime it cannot certify (n >= _MR_LIMIT)."""
    n = operator.index(n)
    if n <= TABLE_LIMIT:
        return n >= 2 and bool(_prime_table()[0][n])
    return _certified_prime(n)


def require_odd_prime(p: int) -> None:
    """Raise ValueError unless p is an odd prime."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"need an odd prime, got {p}")


@lru_cache(maxsize=1024)
def prime_factors(q: int) -> Tuple[int, ...]:
    """Sorted prime factors of a squarefree q >= 1; raises ValueError otherwise."""
    if q < 1:
        raise ValueError(f"modulus must be positive, got {q}")
    primes = factor_int(q)
    if len(set(primes)) < len(primes):
        raise ValueError(f"modulus {q} is not squarefree")
    return primes


def is_squarefree(q: int) -> bool:
    try:
        prime_factors(q)
    except ValueError:
        return False
    return True


def sl2_order(q: int) -> int:
    """|SL(2,Z/qZ)| for squarefree q: prod p(p^2-1)."""
    out = 1
    for p in prime_factors(q):
        out *= p * (p * p - 1)
    return out


def _generator_set(gens) -> GeneratorSet:
    """gens itself when a GeneratorSet, else the GeneratorSet of the matrices
    it lists; no generators raise ValueError."""
    return gens if isinstance(gens, GeneratorSet) else GeneratorSet("unnamed", tuple(gens))


def _letter_residues(gens, q: int) -> np.ndarray:
    """The letters of gens (GeneratorSet.letters()) mod q, as (m, 2, 2) int64 residues."""
    entries = [h.entries() for h in _generator_set(gens).letters()]
    return np.array([[e % q for e in h] for h in entries], dtype=np.int64).reshape(-1, 2, 2)


def project_group(gens, q: int) -> np.ndarray:
    """The image of the generated subgroup in SL(2,Z/qZ) for squarefree q.

    Returns its elements as (a, b, c, d) rows of int64 residues in [0, q),
    sorted lexicographically, so len() is the order of the image.  gens is
    a GeneratorSet or a plain list of matrices (_generator_set).  The
    closure runs breadth-first over the images of its letters
    (GeneratorSet.letters()), carried as codes ((a q + b) q + c) q + d,
    which are below q^4 < 2^60 for q < 2^15.  The letters are symmetric, so
    a product of a layer-k element and a letter is in layer k - 1, in layer
    k, or new.
    """
    if q >= _CODE_LIMIT:
        raise ValueError(f"modulus {q} too large for packed residue codes (need q < {_CODE_LIMIT})")
    prime_factors(q)  # refuses a non-squarefree q
    letters = _letter_residues(gens, q)
    weights = np.array([q**3, q**2, q, 1], dtype=np.int64)
    prev = np.zeros(0, dtype=np.int64)
    cur = np.array([[1, 0, 0, 1]], dtype=np.int64) % q @ weights
    layers = [cur]
    while len(cur):
        frontier = (cur[:, None] // weights % q).reshape(-1, 1, 2, 2)
        cand = (frontier @ letters).reshape(-1, 4) % q @ weights
        keys = np.sort(np.concatenate((prev << 1, cur << 1, cand << 1 | 1)))
        prev, cur = cur, keys[_fresh(keys[None])] >> 1
        layers.append(cur)
    codes = np.sort(np.concatenate(layers))
    return (codes[:, None] // weights) % q


def strong_approx_check(gens, p: int) -> bool:
    """True iff the projection mod prime p is all of SL(2,Z/pZ); raises
    ArithmeticError when the projection fails its closure check."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _surjective(_generator_set(gens).gens, p)


@lru_cache(maxsize=None)
def _surjective(gens: Tuple[UnimodularMatrix, ...], p: int) -> bool:
    """strong_approx_check for a prime p, cached per (generators, p): a
    matrix hashes and compares by its entries, so the label plays no part."""
    rows = project_group(gens, p)
    if not _image_is_closed(rows, gens, p):
        raise ArithmeticError(f"projection mod {p} is not a closed set of SL(2) residues")
    return len(rows) == p * (p * p - 1)


def _image_is_closed(rows: np.ndarray, gens, q: int) -> bool:
    """Check a projection without its closure loop: rows holds I, is sorted
    and distinct, has entries in [0, q) and determinant 1 mod q, and is
    closed under right multiplication by every letter of gens."""
    weights = np.array([q**3, q**2, q, 1], dtype=np.int64)
    codes = rows @ weights
    a, b, c, d = rows.T
    if not (((rows >= 0) & (rows < q)).all() and (np.diff(codes) > 0).all()
            and ((a * d - b * c) % q == 1 % q).all()
            and (codes == np.array([1, 0, 0, 1]) % q @ weights).any()):
        return False
    for h in _letter_residues(gens, q):
        wanted = (rows.reshape(-1, 2, 2) @ h).reshape(-1, 4) % q @ weights
        at = np.minimum(np.searchsorted(codes, wanted), len(codes) - 1)
        if (codes[at] != wanted).any():
            return False
    return True


def bad_modulus_probe(gens, p_max: int) -> List[int]:
    """Primes <= p_max where the projection is not surjective; 2 is always listed."""
    bad = []
    if p_max >= 2:
        bad.append(2)
    for p in primes_upto(p_max)[1:]:
        if not strong_approx_check(gens, p):
            bad.append(p)
    return bad


def _label_primes(q: int) -> Tuple[int, ...]:
    """prime_factors(q) for a modulus whose residue products fit int64."""
    if q >= _LABEL_LIMIT:
        raise ValueError(f"modulus {q} too large for int64 coset labels (need q < {_LABEL_LIMIT})")
    return prime_factors(q)


def _integers(values) -> np.ndarray:
    """values, integers or arrays or lists of them, as an integer array (of
    Python ints past numpy's dtypes); non-integers raise TypeError."""
    a = np.asarray(values)
    return a if a.dtype.kind in "iu" else np.vectorize(operator.index, otypes=[object])(a)


def _projective_class(p: int, c, d) -> np.ndarray:
    """The point of P^1(F_p) of each integer row (c, d) as int64: d c^-1 mod p
    where p does not divide c, p at (0 : 1) and p + 1 where the row vanishes.
    c^-1 is c^(p-2) by square-and-multiply on residues, each product below p^2."""
    c, d = (np.asarray(x % p, dtype=np.int64) for x in (c, d))
    inverse = np.ones_like(c)
    for bit in bin(p - 2)[2:]:
        inverse = inverse * inverse % p * (c if bit == "1" else 1) % p
    return np.where(c != 0, d * inverse % p, np.where(d != 0, p, p + 1))


def _row_classes(primes, c, d) -> List[np.ndarray]:
    """The _projective_class of the integer rows at each of primes; ValueError
    names the first row that vanishes, at the first prime where one does."""
    classes = []
    for p in primes:
        classes.append(_projective_class(p, c, d))
        vanish = np.flatnonzero(classes[-1] > p)
        if len(vanish):
            raise ValueError(f"row {(int(c[vanish[0]]), int(d[vanish[0]]))} vanishes mod {p}")
    return classes


def _glue(primes, classes) -> Tuple[np.ndarray, np.ndarray]:
    """CRT glue: the labels (lc, ld) mod q = prod(primes) from a class x <= p
    at each prime, (0, 1) mod p at x = p, else (1, x); products stay below q^2."""
    lc, ld, mod = 0, 0, 1
    for p, x in zip(primes, classes):
        inverse = pow(mod, -1, p)
        lc = lc + mod * ((np.where(x == p, 0, 1) - lc) * inverse % p)
        ld = ld + mod * ((np.where(x == p, 1, x) - ld) * inverse % p)
        mod *= p
    return lc, ld


def coset_labels(q: int, c, d) -> Tuple[np.ndarray, np.ndarray]:
    """Coset labels (lc, ld) of the bottom rows (c, d), read as integers
    (TypeError otherwise), as int64 arrays: the _glue of their classes, and
    (0, 1) at q = 1.  A row vanishing mod some p | q raises ValueError.
    """
    primes = _label_primes(q)
    c, d = _integers(c), _integers(d)
    if q == 1:
        return np.zeros(c.shape, dtype=np.int64), np.ones(d.shape, dtype=np.int64)
    return _glue(primes, _row_classes(primes, c, d))


@dataclass(frozen=True)
class CosetTable:
    """Representatives (as bottom rows mod q) of the row-stabilizer cosets."""

    q: int
    reps: Tuple[Tuple[int, int], ...]
    index: int


@lru_cache(maxsize=None)
def coset_table(q: int) -> CosetTable:
    """Row-stabilizer coset representatives for squarefree q.

    For a prime p the representatives are (0,1) and (1,d) for d mod p, in
    that order; for composite squarefree q every CRT combination of
    per-prime representatives, the first prime most significant, giving
    index eta(q) = prod (p+1).  reps holds Python ints.
    """
    primes = _label_primes(q)
    if q == 1:
        return CosetTable(1, ((0, 1),), 1)
    # per prime, representative j is the class (j - 1) mod (p + 1): p, 0, 1, ..., p - 1
    js = np.indices([p + 1 for p in primes]).reshape(len(primes), -1)
    c, d = _glue(primes, [(j - 1) % (p + 1) for p, j in zip(primes, js)])
    rows = tuple(zip(c.tolist(), d.tolist()))
    index = math.prod(p + 1 for p in primes)
    if len(rows) != index or len(set(rows)) != index:
        raise ArithmeticError(f"coset representatives mod {q} are not {index} distinct rows")
    return CosetTable(q, rows, index)


def coset_positions(q: int, c, d) -> np.ndarray:
    """The place in coset_table(q).reps of the coset of each integer row
    (c, d), the inverse of the order coset_table fixes: the mixed-radix
    number of its classes x + 1 mod p + 1, the first prime most significant.
    A row vanishing mod some p | q raises ValueError."""
    primes = _label_primes(q)
    position = np.zeros(np.shape(c), dtype=np.int64)
    for p, x in zip(primes, _row_classes(primes, c, d)):
        position = position * (p + 1) + (x + 1) % (p + 1)
    return position


def eta(q: int) -> int:
    """Coset index prod_{p|q}(p+1) for squarefree q."""
    return math.prod(p + 1 for p in prime_factors(q))


@dataclass(frozen=True)
class DensityReport:
    form: Form
    p: int
    measured: Fraction
    predicted: Fraction
    match: bool


def predicted_density(f: Form, p: int) -> Fraction:
    """Fraction of cosets on which the form vanishes mod p, by the density table.

    z vanishes on 2 of the p+1 cosets when -1 is a square mod p and never
    otherwise; x and y always on 2.  The quartic and sextic forms vanish where
    any constituent coordinate does, and the constituent loci are disjoint on
    cosets, so their densities are sums.
    """
    require_odd_prime(p)
    if f in (Form.X, Form.Y):
        return Fraction(2, p + 1)
    if f is Form.Z:
        return Fraction(2, p + 1) if p % 4 == 1 else Fraction(0)
    if f is Form.AREA:
        if p < FORM_PRIME_FLOOR[f]:
            raise ValueError("density of the quartic form needs p coprime to 12")
        return Fraction(4, p + 1)
    if f is Form.PRODUCT:
        if p < FORM_PRIME_FLOOR[f]:
            raise ValueError("density of the sextic form needs p coprime to 60")
        return Fraction(6 if p % 4 == 1 else 4, p + 1)
    raise ValueError(f"unknown form {f!r}")


def local_density(f: Form, p: int) -> DensityReport:
    """Measured vanishing density over the p+1 coset representatives vs prediction.

    The form value mod p depends only on the row mod p because the fixed
    denominators (1, 12, 60) are invertible for admissible p.
    """
    predicted = predicted_density(f, p)  # validates p as well
    table = coset_table(p)
    c, d = np.array(table.reps, dtype=np.int64).T
    count = int((form_values(f, c, d) % p == 0).sum())
    measured = Fraction(count, table.index)
    return DensityReport(f, p, measured, predicted, measured == predicted)


def beta(f: Form, q: int) -> Fraction:
    """Multiplicative density over squarefree q: prod of predicted_density(f, p)."""
    out = Fraction(1)
    for p in prime_factors(q):
        out *= predicted_density(f, p)
    return out
