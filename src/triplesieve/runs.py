"""The sort and run kernels: one ordering rule and one run rule for the package.

Every ordering of positions by key rows, in groups, census, charsums and
modular.factor_array, comes from one sort kernel, _order: the order of a
lexsort, or of an argsort of one row, read from one np.sort of uint64 words
when the rows' spans and the positions fit 64 bits together and the keys are
not too few, else numpy's own.  Every group-by runs on one kernel, _heads: a
run head is the first sorted key or one unequal to its predecessor.  Its
readers are _distinct (one np.sort of the values), _runs (on _order),
_run_sums (exact totals by key through the one segment sum _segment_sums,
whose one-segment case is _exact_total) and _fresh, the dedup of both
breadth-first closures: the norm-ball search of groups and
modular.project_group.

This module imports nothing from the package, so every module that reads a
kernel imports it at the top.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

# The fewest keys at which one packed np.sort beats numpy's lexsort, and its
# argsort of one row (numpy 2.4, AVX-512): the packing costs about 20-30 us.
_PACKED_FLOOR, _PACKED_FLOOR_PLAIN = 512, 4096


def _order(keys: np.ndarray) -> np.ndarray:
    """Positions sorted by the integer or object keys (rows, most
    significant first), for several rows in position order within ties:
    the order of a lexsort.

    From _PACKED_FLOOR keys (_PACKED_FLOOR_PLAIN for one row), when the
    rows' spans max - min and the positions fit 64 bits together, each row
    less its minimum, then the position, go into one uint64 word, highest
    first, and one np.sort of the words gives the lexsort order: the fields
    are disjoint and the position breaks every tie.  The width test comes
    before the subtraction, so no field wraps.  Otherwise it is numpy's
    lexsort, or argsort of one row, stable (the faster) on object keys."""
    n = keys.shape[1]
    if keys.dtype.kind in "iu" and n >= (_PACKED_FLOOR if len(keys) > 1 else _PACKED_FLOOR_PLAIN):
        lo = keys.min(axis=1)
        widths = [(h - l).bit_length() for l, h in zip(lo.tolist(), keys.max(axis=1).tolist())]
        shift = index_bits = (n - 1).bit_length()
        if sum(widths) + index_bits <= 64:
            words = np.arange(n, dtype=np.uint64)
            for row, low, width in zip(keys[::-1], lo[::-1], widths[::-1]):
                field = np.subtract(row, low, dtype=np.uint64, casting="unsafe")
                field <<= np.uint64(shift)
                words |= field
                shift += width
            words.sort()
            words &= np.uint64((1 << index_bits) - 1)
            return words.view(np.intp)
    kind = "stable" if keys.dtype == object else None
    return np.argsort(keys[0], kind=kind) if len(keys) == 1 else np.lexsort(keys[::-1])


def _heads(keys: np.ndarray) -> np.ndarray:
    """The run heads of sorted keys (one array, or rows of words, 2-D or a
    list): True at the first key and at each key unequal to its predecessor."""
    rows = np.atleast_2d(keys) if isinstance(keys, np.ndarray) else keys
    head = np.zeros(len(rows[0]), dtype=bool)
    head[:1] = True
    for k in rows:
        head[1:] |= k[1:] != k[:-1]
    return head


def _fresh(keys: np.ndarray) -> np.ndarray:
    """True at the new candidates among sorted keys (rows of words) whose
    lowest bit is 1 on candidates and 0 on old keys: the tagged keys that
    head their runs (_heads) once the tag is shifted out."""
    return (keys[-1] & 1).astype(bool) & _heads([*keys[:-1], keys[-1] >> 1])


def _runs(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(order, head, inverse): positions sorted by keys (_order), the run heads
    along them (any position of each key) and each position's run."""
    order = _order(keys)
    head = _heads(keys[:, order])
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(head) - 1
    return order, head, inverse


def _distinct(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(distinct values, ascending, and their counts) from one np.sort."""
    values = np.sort(values)
    starts = np.flatnonzero(_heads(values))
    return values[starts], np.diff(starts, append=len(values))


def _segment_sums(weights: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Exact totals of the segments of weights that begin at starts, by
    np.add.reduceat: object weights as Python ints, int64 weights as
    their 31-bit halves w >> 31, in [-2^32, 2^32), and w & (2^31 - 1), in
    [0, 2^31): for fewer than 2^31 weights no partial sum of either half can
    wrap (longer arrays are summed as Python ints).  The totals hi 2^31 + lo
    are joined in int64 when every high sum lies in (-2^31, 2^31), since then
    |hi 2^31| < 2^62 and 0 <= lo < 2^62, and as Python ints otherwise."""
    if weights.dtype == object or len(weights) >= 1 << 31:
        return np.add.reduceat(weights.astype(object, copy=False), starts)
    hi = np.add.reduceat(weights >> 31, starts)
    if len(hi) and max(-int(hi.min()), int(hi.max())) >= 1 << 31:
        hi = hi.astype(object)
    return (hi << 31) + np.add.reduceat(weights & ((1 << 31) - 1), starts)


def _run_sums(keys: np.ndarray, weights: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(distinct keys, ascending, and each key's exact total weight) over the runs of one _order."""
    order = _order(keys[None])
    keys, weights = keys[order], weights[order]
    starts = np.flatnonzero(_heads(keys))
    return keys[starts], _segment_sums(weights, starts)


def _exact_total(weights: np.ndarray) -> int:
    """The exact total of an int64 or object array: _segment_sums as one segment."""
    return int(_segment_sums(weights, np.zeros(1, dtype=np.intp))[0]) if len(weights) else 0
