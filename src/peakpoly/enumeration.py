"""Generators and exact counters for descent classes and peak classes.

Both read one forward transfer matrix over the rank of the last entry
among the entries placed so far and the direction of the last step
(after Niven 1968; de Bruijn 1970). A run to length N fills N(N+1)/2
big-integer cells and keeps its state at each length, whose sum is the
exact class size there. A listing walks one run on the reversed pattern
and enters only prefixes with a completion: the engine's step is the
one pattern rule.
"""
from __future__ import annotations

import bisect
import itertools
import math
from typing import Collection, Iterable, Iterator

from .core import (
    MAX_STEPS,
    Perm,
    Positions,
    Record,
    _set_str,
    check_cost,
    is_admissible,
    position_set,
)


class _ClassQuery(Record):
    """All permutations of n whose descent (peak, if ``_on_peaks``) set is the first field."""

    __slots__ = ()

    def __init__(self, positions: Iterable[int], n: int):
        positions = position_set(positions)
        if n < 1:
            raise ValueError(f"n must be positive, got {n}")
        if positions and positions[-1] >= n:
            raise ValueError(f"{'peak' if self._on_peaks else 'descent'} position "
                             f"{positions[-1]} needs n > {positions[-1]}, got n={n}")
        self._set(positions, n)

    @property
    def positions(self) -> Positions:
        """The positions the class fixes exactly: its descents or its peaks."""
        return self._fields()[0]


class DescentClassQuery(_ClassQuery):
    """All permutations of n whose descent set is exactly ``descents``."""

    __slots__ = ("descents", "n")
    _on_peaks = False


class PeakClassQuery(_ClassQuery):
    """All permutations of n whose peak set is exactly ``peaks``."""

    __slots__ = ("peaks", "n")
    _on_peaks = True


def _name(query: _ClassQuery) -> str:
    return f"{'P' if query._on_peaks else 'D'}({_set_str(query.positions)},{query.n})"


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

def _plus(xs: list[int], ys: list[int]) -> list[int]:
    """Entrywise xs + ys, passing a zero side through: adding 0 copies a big integer."""
    if not any(ys):
        return xs
    if not any(xs):
        return ys
    return [a + b for a, b in zip(xs, ys)]


def _layers(positions: Collection[int], peaks: bool, n: int,
            prefix: Perm = (1,)) -> Iterator[tuple[list[int], list[int]]]:
    """The engine's state at each length from len(prefix) to n: how many
    permutations of that length start in the relative order of ``prefix``,
    have exactly ``positions`` below that length as their peaks (if
    ``peaks``) or descents, and end in each rank r, as (rose, fell) by the
    last step. After k entries the next, of rank r' in 0..k, rises iff
    r' > r and decides position k. Prefix sums make each step linear, so
    length n fills n(n+1)/2 cells."""
    d = len(prefix)
    rose, fell = [0] * d, [0] * d
    (rose if d > 1 and prefix[-2] < prefix[-1] else fell)[prefix[-1] - 1] = 1
    yield rose, fell
    for k in range(d, n):
        if k in positions:  # a fall, and for a peak only after a rise
            falls = rose if peaks else _plus(rose, fell)
            rose, fell = [0] * (k + 1), [0, *itertools.accumulate(reversed(falls))][::-1]
        else:  # a rise after either step, and for peaks a fall after a fall
            rose = [0, *itertools.accumulate(_plus(rose, fell))]
            fell = ([0, *itertools.accumulate(reversed(fell))][::-1] if peaks
                    else [0] * (k + 1))
        yield rose, fell


def _sizes(positions: Positions, peaks: bool, lengths: range,
           prefix: Perm = (1,)) -> Iterator[int]:
    """The class sizes at ``lengths``, from len(prefix) on: the sums of one
    ``_layers`` run's states there."""
    for k, (rose, fell) in enumerate(_layers(positions, peaks, lengths.stop - 1, prefix),
                                     len(prefix)):
        if k in lengths:
            yield sum(rose) + sum(fell)


# ---------------------------------------------------------------------------
# Listing
# ---------------------------------------------------------------------------

def _listing_price(query: _ClassQuery) -> tuple[float, int]:
    """The steps of listing ``query``'s class, and its size: the cells of two
    engine runs to n, this one and ``_walk``'s, plus the prefixes the walk
    enters, at depth k at most the class size and at most C(n,k) value sets
    times the class cut at length k. With more than MAX_STEPS cells, math.inf."""
    n = query.n
    if n * (n + 1) > MAX_STEPS:
        return math.inf, 0
    sizes = list(_sizes(query.positions, query._on_peaks, range(1, n + 1)))
    return n * (n + 1) + sum(min(sizes[-1], math.comb(n, k) * size)
                             for k, size in enumerate(sizes, 1)), sizes[-1]


def _children(live: list, rank: int, ok: tuple[bool, bool]) -> list:
    """The entries that may follow one of ``rank`` reached as ``ok`` allows
    (by a rise, by a fall), in increasing rank, each with its own ``ok``."""
    (rises, ok_rise), (falls, ok_fall) = live
    return ([(r, ok_rise) for r in rises[:bisect.bisect_left(rises, rank)]] if ok[0] else []) \
        + ([(r, ok_fall) for r in falls[bisect.bisect_left(falls, rank):]] if ok[1] else [])


def _walk(query: _ClassQuery) -> Iterator[Perm]:
    """The members of ``query``'s class in lex order, walking one ``_layers``
    run on the reversed pattern down from length n with an explicit stack.

    Reversed, a member rises at n-j for a descent at j and peaks at n+1-i
    for a peak at i, so after k entries the state at length n-k+1 counts
    completions by the rank of entry k among itself and the unused values.
    Ranks go up, which is lex order. A child is entered only where the
    engine's step feeds the parent's state from a nonzero count."""
    n, peaks = query.n, query._on_peaks
    back = ({n + 1 - i for i in query.positions} if peaks
            else {j for j in range(1, n) if n - j not in query.positions})
    lives = [[([], None), ([], None)]]  # nothing follows a member
    for length, (rose, fell) in enumerate(_layers(back, peaks, n), 1):
        # The state's allowed (rose, fell) as the step to length+1 rises or falls:
        # a descent fixes that step, and a rise then a fall is a peak.
        oks = (((False, False), (True, not peaks)) if length in back
               else ((True, True), (False, peaks)))
        lives.append([([r for r in range(length) if ok[0] and rose[r] or ok[1] and fell[r]], ok)
                      for ok in oks])
    unused, prefix = list(range(1, n + 1)), []
    stack = [iter(_children(lives[n], n, (True, False)))]  # every first entry
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
            if prefix:
                bisect.insort(unused, prefix.pop())
        else:
            prefix.append(unused.pop(node[0]))
            if len(prefix) == n:
                yield tuple(prefix)
            stack.append(iter(_children(lives[n - len(prefix)], *node)))


def enumerate_descent_class(q: DescentClassQuery) -> Iterator[Perm]:
    """Yield the permutations with descent set exactly ``q.descents``, in lex order."""
    check_cost(_listing_price(q)[0], f"listing {_name(q)}")
    return _walk(q)


def enumerate_peak_class(q: PeakClassQuery) -> Iterator[Perm]:
    """Yield the permutations with peak set exactly ``q.peaks``, in lex order.

    A non-admissible peak set (position 1 or consecutive positions)
    yields nothing: no permutation realizes it.
    """
    if not is_admissible(q.peaks):
        return iter(())
    check_cost(_listing_price(q)[0], f"listing {_name(q)}")
    return _walk(q)


# ---------------------------------------------------------------------------
# Exact counts
# ---------------------------------------------------------------------------

def count_descent_class(s: Iterable[int], n: int) -> int:
    """|D(S,n)| at length n of one forward engine run; exact for any n.

    Costs n(n+1)/2 engine cells of big-integer additions whatever the
    size of S; CapExceeded when they pass MAX_STEPS.
    """
    q = DescentClassQuery(s, n)
    check_cost(q.n * (q.n + 1) // 2, f"counting {_name(q)}")
    return next(_sizes(q.positions, q._on_peaks, range(q.n, q.n + 1)))


def scale_peak_count(size: int, i: Positions, n: int) -> int:
    """p(I,n) from the peak class size |P(I,n)|, dividing by 2^(n-|I|-1).

    A quotient that is not an integer signals a bug, not bad input,
    hence ArithmeticError.
    """
    value, rem = divmod(size, 1 << (n - len(i) - 1))
    if rem:
        raise ArithmeticError(
            f"|P({_set_str(i)},{n})| = {size} is not divisible by 2^{n - len(i) - 1}"
        )
    return value


def count_peak_class(i: Iterable[int], n: int) -> int:
    """|P(I,n)| at length n of one forward engine run; exact for any n.

    Costs n(n+1)/2 engine cells; CapExceeded when they pass MAX_STEPS.
    A non-admissible I gives 0: no permutation realizes it.
    """
    q = PeakClassQuery(i, n)
    check_cost(q.n * (q.n + 1) // 2, f"counting {_name(q)}")
    return next(_sizes(q.positions, q._on_peaks, range(q.n, q.n + 1)))


def peak_poly_value(i: Iterable[int], n: int) -> int:
    """p(I,n): the peak class size scaled down by 2^(n-|I|-1), exactly.

    Exact for any n. Non-admissible I gives 0.
    """
    i = position_set(i)
    return scale_peak_count(count_peak_class(i, n), i, n)


def parallel_count(query: _ClassQuery, partition_depth: int = 0) -> int:
    """Exact class size as a sum of independent per-prefix counts.

    The members of the class cut at length ``partition_depth``, the
    pattern-consistent relative orders of the first entries, are listed,
    and each seeds its own engine run to length n, whose n(n+1)/2 cells
    bound its cost. The result does not depend on the depth, which
    makes it a check of the engine.
    """
    if not isinstance(query, _ClassQuery):
        raise TypeError(f"unsupported query type: {type(query).__name__}")
    n = query.n
    if not 0 <= partition_depth <= n:
        raise ValueError(f"partition depth must be in 0..{n}, got {partition_depth}")
    if query._on_peaks and not is_admissible(query.peaks):
        return 0
    depth = max(partition_depth, 1)  # the empty prefix runs from the one of length 1
    cut = type(query)([p for p in query.positions if p < depth], depth)
    steps, size = _listing_price(cut)
    check_cost(steps + size * (n * (n + 1) // 2),
               f"counting {_name(query)} by prefixes of length {partition_depth}")
    return sum(next(_sizes(query.positions, query._on_peaks, range(n, n + 1), prefix))
               for prefix in _walk(cut))
