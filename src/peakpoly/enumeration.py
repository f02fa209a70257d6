"""Generators and exact counters for descent classes and peak classes.

The generators use descent- or peak-pruned backtracking: a partial
one-line prefix is abandoned as soon as a decided position contradicts
the requested pattern. Placing the value at position j decides the
descent at position j-1 and the peak status of position j-1 (the latter
needs the value at j-2 as well), so every yielded permutation is built
without ever scanning the full factorial search space.

Counts never enumerate. They run one forward transfer matrix over the
rank of the last entry among the entries placed so far and the direction
of the last step (after Niven 1968; de Bruijn 1970). A run to length N
costs N(N+1)/2 big-integer additions for any pattern and yields the class
size at every length up to N: counts, listing step counts and polynomial
coefficients each read one run. Counts are exact Python ints at any size.
"""
from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator

from .core import (
    MAX_STEPS,
    Perm,
    Positions,
    Record,
    check_cost,
    is_admissible,
    position_set,
)


def _positions_below(positions: Iterable[int], n: int, kind: str) -> Positions:
    """The normalized ``positions``, once n is positive and above them all."""
    positions = position_set(positions)
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if positions and positions[-1] >= n:
        raise ValueError(f"{kind} position {positions[-1]} needs n > {positions[-1]}, got n={n}")
    return positions


class DescentClassQuery(Record):
    """All permutations of n whose descent set is exactly ``descents``."""

    __slots__ = ("descents", "n")
    _on_peaks = False

    def __init__(self, descents: Iterable[int], n: int):
        self._set(_positions_below(descents, n, "descent"), n)

    @property
    def positions(self) -> Positions:
        """The positions the class fixes exactly: its descents."""
        return self.descents

    def _allows(self, prefix: Perm, v: int) -> bool:
        """Whether appending ``v`` to ``prefix`` keeps the descent it decides,
        at j = len(prefix), right."""
        j = len(prefix)
        return j < 1 or (prefix[-1] > v) == (j in self.descents)


class PeakClassQuery(Record):
    """All permutations of n whose peak set is exactly ``peaks``."""

    __slots__ = ("peaks", "n")
    _on_peaks = True

    def __init__(self, peaks: Iterable[int], n: int):
        self._set(_positions_below(peaks, n, "peak"), n)

    @property
    def positions(self) -> Positions:
        """The positions the class fixes exactly: its peaks."""
        return self.peaks

    def _allows(self, prefix: Perm, v: int) -> bool:
        """Whether appending ``v`` to ``prefix`` keeps the peak status it
        decides, at j = len(prefix), right; position 1 is never a peak."""
        j = len(prefix)
        return j < 1 or (j > 1 and prefix[-2] < prefix[-1] > v) == (j in self.peaks)


Query = DescentClassQuery | PeakClassQuery


# ---------------------------------------------------------------------------
# Pruned backtracking
# ---------------------------------------------------------------------------

def _arrangements(query: Query, prefix: Perm, remaining: tuple[int, ...]) -> Iterator[Perm]:
    """Extensions of ``prefix`` by all of ``remaining`` that ``query`` allows.

    Values are tried in increasing order, so the outputs appear in
    lexicographic one-line order.
    """
    if not remaining:
        yield prefix
        return
    for idx, v in enumerate(remaining):
        if query._allows(prefix, v):
            yield from _arrangements(
                query, prefix + (v,), remaining[:idx] + remaining[idx + 1:])


# ---------------------------------------------------------------------------
# The counting engine
# ---------------------------------------------------------------------------

def _plus(xs: list[int], ys: list[int]) -> list[int]:
    """Entrywise xs + ys, passing a zero side through: adding 0 copies a big integer."""
    if not any(ys):
        return xs
    if not any(xs):
        return ys
    return [a + b for a, b in zip(xs, ys)]


def _sizes(positions: Positions, peaks: bool, lengths: range,
           prefix: Perm = (1,)) -> Iterator[int]:
    """The class sizes at ``lengths``, from len(prefix) on, of one engine
    run: how many permutations of each length start in the relative order
    of ``prefix`` and have exactly ``positions`` as their peaks (if
    ``peaks``) or descents below that length.

    The state after k entries is the rank r of the last entry among them,
    split by whether the last step rose; the next entry, of rank r' in
    0..k, rises exactly when r' > r. Prefix sums make each step linear, so
    length n fills n(n+1)/2 cells. Step k's sums end in the class size at
    k, but at a peak they sum only the rises, and the falls are added."""
    d = len(prefix)
    rose, fell = [0] * d, [0] * d
    (rose if d > 1 and prefix[-2] < prefix[-1] else fell)[prefix[-1] - 1] = 1
    for k in range(d, lengths.stop):
        # Placing entry k+1 decides position k.
        if k in positions:
            size = sum(fell) if peaks and k in lengths else 0
            falls = rose if peaks else _plus(rose, fell)
            rose, fell = [0] * (k + 1), [0, *itertools.accumulate(reversed(falls))][::-1]
            size += fell[0]
        else:
            rose = [0, *itertools.accumulate(_plus(rose, fell))]
            fell = ([0, *itertools.accumulate(reversed(fell))][::-1] if peaks
                    else [0] * (k + 1))
            size = rose[-1]
        if k in lengths:
            yield size


# ---------------------------------------------------------------------------
# Streams
# ---------------------------------------------------------------------------

def _listing_steps(query: Query, n: int) -> float:
    """The prefixes that ``_arrangements`` visits on n values, math.inf once
    past MAX_STEPS: a k-prefix decides the positions below k, so C(n,k)
    value sets times one run's size at k."""
    steps = 1  # the empty prefix
    for k, size in enumerate(_sizes(query.positions, query._on_peaks, range(1, n + 1)), 1):
        steps += math.comb(n, k) * size
        if steps > MAX_STEPS:
            return math.inf
    return steps


def enumerate_descent_class(q: DescentClassQuery) -> Iterator[Perm]:
    """Yield the permutations with descent set exactly ``q.descents``, in lex order."""
    check_cost(_listing_steps(q, q.n), f"listing D({list(q.descents)},{q.n})")
    return _arrangements(q, (), tuple(range(1, q.n + 1)))


def enumerate_peak_class(q: PeakClassQuery) -> Iterator[Perm]:
    """Yield the permutations with peak set exactly ``q.peaks``, in lex order.

    A non-admissible peak set (position 1 or consecutive positions)
    yields nothing: no permutation realizes it.
    """
    if not is_admissible(q.peaks):
        return iter(())
    check_cost(_listing_steps(q, q.n), f"listing P({list(q.peaks)},{q.n})")
    return _arrangements(q, (), tuple(range(1, q.n + 1)))


# ---------------------------------------------------------------------------
# Exact counts
# ---------------------------------------------------------------------------

def count_descent_class(s: Iterable[int], n: int) -> int:
    """|D(S,n)| at length n of one forward engine run; exact for any n.

    Costs n(n+1)/2 engine cells of big-integer additions whatever the
    size of S; CapExceeded when they pass MAX_STEPS.
    """
    q = DescentClassQuery(s, n)
    check_cost(q.n * (q.n + 1) // 2, f"counting D({list(q.descents)},{q.n})")
    return next(_sizes(q.positions, q._on_peaks, range(q.n, q.n + 1)))


def scale_peak_count(size: int, i: Positions, n: int) -> int:
    """p(I,n) from the peak class size |P(I,n)|, dividing by 2^(n-|I|-1).

    A quotient that is not an integer signals a bug, not bad input,
    hence ArithmeticError.
    """
    value, rem = divmod(size, 1 << (n - len(i) - 1))
    if rem:
        raise ArithmeticError(
            f"|P({list(i)},{n})| = {size} is not divisible by 2^{n - len(i) - 1}"
        )
    return value


def count_peak_class(i: Iterable[int], n: int) -> int:
    """|P(I,n)| at length n of one forward engine run; exact for any n.

    Costs n(n+1)/2 engine cells; CapExceeded when they pass MAX_STEPS.
    A non-admissible I gives 0: no permutation realizes it.
    """
    q = PeakClassQuery(i, n)
    check_cost(q.n * (q.n + 1) // 2, f"counting P({list(q.peaks)},{q.n})")
    return next(_sizes(q.positions, q._on_peaks, range(q.n, q.n + 1)))


def peak_poly_value(i: Iterable[int], n: int) -> int:
    """p(I,n): the peak class size scaled down by 2^(n-|I|-1), exactly.

    Exact for any n. Non-admissible I gives 0.
    """
    i = position_set(i)
    return scale_peak_count(count_peak_class(i, n), i, n)


def parallel_count(query: Query, partition_depth: int = 0) -> int:
    """Exact class size as a sum of independent per-prefix counts.

    Every pattern-consistent relative order of the first
    ``partition_depth`` entries (a permutation of 1..depth) is listed,
    and each seeds its own engine run to length n, whose n(n+1)/2 cells
    bound its cost. The result does not depend on the depth, which
    makes it a check of the engine.
    """
    if not isinstance(query, (DescentClassQuery, PeakClassQuery)):
        raise TypeError(f"unsupported query type: {type(query).__name__}")
    n = query.n
    if not 0 <= partition_depth <= n:
        raise ValueError(f"partition depth must be in 0..{n}, got {partition_depth}")
    if query._on_peaks and not is_admissible(query.peaks):
        return 0
    depth = max(partition_depth, 1)  # the empty prefix runs from the one of length 1
    check_cost(_listing_steps(query, depth) * (n * (n + 1) // 2),
               f"counting {'P' if query._on_peaks else 'D'}({list(query.positions)},{n})"
               f" by prefixes of length {partition_depth}")
    prefixes = _arrangements(query, (), tuple(range(1, depth + 1)))
    return sum(next(_sizes(query.positions, query._on_peaks, range(n, n + 1), prefix))
               for prefix in prefixes)
