"""Generators and exact counters for descent classes and peak classes.

The generators use descent- or peak-pruned backtracking: a partial
one-line prefix is abandoned as soon as a decided position contradicts
the requested pattern. Placing the value at position j decides the
descent at position j-1 and the peak status of position j-1 (the latter
needs the value at j-2 as well), so every yielded permutation is built
without ever scanning the full factorial search space.

Counts never enumerate. They run a transfer matrix over the rank of the
last entry among the values still unused, the classical count of
permutations by up-down signature (Niven 1968; de Bruijn 1970), at a
cost of O(n^2) big-integer additions for any pattern. Counts are plain
Python ints, hence exact at any size.
"""
from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Iterable, Iterator

from .core import (
    MAX_STEPS,
    Perm,
    Positions,
    check_cost,
    is_admissible,
    position_set,
)


@dataclasses.dataclass(frozen=True)
class DescentClassQuery:
    """All permutations of n whose descent set is exactly ``descents``."""

    descents: Positions
    n: int

    def __post_init__(self):
        object.__setattr__(self, "descents", position_set(self.descents))
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if self.descents and self.descents[-1] >= self.n:
            raise ValueError(
                f"descent position {self.descents[-1]} needs n > {self.descents[-1]}, got n={self.n}"
            )


@dataclasses.dataclass(frozen=True)
class PeakClassQuery:
    """All permutations of n whose peak set is exactly ``peaks``."""

    peaks: Positions
    n: int

    def __post_init__(self):
        object.__setattr__(self, "peaks", position_set(self.peaks))
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if self.peaks and self.peaks[-1] >= self.n:
            raise ValueError(
                f"peak position {self.peaks[-1]} needs n > {self.peaks[-1]}, got n={self.n}"
            )


Query = DescentClassQuery | PeakClassQuery


# ---------------------------------------------------------------------------
# Patterns and the pruning rule
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class _Pattern:
    """The positions a class fixes exactly: its descents, or its peaks."""

    positions: frozenset[int]
    peaks: bool

    def allows(self, prefix: Perm, v: int) -> bool:
        """Whether appending ``v`` to ``prefix`` keeps every decided position right.

        The appended entry decides position j = len(prefix): the descent
        at j, and, with two entries before it, whether j is a peak.
        """
        j = len(prefix)
        if self.peaks:
            return j < 2 or (prefix[-2] < prefix[-1] > v) == (j in self.positions)
        return j < 1 or (prefix[-1] > v) == (j in self.positions)


def _pattern(query: Query) -> _Pattern:
    if isinstance(query, DescentClassQuery):
        return _Pattern(frozenset(query.descents), peaks=False)
    if isinstance(query, PeakClassQuery):
        return _Pattern(frozenset(query.peaks), peaks=True)
    raise TypeError(f"unsupported query type: {type(query).__name__}")


def _arrangements(pattern: _Pattern, prefix: Perm, remaining: tuple[int, ...],
                  stop: int = 0) -> Iterator[Perm]:
    """Extensions of ``prefix`` by values of ``remaining`` that ``pattern``
    allows, ending when ``stop`` values are left.

    Values are tried in increasing order, so the outputs appear in
    lexicographic one-line order.
    """
    if len(remaining) == stop:
        yield prefix
        return
    for idx, v in enumerate(remaining):
        if pattern.allows(prefix, v):
            yield from _arrangements(
                pattern, prefix + (v,), remaining[:idx] + remaining[idx + 1:], stop)


# ---------------------------------------------------------------------------
# Streams
# ---------------------------------------------------------------------------

def _listing_steps(pattern: _Pattern, n: int, depth: int) -> float:
    """The prefixes of length up to ``depth`` that ``_arrangements`` visits
    on n values, math.inf once past MAX_STEPS: a k-prefix decides the
    positions below k, so C(n,k) value sets times their engine count."""
    steps = 0
    for k in range(depth + 1):
        below = _Pattern(frozenset(i for i in pattern.positions if i < k), pattern.peaks)
        steps += math.comb(n, k) * _completions(below, (), k)
        if steps > MAX_STEPS:
            return math.inf
    return steps


def enumerate_descent_class(q: DescentClassQuery) -> Iterator[Perm]:
    """Yield the permutations with descent set exactly ``q.descents``, in lex order."""
    pattern = _pattern(q)
    check_cost(_listing_steps(pattern, q.n, q.n), f"listing D({list(q.descents)},{q.n})")
    return _arrangements(pattern, (), tuple(range(1, q.n + 1)))


def enumerate_peak_class(q: PeakClassQuery) -> Iterator[Perm]:
    """Yield the permutations with peak set exactly ``q.peaks``, in lex order.

    A non-admissible peak set (position 1 or consecutive positions)
    yields nothing: no permutation realizes it.
    """
    if not is_admissible(q.peaks):
        return iter(())
    pattern = _pattern(q)
    check_cost(_listing_steps(pattern, q.n, q.n), f"listing P({list(q.peaks)},{q.n})")
    return _arrangements(pattern, (), tuple(range(1, q.n + 1)))


# ---------------------------------------------------------------------------
# The counting engine
# ---------------------------------------------------------------------------

def _up(counts: list[int]) -> list[int]:
    """Counts by new rank after an ascent: entry s sums old ranks 0..s."""
    return list(itertools.accumulate(counts[:-1]))


def _down(counts: list[int]) -> list[int]:
    """Counts by new rank after a descent: entry s sums old ranks s+1..end."""
    return list(itertools.accumulate(reversed(counts[1:])))[::-1]


def _completions(pattern: _Pattern, prefix: Perm, n: int) -> int:
    """The number of permutations of n that start with ``prefix`` and match
    ``pattern`` exactly.

    The state after k entries is the rank r of the last entry among
    itself and the n-k unused values, split by whether the last step
    went up. The next entry has a higher rank than r exactly when the
    step rises, and its own rank among what is left is then r..n-k-1;
    on a fall it is 0..r-1. Prefix sums make each step linear, so the
    whole count costs O(n^2) additions.
    """
    if not all(pattern.allows(prefix[:j], prefix[j]) for j in range(len(prefix))):
        return 0
    if len(prefix) == n:
        return 1
    if prefix:
        used = set(prefix)
        seed = [0] * (n - len(prefix) + 1)
        seed[sum(1 for v in range(1, prefix[-1]) if v not in used)] = 1
        zeros = [0] * len(seed)
        went_up = len(prefix) > 1 and prefix[-2] < prefix[-1]
        rose, fell = (seed, zeros) if went_up else (zeros, seed)
    else:
        # Every first value, counted as after a fall: position 1 is no peak.
        rose, fell = [0] * n, [1] * n
    for j in range(max(len(prefix), 1), n):
        both = [a + b for a, b in zip(rose, fell)]
        if j in pattern.positions:
            rose, fell = [0] * (len(both) - 1), _down(rose if pattern.peaks else both)
        else:
            rose, fell = _up(both), _down(fell) if pattern.peaks else [0] * (len(both) - 1)
    return rose[0] + fell[0]


# ---------------------------------------------------------------------------
# Exact counts
# ---------------------------------------------------------------------------

def count_descent_class(s: Iterable[int], n: int) -> int:
    """|D(S,n)| by the transfer-matrix engine; exact for any n.

    Costs n(n+1)/2 engine cells of big-integer additions whatever the
    size of S; CapExceeded when they pass MAX_STEPS.
    """
    s = position_set(s)
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if s and s[-1] >= n:
        raise ValueError(f"descent position {s[-1]} needs n > {s[-1]}, got n={n}")
    check_cost(n * (n + 1) // 2, f"counting D({list(s)},{n})")
    return _completions(_Pattern(frozenset(s), peaks=False), (), n)


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
    """|P(I,n)| by the transfer-matrix engine; exact for any n.

    Costs n(n+1)/2 engine cells; CapExceeded when they pass MAX_STEPS.
    A non-admissible I gives 0: no permutation realizes it.
    """
    q = PeakClassQuery(i, n)
    check_cost(q.n * (q.n + 1) // 2, f"counting P({list(q.peaks)},{q.n})")
    return _completions(_pattern(q), (), q.n)


def peak_poly_value(i: Iterable[int], n: int) -> int:
    """p(I,n): the peak class size scaled down by 2^(n-|I|-1), exactly.

    Exact for any n. Non-admissible I gives 0.
    """
    i = position_set(i)
    return scale_peak_count(count_peak_class(i, n), i, n)


def parallel_count(query: Query, partition_depth: int = 0) -> int:
    """Exact class size as a sum of independent per-prefix counts.

    Every pattern-consistent way of committing the first
    ``partition_depth`` one-line entries is listed, and the completions
    of each prefix are counted on their own by the transfer-matrix
    engine. The result does not depend on the depth, which makes it a
    check of the engine, whose n(n+1)/2 cells each listed prefix costs.
    """
    pattern = _pattern(query)
    n = query.n
    if not 0 <= partition_depth <= n:
        raise ValueError(f"partition depth must be in 0..{n}, got {partition_depth}")
    if pattern.peaks and not is_admissible(query.peaks):
        return 0
    check_cost(_listing_steps(pattern, n, partition_depth) * (n * (n + 1) // 2),
               f"counting {'P' if pattern.peaks else 'D'}({sorted(pattern.positions)},{n})"
               f" by prefixes of length {partition_depth}")
    prefixes = _arrangements(pattern, (), tuple(range(1, n + 1)), n - partition_depth)
    return sum(_completions(pattern, prefix, n) for prefix in prefixes)
