"""Independent reference answers for the benchmark's answer check.

Nothing here imports peakpoly. Class sizes come from a transfer-matrix
count over the relative rank of the last entry (Niven 1968; de Bruijn
1970), which costs O(n^2) big-integer additions per query. Set-level
spikes, canonical descent sets and flips are rewritten from their
definitions.
"""
from __future__ import annotations

import math
from typing import Iterable, Sequence


def _prefix_sums(values: list[int]) -> list[int]:
    out = [0]
    for v in values:
        out.append(out[-1] + v)
    return out


def _extend(counts: list[int], up: bool) -> list[int]:
    """Counts by rank of the last entry after appending one entry.

    A new last entry of rank r (0-based, among i+1 entries) makes an
    ascent from an old last entry of rank j exactly when j < r.
    """
    sums = _prefix_sums(counts)
    total = sums[-1]
    if up:
        return [sums[r] for r in range(len(counts) + 1)]
    return [total - sums[r] for r in range(len(counts) + 1)]


def descent_count(s: Iterable[int], n: int) -> int:
    """d(S,n): permutations of n whose descent set is exactly S."""
    members = set(s)
    counts = [1]
    for step in range(1, n):
        counts = _extend(counts, up=step not in members)
    return sum(counts)


def peak_class_size(i_set: Iterable[int], n: int) -> int:
    """|P(I,n)|: permutations of n whose peak set is exactly I.

    Two rank vectors are carried, split by the direction of the last
    step; position p is a peak when step p-1 rises and step p falls.
    """
    peaks = set(i_set)
    rose, fell = [0], [1]  # one entry; position 1 can never be a peak
    for step in range(1, n):
        if step in peaks:
            rose, fell = [0] * (step + 1), _extend(rose, up=False)
        else:
            both = [a + b for a, b in zip(rose, fell)]
            rose, fell = _extend(both, up=True), _extend(fell, up=False)
    return sum(rose) + sum(fell)


def peak_value(i_set: Sequence[int], n: int) -> int:
    """p(I,n) = |P(I,n)| / 2^(n-|I|-1); the division must be exact."""
    size = peak_class_size(i_set, n)
    value, rem = divmod(size, 1 << (n - len(set(i_set)) - 1))
    if rem:
        raise ArithmeticError(f"|P({list(i_set)},{n})| = {size} is not divisible")
    return value


def set_spikes(s: Iterable[int], n: int) -> tuple[int, ...]:
    """Positions 2..n-1 where the up-down word of S changes direction."""
    members = set(s)
    return tuple(i for i in range(2, n) if (i - 1 in members) != (i in members))


def admissible(i_set: Sequence[int]) -> bool:
    ordered = sorted(i_set)
    return all(x >= 2 for x in ordered) and all(b - a >= 2 for a, b in zip(ordered, ordered[1:]))


def canonical_descents(j_set: Iterable[int]) -> tuple[int, ...]:
    """The descent set whose spikes are J with the rightmost spike a valley.

    Step p falls exactly when an odd number of spikes lie right of p.
    """
    spikes = sorted(j_set)
    top = spikes[-1] if spikes else 0
    return tuple(p for p in range(1, top) if sum(1 for j in spikes if j > p) % 2)


def binomial_value(coeffs: Sequence[int], center: int, n: int) -> int:
    """Sum of c_k * C(n-center, k) for n >= center."""
    return sum(c * math.comb(n - center, k) for k, c in enumerate(coeffs))


# ---------------------------------------------------------------------------
# Permutation-level definitions
# ---------------------------------------------------------------------------

def perm_descents(p: Sequence[int]) -> tuple[int, ...]:
    return tuple(i for i in range(1, len(p)) if p[i - 1] > p[i])


def perm_peaks(p: Sequence[int]) -> tuple[int, ...]:
    return tuple(i for i in range(2, len(p)) if p[i - 2] < p[i - 1] > p[i])


def perm_spikes(p: Sequence[int]) -> tuple[int, ...]:
    return tuple(i for i in range(2, len(p)) if (p[i - 2] < p[i - 1]) != (p[i - 1] < p[i]))


def flip(p: Sequence[int], i: int) -> tuple[int, ...]:
    """Reverse the relative order of the first i entries."""
    ranked = sorted(p[:i])
    mirror = dict(zip(ranked, reversed(ranked)))
    return tuple(mirror[v] for v in p[:i]) + tuple(p[i:])


def flip_admission(p: Sequence[int], i: int) -> tuple[bool, bool]:
    """(plus, minus): whether flipping at i, resp. i-1, removes only spike i."""
    target = tuple(x for x in perm_spikes(p) if x != i)
    return perm_spikes(flip(p, i)) == target, perm_spikes(flip(p, i - 1)) == target
