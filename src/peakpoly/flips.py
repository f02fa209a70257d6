"""Prefix-flip involutions, spike-removal maps, and canonical descent sets.

The flip at i reverses the relative order of the first i values inside
their own value set and leaves everything past i untouched. A spike at
i can sometimes be straightened out by flipping at i or at i-1; the
spike-removal map ``psi`` picks whichever of the two works.
"""
from __future__ import annotations

from typing import Iterable, Sequence

from .core import (
    Perm,
    Positions,
    Record,
    is_admissible,
    position_set,
    spike_set,
    spikes_of,
)


def fl(p: Sequence[int], i: int) -> Perm:
    """Reverse the relative order of the first i values of ``p``.

    The value ranked k among the first i becomes the value ranked
    i-k+1; positions past i are untouched. Applying fl twice at the
    same i restores ``p``.

    >>> fl((2, 4, 3, 1, 5, 6, 7, 8), 2)
    (4, 2, 3, 1, 5, 6, 7, 8)
    >>> fl((2, 4, 3, 1, 5, 6, 7, 8), 4)
    (3, 1, 2, 4, 5, 6, 7, 8)
    """
    n = len(p)
    if not 1 <= i <= n:
        raise ValueError(f"flip index {i} out of range 1..{n}")
    prefix = tuple(p[:i])
    ranked = sorted(prefix)
    rank = {v: r for r, v in enumerate(ranked)}
    return tuple(ranked[i - 1 - rank[v]] for v in prefix) + tuple(p[i:])


class FlipAdmission(Record):
    """Whether a spike can be removed by flipping at i (plus) or i-1 (minus)."""

    __slots__ = ("plus", "minus")

    def __init__(self, plus: bool, minus: bool):
        self._set(plus, minus)

    @property
    def admits(self) -> bool:
        return self.plus or self.minus


def admits_flip(p: Sequence[int], i: int) -> FlipAdmission:
    """Admission record for the spike of ``p`` at position i.

    The plus flip is admitted when flipping at i leaves every spike
    except i in place; the minus flip likewise for flipping at i-1.
    Requires i to be a spike of ``p``.
    """
    spikes = spike_set(p)
    if i not in spikes:
        raise ValueError(f"position {i} is not a spike of {p}")
    target = tuple(s for s in spikes if s != i)
    plus = spike_set(fl(p, i)) == target
    minus = spike_set(fl(p, i - 1)) == target
    return FlipAdmission(plus, minus)


def flip_profile(p: Sequence[int]) -> dict[int, FlipAdmission]:
    """Admission records for every spike of ``p``, keyed by position."""
    return {i: admits_flip(p, i) for i in spike_set(p)}


def psi(p: Sequence[int], i: int) -> Perm:
    """Remove the spike at i by the admitted flip (at i, else at i-1).

    The result has spike set equal to that of ``p`` minus {i}. Raises
    if neither flip is admitted.
    """
    adm = admits_flip(p, i)
    if adm.plus:
        return fl(p, i)
    if adm.minus:
        return fl(p, i - 1)
    raise ValueError(f"{tuple(p)} admits no {i}-flip")


def psi_set(p: Sequence[int], positions: Iterable[int]) -> Perm:
    """Remove all spikes in ``positions``, one ``psi`` per position.

    The positions must be spikes of ``p``, pairwise more than 1 apart,
    and every one of them must admit a flip. Flips are applied from the
    rightmost position down; with assertions enabled the left-to-right
    order is recomputed and must agree.
    """
    js = position_set(positions)
    if any(b - a <= 1 for a, b in zip(js, js[1:])):
        raise ValueError(f"flip positions must be more than 1 apart: {js}")
    spikes = set(spike_set(p))
    if not set(js) <= spikes:
        raise ValueError(f"{sorted(set(js) - spikes)} are not spikes of {tuple(p)}")
    result = tuple(p)
    for j in reversed(js):
        result = psi(result, j)
    if __debug__ and len(js) > 1:
        check = tuple(p)
        for j in js:
            check = psi(check, j)
        assert check == result, "flip application order changed the result"
    return result


def canonical_descent_set(i_set: Iterable[int]) -> Positions:
    """The unique descent set whose spike set is ``i_set``, rightmost spike a valley.

    Walk the positions from max(I)-1 down to 1, starting downhill into
    the valley at max(I) and turning at each spike: the descents are the
    positions walked downhill.

    >>> canonical_descent_set((2, 4))
    (2, 3)
    >>> canonical_descent_set((2,)), canonical_descent_set((4,))
    ((1,), (1, 2, 3))
    """
    spikes = position_set(i_set)
    if not is_admissible(spikes):
        raise ValueError(f"not an admissible peak set: {spikes}")
    top, down, members = max(spikes, default=0), True, []
    for pos in range(top - 1, 0, -1):
        if down:
            members.append(pos)
        down ^= pos in spikes
    out = tuple(reversed(members))
    assert spikes_of(out, top + 1) == spikes, "construction lost its spike set"
    return out
