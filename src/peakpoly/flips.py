"""Prefix-flip involutions and spike-removal maps.

The flip at i reverses the relative order of the first i values inside
their own value set and leaves everything past i untouched. A spike at
i can sometimes be straightened out by flipping at i or at i-1; the
spike-removal map ``psi`` picks whichever of the two works.
"""
from __future__ import annotations

from typing import Iterable, Sequence

from .core import (
    Perm,
    Record,
    _perm_str,
    _set_str,
    check_cost,
    position_set,
    spike_set,
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


def _removals(p: Sequence[int], i: int) -> tuple[Perm | None, Perm | None]:
    """The flips of ``p`` at i and at i-1, each kept (else None) only if it removes
    the spike at i and no other. A flip turns every step below it, so the flip at i
    must keep the step at i, and the flip at i-1 must turn the step at i-1."""
    if not (1 < i < len(p) and (p[i - 2] < p[i - 1]) != (p[i - 1] < p[i])):
        raise ValueError(f"position {i} is not a spike of {_perm_str(p)}")
    plus, minus = fl(p, i), fl(p, i - 1)
    return (plus if (plus[i - 1] > p[i]) == (p[i - 1] > p[i]) else None,
            minus if (minus[i - 2] > p[i - 1]) != (p[i - 2] > p[i - 1]) else None)


def _spike_removals(p: Sequence[int]) -> dict[int, tuple[Perm | None, Perm | None]]:
    """``_removals`` at every spike of ``p``, keyed by position: 2·n steps per spike."""
    spikes = spike_set(p)
    check_cost(2 * len(p) * len(spikes), f"building the flips of a permutation of {len(p)}")
    return {i: _removals(p, i) for i in spikes}


def admits_flip(p: Sequence[int], i: int) -> FlipAdmission:
    """Admission record for the spike of ``p`` at position i.

    The plus flip is admitted when flipping at i leaves every spike
    except i in place; the minus flip likewise for flipping at i-1.
    Requires i to be a spike of ``p``.
    """
    return FlipAdmission(*(q is not None for q in _removals(p, i)))


def flip_profile(p: Sequence[int]) -> dict[int, FlipAdmission]:
    """Admission records for every spike of ``p``, keyed by position. Each
    spike costs 2·n steps, the entries of its two flips; CapExceeded past MAX_STEPS."""
    return {i: FlipAdmission(*(q is not None for q in pair))
            for i, pair in _spike_removals(p).items()}


def psi(p: Sequence[int], i: int) -> Perm:
    """Remove the spike at i by the admitted flip (at i, else at i-1).

    The result has spike set equal to that of ``p`` minus {i}. Raises
    if neither flip is admitted.
    """
    plus, minus = _removals(p, i)
    image = plus or minus
    if image is None:
        raise ValueError(f"{_perm_str(p)} admits no {i}-flip")
    return image


def psi_set(p: Sequence[int], positions: Iterable[int]) -> Perm:
    """Remove all spikes in ``positions``, one ``psi`` per position.

    The positions must be spikes of ``p``, pairwise more than 1 apart,
    and every one of them must admit a flip. Flips are applied once,
    from the rightmost position down; for spikes this far apart every
    order gives the same result.
    """
    js = position_set(positions)
    if any(b - a <= 1 for a, b in zip(js, js[1:])):
        raise ValueError(f"flip positions must be more than 1 apart: {_set_str(js)}")
    spikes = set(spike_set(p))
    if not set(js) <= spikes:
        raise ValueError(f"{_set_str(sorted(set(js) - spikes))} are not spikes of {_perm_str(p)}")
    result = tuple(p)
    for j in reversed(js):
        result = psi(result, j)
    return result

