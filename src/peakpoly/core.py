"""Permutations, signed permutations, and their descent/peak/valley statistics.

Conventions used throughout the package:

- A permutation of n is a tuple of the values 1..n in one-line notation.
- A signed permutation is a tuple of nonzero integers whose absolute
  values form a permutation of 1..n.
- Positions are 1-based: position i compares the values at i and i+1,
  so descent positions live in 1..n-1.
- Position sets are sorted tuples of ints.
"""
from __future__ import annotations

import itertools
import math
import operator
from typing import Iterable, Iterator, Sequence

Perm = tuple[int, ...]
Positions = tuple[int, ...]

#: Most steps one request may take: prefixes listed, engine cells filled,
#: markings or permutations scanned, each at most a few microseconds.
MAX_STEPS = 5 * 10**6


class CapExceeded(ValueError):
    """A request would take more than MAX_STEPS steps."""


def check_cost(steps: float, what: str) -> None:
    """Raise CapExceeded when ``what`` takes more than MAX_STEPS steps;
    infinite ``steps`` stand for a count that stopped past the limit."""
    if steps == math.inf:
        raise CapExceeded(f"{what} takes more than the limit of {MAX_STEPS} steps")
    if steps > MAX_STEPS:
        try:
            count = str(steps)
        except ValueError:  # past the interpreter's limit on int-to-str digits
            count = f"a {_digit_count(steps)}-digit number of"
        raise CapExceeded(f"{what} takes {count} steps, over the limit of {MAX_STEPS}")


def _set_str(positions: Iterable[int]) -> str:
    """A position set as the answers print it: ``{2,3}``, ``{}`` when empty."""
    return "{" + ",".join(str(p) for p in positions) + "}"


def _admissible_set(positions: Iterable[int]) -> Positions:
    """``positions`` normalized, refused unless it is an admissible peak set."""
    positions = position_set(positions)
    if not is_admissible(positions):
        raise ValueError(f"not an admissible peak set: {_set_str(positions)}")
    return positions


def _perm_str(p: Sequence[int]) -> str:
    """A permutation as the answers print it: ``24315678``, ``10,2,…,9,1`` past 9."""
    return ("" if all(v <= 9 for v in p) else ",").join(str(v) for v in p)


def _digit_count(value: int) -> int:
    """Decimal digits of a positive int, without converting it to a string."""
    digits = int(value.bit_length() * math.log10(2)) + 1
    return digits - (10 ** (digits - 1) > value)


class Record:
    """An immutable value whose fields are its class's ``__slots__``.

    Records of the same class with equal fields are equal and hash alike;
    a record never equals a tuple or a record of another class. The
    constructor takes the fields in slot order, so copies and pickles
    rebuild through it. Subclasses set their fields once with ``_set``.
    """

    __slots__ = ()

    def _set(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return self.__class__, self._fields()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# Validation and construction
# ---------------------------------------------------------------------------

def is_permutation(values: Sequence[int]) -> bool:
    """Check that ``values`` lists each of 1..n exactly once.

    >>> is_permutation((2, 4, 3, 1)), is_permutation((1, 1, 2)), is_permutation((0, 1))
    (True, False, False)
    """
    return sorted(values) == list(range(1, len(values) + 1))


def as_permutation(values: Iterable[int]) -> Perm:
    """Validate and return ``values`` as a permutation tuple."""
    p = tuple(values)
    if not p:
        raise ValueError("a permutation must have length at least 1")
    if not is_permutation(p):
        raise ValueError(f"not a permutation of 1..{len(p)}: {p}")
    return p


def position_set(positions: Iterable[int], n: int | None = None) -> Positions:
    """Normalize a collection of positions to a strictly increasing tuple.

    A member that is not an integer raises TypeError (bools count as 0 and 1).
    With ``n`` given, additionally require every position to lie in 1..n-1.
    """
    s = tuple(sorted(set(map(operator.index, positions))))
    if s and s[0] < 1:
        raise ValueError(f"positions must be positive, got {s[0]}")
    if n is not None and s and s[-1] >= n:
        raise ValueError(f"position {s[-1]} out of range 1..{n - 1}")
    return s


# ---------------------------------------------------------------------------
# Permutation-level statistics
# ---------------------------------------------------------------------------

def descent_set(p: Sequence[int]) -> Positions:
    """Positions i with p_i > p_{i+1}; signed values compare as integers.

    >>> descent_set((2, 4, 3, 1, 5, 6, 7, 8))
    (2, 3)
    >>> descent_set((3, -1, 2))
    (1,)
    """
    return tuple(i for i in range(1, len(p)) if p[i - 1] > p[i])


def peak_set(p: Sequence[int]) -> Positions:
    """Interior positions strictly higher than both neighbors.

    >>> peak_set((3, 4, 2, 1, 5, 6, 7, 8))
    (2,)
    """
    return tuple(
        i for i in range(2, len(p)) if p[i - 2] < p[i - 1] > p[i]
    )


def valley_set(p: Sequence[int]) -> Positions:
    """Interior positions strictly lower than both neighbors.

    >>> valley_set((3, 4, 2, 1, 5, 6, 7, 8))
    (4,)
    """
    return tuple(
        i for i in range(2, len(p)) if p[i - 2] > p[i - 1] < p[i]
    )


def spike_set(p: Sequence[int]) -> Positions:
    """All interior local extrema: the union of peaks and valleys."""
    return tuple(
        i for i in range(2, len(p))
        if (p[i - 2] < p[i - 1]) != (p[i - 1] < p[i])
    )


def initial_set(p: Sequence[int], i: int) -> frozenset[int]:
    """The set of the first ``i`` values of ``p``.

    >>> sorted(initial_set((2, 4, 3, 1, 5, 6, 7, 8), 4))
    [1, 2, 3, 4]
    """
    if not 1 <= i <= len(p):
        raise ValueError(f"prefix length {i} out of range 1..{len(p)}")
    return frozenset(p[:i])


def initial_overlap_k(p: Sequence[int], m: int) -> int | None:
    """The k for which the first m values meet [m+1, 2m] in exactly [m+1, m+k].

    Returns None when the overlap is not such a leading interval.
    """
    overlap = initial_set(p, m) & frozenset(range(m + 1, 2 * m + 1))
    k = len(overlap)
    if overlap == frozenset(range(m + 1, m + k + 1)):
        return k
    return None


# ---------------------------------------------------------------------------
# Set-level statistics
# ---------------------------------------------------------------------------

def peaks_of(s: Iterable[int], n: int) -> Positions:
    """Peaks of a descent set: members of s in 2..n-1 not preceded by a member."""
    members = set(position_set(s, n))
    return tuple(sorted(i for i in members if i > 1 and i - 1 not in members))


def valleys_of(s: Iterable[int], n: int) -> Positions:
    """Valleys of a descent set: non-members in 2..n-1 preceded by a member."""
    members = set(position_set(s, n))
    return tuple(sorted(i + 1 for i in members if i + 1 not in members and i + 1 < n))


def spikes_of(s: Iterable[int], n: int) -> Positions:
    """Union of peaks and valleys of a descent set, sorted."""
    return tuple(sorted(peaks_of(s, n) + valleys_of(s, n)))


def is_admissible(s: Iterable[int]) -> bool:
    """True iff ``s`` could be a peak set: no position 1, no two consecutive.

    >>> is_admissible((2, 4)), is_admissible((2, 3)), is_admissible((1, 3))
    (True, False, False)
    """
    members = position_set(s)
    if members and members[0] < 2:
        return False
    return all(b - a > 1 for a, b in zip(members, members[1:]))


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
    spikes = _admissible_set(i_set)
    top, down, members = max(spikes, default=0), True, []
    for pos in range(top - 1, 0, -1):
        if down:
            members.append(pos)
        down ^= pos in spikes
    return tuple(reversed(members))


# ---------------------------------------------------------------------------
# Signed permutations
# ---------------------------------------------------------------------------

def markings(p: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Yield all 2^n sign patterns applied to the values of ``p``.

    The all-positive pattern comes first, so ``p`` itself is the first
    item yielded. Raises CapExceeded past MAX_STEPS markings.
    """
    n = len(p)
    check_cost(2 ** n, f"marking a permutation of {n}")
    values = tuple(p)
    for signs in itertools.product((1, -1), repeat=n):
        yield tuple(s * v for s, v in zip(signs, values))
