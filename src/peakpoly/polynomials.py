"""Binomial-basis polynomials for descent and peak class counting.

A polynomial with center m is stored as exact integer coefficients
c_0..c_m against the basis C(n-m, 0), ..., C(n-m, m). Coefficients are
finite differences of the exact class sizes at n = m+1, ..., 2m+1 that
one forward engine run yields: (2m+1)(m+1) cells and m(m+1)/2
differences, and no floating point anywhere in this module. The paper
counts each coefficient as rows of D(S,2m) (for p(I,n), the flip-free
ones), which ``prefix_interval_class`` and ``flip_admission_table`` list
as the cross-check.
"""
from __future__ import annotations

import dataclasses
import itertools
import math
import warnings
from typing import Iterable, Iterator

from .core import (
    Perm,
    Positions,
    check_cost,
    is_admissible,
    position_set,
    spikes_of,
)
from .enumeration import (
    PeakClassQuery,
    _arrangements,
    _listing_steps,
    _Pattern,
    _sizes,
    count_descent_class,
    peak_poly_value,
    scale_peak_count,
)
from .flips import admits_flip, canonical_descent_set


def binomial(a: int, k: int) -> int:
    """C(a, k) for any integer a and k >= 0, via the negative-top identity.

    >>> binomial(4, 2), binomial(-1, 3), binomial(2, 5)
    (6, -1, 0)
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if a < 0:
        sign = -1 if k % 2 else 1
        a = k - a - 1
    else:
        sign = 1
    if k > a:
        return 0
    out = 1
    for t in range(1, k + 1):
        out = out * (a - t + 1) // t
    return sign * out


@dataclasses.dataclass(frozen=True)
class BinomialPolynomial:
    """Exact integer coefficients against the basis C(n-center, k)."""

    center: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))
        if self.center < 0:
            raise ValueError("center must be nonnegative")
        if len(self.coeffs) != self.center + 1:
            raise ValueError(
                f"center {self.center} needs {self.center + 1} coefficients, "
                f"got {len(self.coeffs)}"
            )

    @property
    def degree(self) -> int:
        """Index of the last nonzero coefficient (0 for the zero polynomial)."""
        for k in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[k]:
                return k
        return 0

    def evaluate(self, n: int) -> int:
        """Sum of c_k * C(n-center, k); exact for any integer n.

        Evaluating below the center is extrapolation and warns.
        """
        if n < self.center:
            warnings.warn(
                f"evaluating at n={n} below the basis center {self.center} "
                "extrapolates the polynomial",
                stacklevel=2,
            )
        x = n - self.center
        return sum(c * binomial(x, k) for k, c in enumerate(self.coeffs))

    __call__ = evaluate

    def recenter(self, new_center: int) -> BinomialPolynomial:
        """The same polynomial re-expressed against the basis at ``new_center``.

        Needs new_center at least the polynomial's degree, else the
        target basis cannot carry it.
        """
        if new_center < 0:
            raise ValueError("center must be nonnegative")
        if new_center < self.degree:
            raise ValueError(
                f"cannot recenter a degree-{self.degree} polynomial at {new_center}"
            )
        shift = new_center - self.center
        size = max(new_center, len(self.coeffs) - 1) + 1
        moved = [
            sum(self.coeffs[k] * binomial(shift, k - j)
                for k in range(j, len(self.coeffs)))
            for j in range(size)
        ]
        if any(moved[new_center + 1:]):
            raise ValueError(
                f"cannot recenter at {new_center}: higher basis terms survive"
            )
        return BinomialPolynomial(new_center, tuple(moved[: new_center + 1]))

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "basis": "binomial",
            "center": self.center,
            "coeffs": [str(c) for c in self.coeffs],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> BinomialPolynomial:
        if data.get("basis") != "binomial":
            raise ValueError(f"unsupported basis: {data.get('basis')!r}")
        return cls(int(data["center"]), tuple(int(c) for c in data["coeffs"]))

    def csv_rows(self) -> list[tuple[int, int]]:
        return [(k, c) for k, c in enumerate(self.coeffs)]

    def pretty(self, variable: str = "n") -> str:
        x = f"{variable}-{self.center}" if self.center else variable
        return " + ".join(f"{c} C({x},{k})" for k, c in enumerate(self.coeffs))

    def latex(self, variable: str = "n") -> str:
        x = f"{variable}-{self.center}" if self.center else variable
        return "+".join(
            f"{c}{{{x} \\choose {k}}}" for k, c in enumerate(self.coeffs)
        )


# ---------------------------------------------------------------------------
# Coefficient extraction
# ---------------------------------------------------------------------------

def prefix_interval_class(s: Iterable[int], m: int, k: int) -> Iterator[Perm]:
    """Members of D(S,2m) whose first m values meet [m+1,2m] in exactly [m+1,m+k].

    Generates only candidates that satisfy the initial-set condition:
    the high half of the prefix is forced to [m+1, m+k], the low half is
    chosen from [m], and the tail must be increasing because no descent
    position past m is allowed. Yields in lexicographic order.
    """
    s = position_set(s)
    if s and s[-1] > m:
        raise ValueError(f"descent set reaches {s[-1]}, above the center {m}")
    if not 0 <= k <= m:
        raise ValueError(f"k must be in 0..{m}, got {k}")
    pattern = _Pattern(frozenset(s), peaks=False)
    steps = _listing_steps(pattern, m, m)  # inf spares computing a huge C(m,k)
    check_cost(steps * math.comb(m, k) if steps < math.inf else steps,
               f"listing block {k} of D({list(s)},{2 * m})")
    boundary_descent = m in s
    found: list[Perm] = []
    high = tuple(range(m + 1, m + k + 1))
    for low in itertools.combinations(range(1, m + 1), m - k):
        values = tuple(sorted(low + high))
        tail = tuple(v for v in range(1, 2 * m + 1) if v not in values)
        for head in _arrangements(pattern, (), values):
            if not tail or (head[-1] > tail[0]) == boundary_descent:
                found.append(head + tail)
    found.sort()
    return iter(found)


def _at_center(positions: Iterable[int], m: int, *, peaks: bool) -> Positions:
    """The normalized set S (or admissible I, with ``peaks``), once the
    center m reaches its maximum."""
    positions = position_set(positions)
    if peaks and not is_admissible(positions):
        raise ValueError(f"not an admissible peak set: {positions}")
    if positions and m < positions[-1]:
        raise ValueError(f"center {m} is below max({'I' if peaks else 'S'}) = {positions[-1]}")
    return positions


def _from_values(positions: Iterable[int], m: int, *, peaks: bool) -> BinomialPolynomial:
    """d(S,n), or p(I,n) with ``peaks``, at center m, from one engine run
    to length 2m+1: its (2m+1)(m+1) cells and the m(m+1)/2 differences
    of the values at n = m+1, ..., 2m+1.

    The k-th forward difference at n = m+1 is the coefficient c_k of
    C(n-m-1, k). Since C(n-m, j) = C(n-m-1, j) + C(n-m-1, j-1), the
    coefficients at center m solve c_k = c'_k + c'_(k+1), with
    c'_(m+1) = 0 because the degree is at most m.
    """
    positions = _at_center(positions, m, peaks=peaks)
    check_cost((2 * m + 1) * (m + 1) + m * (m + 1) // 2,
               f"computing {'p' if peaks else 'd'}({list(positions)},n) at center {m}")
    values = list(_sizes(_Pattern(frozenset(positions), peaks), range(m + 1, 2 * m + 2)))
    if peaks:
        values = [scale_peak_count(v, positions, n) for n, v in enumerate(values, m + 1)]
    coeffs = []
    while values:
        coeffs.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    for k in range(m - 1, -1, -1):
        coeffs[k] -= coeffs[k + 1]
    return BinomialPolynomial(m, tuple(coeffs))


def descent_coeffs(s: Iterable[int], m: int) -> BinomialPolynomial:
    """Coefficients of the descent polynomial d(S,n) at center m.

    Read off one engine run's counts d(S,n) at n = m+1, ..., 2m+1. The
    paper's reading, c_k = the number of rows of
    ``prefix_interval_class(S, m, k)``, is the cross-check. Requires
    m >= max(S).
    """
    return _from_values(s, m, peaks=False)


def peak_coeffs(i_set: Iterable[int], m: int) -> BinomialPolynomial:
    """Coefficients of the peak polynomial p(I,n) at center m.

    Read off one engine run's values p(I,n) at n = m+1, ..., 2m+1. The
    paper's reading, c_k = the number of flip-free rows in block k of
    ``flip_admission_table(I, m)``, hence c_k >= 0, is the cross-check.
    Requires admissible I and m >= max(I).
    """
    return _from_values(i_set, m, peaks=True)


# ---------------------------------------------------------------------------
# Flip-admission tables
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class FlipTableRow:
    permutation: Perm
    admits: tuple[bool, ...]  # aligned with the sorted spike set


@dataclasses.dataclass(frozen=True)
class FlipTable:
    spikes: Positions
    center: int
    blocks: tuple[tuple[FlipTableRow, ...], ...]  # indexed by k = 0..center

    def no_flip_counts(self) -> tuple[int, ...]:
        return self.pattern_counts(())

    def pattern_counts(self, admitted: Iterable[int]) -> tuple[int, ...]:
        """Per-k counts of rows admitting flips at exactly ``admitted``."""
        want = tuple(i in set(admitted) for i in self.spikes)
        return tuple(
            sum(1 for row in block if row.admits == want) for block in self.blocks
        )

    def to_json_dict(self) -> dict:
        return {
            "spike_set": list(self.spikes),
            "center": self.center,
            "blocks": [
                {"k": k, "rows": [
                    {"permutation": list(row.permutation),
                     "admits": {str(i): flag for i, flag in zip(self.spikes, row.admits)}}
                    for row in block]}
                for k, block in enumerate(self.blocks)
            ],
        }


def flip_admission_table(i_set: Iterable[int], m: int) -> FlipTable:
    """For each k, the members of D(S_I,2m) meeting the initial-set condition,
    each row carrying its per-spike flip admissions.

    The rows of block k are ``prefix_interval_class(S_I, m, k)``, in lex order.
    """
    i_set = _at_center(i_set, m, peaks=True)
    s = canonical_descent_set(i_set)
    steps = _listing_steps(_Pattern(frozenset(s), peaks=False), m, m)  # likewise 2^m
    check_cost(steps * 2 ** m if steps < math.inf else steps,
               f"building the flip-admission table of D({list(s)},{2 * m})")
    return FlipTable(i_set, m, tuple(
        tuple(FlipTableRow(sigma, tuple(admits_flip(sigma, i).admits for i in i_set))
              for sigma in prefix_interval_class(s, m, k))
        for k in range(m + 1)
    ))


# ---------------------------------------------------------------------------
# Expansion and inversion
# ---------------------------------------------------------------------------

def spike_terms(s: Iterable[int], n: int) -> list[tuple[Positions, int]]:
    """The terms (J, p(J,n)) of d(S,n) over the admissible subsets J of the
    spikes of S, by size and then lexicographically; one engine count each."""
    s = position_set(s, n)
    spikes = spikes_of(s, n)
    check_cost(2 ** len(spikes) * n * (n + 1) // 2, f"expanding d({list(s)},{n}) over spikes")
    return [(subset, peak_poly_value(subset, n))
            for r in range(len(spikes) + 1)
            for subset in itertools.combinations(spikes, r) if is_admissible(subset)]


def descent_poly_via_peaks(s: Iterable[int], n: int) -> int:
    """d(S,n) as the sum of p(J,n) over the admissible spike subsets J of S."""
    return sum(value for _, value in spike_terms(s, n))


def moebius_terms(i_set: Iterable[int], n: int) -> list[tuple[Positions, Positions, int, int]]:
    """The terms (J, S_J, sign, d(S_J,n)) of p(I,n) over the subsets J of I.

    Each d(S_J,n) is an exact engine count, 2^|I| of them. Requires
    admissible I and n > max(I), n >= 1.
    """
    i_set = position_set(i_set)
    if not is_admissible(i_set):
        raise ValueError(f"not an admissible peak set: {i_set}")
    PeakClassQuery(i_set, n)  # refuses n < 1 and n <= max(I)
    check_cost(2 ** len(i_set) * n * (n + 1) // 2, f"inverting p({list(i_set)},{n}) over subsets")
    terms = []
    for r in range(len(i_set) + 1):
        sign = -1 if (len(i_set) - r) % 2 else 1
        for subset in itertools.combinations(i_set, r):
            s_j = canonical_descent_set(subset)
            terms.append((subset, s_j, sign, count_descent_class(s_j, n)))
    return terms


def peak_poly_via_moebius(i_set: Iterable[int], n: int) -> int:
    """p(I,n) as the alternating sum of d(S_J,n) over subsets J of I."""
    return sum(sign * value for _, _, sign, value in moebius_terms(i_set, n))
