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

import itertools
import math
import operator
import warnings
from typing import Iterable, Iterator

from .core import (
    Perm,
    Positions,
    Record,
    _admissible_set,
    _set_str,
    canonical_descent_set,
    check_cost,
    position_set,
    spikes_of,
)
from .enumeration import (
    DescentClassQuery,
    PeakClassQuery,
    _cells,
    _listing_price,
    _name,
    _sizes,
    _walk,
    count_descent_class,
    peak_poly_value,
    scale_peak_count,
)
from . import flips


def binomial(a: int, k: int) -> int:
    """C(a, k) for any integer a and k >= 0; for a < 0 by the negative-top
    identity C(a, k) = (-1)^k C(k-a-1, k).

    >>> binomial(4, 2), binomial(-1, 3), binomial(2, 5)
    (6, -1, 0)
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if a < 0:
        return (-1) ** k * math.comb(k - a - 1, k)
    return math.comb(a, k)


class BinomialPolynomial(Record):
    """Exact integer coefficients against the basis C(n-center, k)."""

    __slots__ = ("center", "coeffs")

    def __init__(self, center: int, coeffs: Iterable[int]):
        center, coeffs = operator.index(center), tuple(map(operator.index, coeffs))
        if center < 0:
            raise ValueError("center must be nonnegative")
        if len(coeffs) != center + 1:
            raise ValueError(
                f"center {center} needs {center + 1} coefficients, got {len(coeffs)}"
            )
        self._set(center, coeffs)

    @property
    def degree(self) -> int:
        """Index of the last nonzero coefficient (0 for the zero polynomial)."""
        for k in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[k]:
                return k
        return 0

    def evaluate(self, n: int) -> int:
        """Sum of c_k * C(n-center, k), stepping C(x,k) = C(x,k-1)*(x-k+1)/k,
        a division exact for any integer n. Below the center it extrapolates
        and warns.
        """
        n = operator.index(n)
        if n < self.center:
            warnings.warn(
                f"evaluating at n={n} below the basis center {self.center} "
                "extrapolates the polynomial",
                stacklevel=2,
            )
        x, term, total = n - self.center, 1, 0
        for k, c in enumerate(self.coeffs):
            term = term * (x - k + 1) // k if k else 1
            total += c * term
        return total

    __call__ = evaluate

    def recenter(self, new_center: int) -> BinomialPolynomial:
        """The same polynomial re-expressed against the basis at ``new_center``.

        Needs new_center at least the polynomial's degree, else the target
        basis cannot carry it. Each unit step is one pass of Pascal's rule:
        up, c_k becomes c_k + c_(k+1); down, c_k - c'_(k+1) from the top.
        """
        new_center = operator.index(new_center)
        if new_center < 0:
            raise ValueError("center must be nonnegative")
        if new_center < self.degree:
            raise ValueError(
                f"cannot recenter a degree-{self.degree} polynomial at {new_center}"
            )
        coeffs = [*self.coeffs, *[0] * (new_center - self.center)]
        for _ in range(self.center, new_center):
            for k in range(len(coeffs) - 1):
                coeffs[k] += coeffs[k + 1]
        for _ in range(new_center, self.center):
            for k in range(len(coeffs) - 2, -1, -1):
                coeffs[k] -= coeffs[k + 1]
        return BinomialPolynomial(new_center, tuple(coeffs[: new_center + 1]))

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "basis": "binomial",
            "center": self.center,
            "coeffs": [str(c) for c in self.coeffs],
        }

    def csv_rows(self) -> list[tuple[int, int]]:
        return [(k, c) for k, c in enumerate(self.coeffs)]

    def pretty(self) -> str:
        x = f"n-{self.center}" if self.center else "n"
        return " + ".join(f"{c} C({x},{k})" for k, c in enumerate(self.coeffs))


# ---------------------------------------------------------------------------
# Coefficient extraction
# ---------------------------------------------------------------------------

def _interval_blocks(s: Positions, m: int, ks: range, what: str,
                     row_entries: int = 0) -> list[list[Perm]]:
    """Blocks k in ``ks`` of ``prefix_interval_class(S, m, k)``, S inside [1,m].

    A row's last m entries increase and its first m are a member of D(S',m),
    S' = S ∩ [1,m-1], relabelled onto low ∪ [m+1,m+k] for an (m-k)-subset low
    of [m]. One pricing run gives h = |D(S',m)|, then one walk lists D(S',m):
    block k relabels its h members onto C(m,k) value sets, C(m,k)·(m+h) steps.
    The caller's pass of ``row_entries`` on each row joins that price in
    ``_blocks_price``, checked before the walk.
    """
    if not m:
        return [[()]]
    q = DescentClassQuery((p for p in s if p < m), m)
    steps, h = _listing_price(q)
    check_cost(steps, f"listing {_name(q)}")
    check_cost(_blocks_price(s, m, ks, h, row_entries), what)
    heads = list(_walk(q))
    board = set(range(1, 2 * m + 1))
    blocks = []
    for k in ks:
        block = []
        for low in itertools.combinations(range(1, m + 1), m - k):
            values = low + tuple(range(m + 1, m + k + 1))
            tail = tuple(sorted(board.difference(values)))
            block += [tuple(values[v - 1] for v in head) + tail for head in heads
                      if (values[head[-1] - 1] > tail[0]) == (m in s)]
        blocks.append(sorted(block))
    return blocks


def _blocks_price(s: Positions, m: int, ks: range, h: int, entries: int) -> int:
    """The steps of blocks ``ks``: C(m,k)·(m+h) to relabel h heads for block k,
    and with ``entries``, a pass of them on each of its c_k rows, c =
    ``descent_coeffs(S, m)``, whose run is priced too."""
    steps = sum(math.comb(m, k) for k in ks) * (m + h)
    if entries:
        coeffs = descent_coeffs(s, m).coeffs
        steps += _values_price(m) + entries * sum(coeffs[k] for k in ks)
    return steps


def prefix_interval_class(s: Iterable[int], m: int, k: int) -> Iterator[Perm]:
    """Members of D(S,2m) whose first m values meet [m+1,2m] in exactly [m+1,m+k],
    in lexicographic order: one pricing run gives h = |D(S ∩ [1,m-1], m)|, then
    one walk lists that class; C(m,k)·(m+h) steps."""
    s = _at_center(s, m, peaks=False)
    if not 0 <= k <= m:
        raise ValueError(f"k must be in 0..{m}, got {k}")
    block, = _interval_blocks(s, m, range(k, k + 1), f"listing block {k} of D({_set_str(s)},{2 * m})")
    return iter(block)


def _at_center(positions: Iterable[int], m: int, *, peaks: bool) -> Positions:
    """The normalized set S (or admissible I, with ``peaks``), once the
    center m reaches its maximum."""
    positions = _admissible_set(positions) if peaks else position_set(positions)
    if positions and m < positions[-1]:
        raise ValueError(f"center {m} is below max({'I' if peaks else 'S'}) = {positions[-1]}")
    if m < 0:
        raise ValueError("center must be nonnegative")
    return positions


def _values_price(m: int) -> int:
    """The steps of ``_from_values`` at center m: the cells of one engine run
    to length 2m+1 and the m(m+1)/2 differences of its m+1 sizes."""
    return _cells(2 * m + 1) + math.comb(m + 1, 2)


def _from_values(positions: Iterable[int], m: int, *, peaks: bool) -> BinomialPolynomial:
    """d(S,n), or p(I,n) with ``peaks``, at center m, from one engine run's
    sizes at n = m+1, ..., 2m+1 and their differences (``_values_price``).

    The k-th forward difference at n = m+1 is the coefficient of C(n-m-1, k);
    with c_(m+1) = 0, as the degree is at most m, they give center m+1.
    """
    positions = _at_center(positions, m, peaks=peaks)
    check_cost(_values_price(m),
               f"computing {'p' if peaks else 'd'}({_set_str(positions)},n) at center {m}")
    values = list(_sizes(positions, peaks, range(m + 1, 2 * m + 2)))
    if peaks:
        values = [scale_peak_count(v, positions, n) for n, v in enumerate(values, m + 1)]
    differences = []
    while values:
        differences.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    return BinomialPolynomial(m + 1, (*differences, 0)).recenter(m)


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

class FlipTableRow(Record):
    """One member of the table's descent class and, aligned with the sorted
    spike set, whether each spike admits a flip."""

    __slots__ = ("permutation", "admits")

    def __init__(self, permutation: Perm, admits: tuple[bool, ...]):
        self._set(permutation, admits)


class FlipTable(Record):
    """The rows of ``flip_admission_table`` in blocks indexed by k = 0..center."""

    __slots__ = ("spikes", "center", "blocks")

    def __init__(self, spikes: Positions, center: int,
                 blocks: tuple[tuple[FlipTableRow, ...], ...]):
        self._set(spikes, center, blocks)

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

    The rows of block k are ``prefix_interval_class(S_I, m, k)``, in lex
    order, all from one listing: 2^m·(m+h) steps, h = |D(S_I ∩ [1,m-1], m)|.
    Each row's ``flip_profile`` builds two flips of 2m entries at each spike
    of S_I; the price adds that pass on every row, the rows counted as the
    sum of ``descent_coeffs(S_I, m)``, and that count's own price.
    """
    i_set = _at_center(i_set, m, peaks=True)
    s = canonical_descent_set(i_set)
    what = f"building the flip-admission table of D({_set_str(s)},{2 * m})"
    entries = flips._pass_entries(2 * m, len(spikes_of(s, 2 * m)))
    return FlipTable(i_set, m, tuple(
        tuple(FlipTableRow(sigma, tuple(a.admits for a in flips.flip_profile(sigma).values()))
              for sigma in block)
        for block in _interval_blocks(s, m, range(m + 1), what, entries)
    ))


# ---------------------------------------------------------------------------
# Expansion and inversion
# ---------------------------------------------------------------------------

def spike_terms(s: Iterable[int], n: int) -> list[tuple[Positions, int]]:
    """The terms (J, p(J,n)) of d(S,n) over the admissible subsets J of the
    spikes of S, by size and then lexicographically; one engine count each,
    priced before any run: a spike next to the previous one joins only the
    subsets that miss it."""
    s = DescentClassQuery(s, n).descents
    spikes = spikes_of(s, n)
    subsets, missing_last = 1, 1
    for last, i in zip((0, *spikes), spikes):
        subsets, missing_last = subsets + (missing_last if i - last == 1 else subsets), subsets
    check_cost(subsets * _cells(n), f"expanding d({_set_str(s)},{n}) over spikes")
    terms, level = [], [()]
    while level:  # grown in lex order from a level in lex order, so no sort is needed
        terms += [(j, peak_poly_value(j, n)) for j in level]
        level = [j + (i,) for j in level for i in spikes if i - (j[-1] if j else 0) > 1]
    return terms


def descent_poly_via_peaks(s: Iterable[int], n: int) -> int:
    """d(S,n) as the sum of p(J,n) over the admissible spike subsets J of S."""
    return sum(value for _, value in spike_terms(s, n))


def moebius_terms(i_set: Iterable[int], n: int) -> list[tuple[Positions, Positions, int, int]]:
    """The terms (J, S_J, sign, d(S_J,n)) of p(I,n) over the subsets J of I.

    Each d(S_J,n) is an exact engine count, 2^|I| of them. Requires
    admissible I and n > max(I), n >= 1.
    """
    i_set = PeakClassQuery(_admissible_set(i_set), n).peaks
    check_cost(2 ** len(i_set) * _cells(n), f"inverting p({_set_str(i_set)},{n}) over subsets")
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
