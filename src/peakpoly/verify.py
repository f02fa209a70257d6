"""Brute-force cross-checks of the package's combinatorial identities.

Every check here recomputes its ground truth with naive scans that
deliberately share no code with the operations under test: descents are
re-derived from raw value comparisons, set-level spikes from direction
changes of the up-down word, and class sizes and the marked lemma's
tallies from exhaustive sweeps of the full symmetric or signed
symmetric group. Those sweeps read one array of descent-set bitmasks per
n, built from the array for n-1 by slices and pinned by tests to every
permutation's naive descent set, and counted once for the class sizes.
The signed group is read as one tally per class of its sign patterns by
signed descent set, since signed descents and peaks follow from signs
and descent sets, as tests pin. The flip-table check lists the rows of
the public flip-admission table of ``polynomials`` by a full scan, and
reads each row's admission flags once, from that table. A failing check
reports the first counterexample in full.
"""
from __future__ import annotations

import array
import collections
import copy
import functools
import itertools
import math
from typing import Any, Iterable, Sequence

from . import enumeration, flips, polynomials
from .core import Perm, Positions, Record, canonical_descent_set, check_cost


class VerificationReport(Record):
    """Outcome of one claim check over one parameter choice."""

    __slots__ = ("claim", "params", "passed", "counterexample", "checked")

    def __init__(self, claim: str, params: dict[str, Any], passed: bool,
                 counterexample: dict[str, Any] | None = None, checked: int = 0):
        if not passed and counterexample is None:
            raise ValueError("a failing report must carry a counterexample")
        self._set(claim, params, passed, counterexample, checked)

    def to_json_dict(self) -> dict[str, Any]:
        """The fields by name, each a deep copy."""
        return {name: copy.deepcopy(getattr(self, name)) for name in self.__slots__}


# ---------------------------------------------------------------------------
# Local naive statistics (the oracle side; no shared code with core)
# ---------------------------------------------------------------------------

def _naive_descents(seq: Sequence[int]) -> Positions:
    return tuple(i + 1 for i in range(len(seq) - 1) if seq[i] > seq[i + 1])


def _naive_set_spikes(s: Iterable[int], n: int) -> Positions:
    # Walk the up-down word: position i steps down iff i is a member.
    # Spikes are exactly the interior direction changes.
    members = set(s)
    out = []
    for i in range(2, n):
        if (i - 1 in members) != (i in members):
            out.append(i)
    return tuple(out)


def _naive_admissible(s: Iterable[int]) -> bool:
    s = sorted(s)
    return all(x >= 2 for x in s) and all(b - a >= 2 for a, b in zip(s, s[1:]))


def _naive_canonical_set(i_set: Sequence[int], n: int) -> Positions:
    """S_I by exhaustive search over subsets of [1, max(I)-1]; must be unique."""
    if not i_set:
        return ()
    top = max(i_set)
    hits = [
        cand
        for r in range(top)
        for cand in itertools.combinations(range(1, top), r)
        if _naive_set_spikes(cand, n) == tuple(i_set)
    ]
    if len(hits) != 1:
        raise AssertionError(f"expected a unique descent set for spikes {i_set}, found {hits}")
    return hits[0]


def _mask(positions: Iterable[int]) -> int:
    out = 0
    for i in positions:
        out |= 1 << i
    return out


def _all_perms(n: int) -> Iterable[Perm]:
    """Every permutation of n, in lex order: the order of ``_descent_scan``."""
    return itertools.permutations(range(1, n + 1))


@functools.lru_cache(maxsize=8)
def _descent_scan(n: int) -> array.array:
    """The descent set of every permutation of n as a bitmask, in the lex
    order of ``_all_perms``. The permutations that start with f+1 end like
    those of n-1: their masks are that scan shifted one place, plus
    position 1 in the first f sub-blocks of (n-2)!. Two bytes each.
    """
    if n < 2:
        return array.array("H", [0])
    shifted = array.array("H", [d << 1 for d in _descent_scan(n - 1)])
    stepped = array.array("H", [d | 2 for d in shifted])
    sub = math.factorial(n - 2)
    out = array.array("H")
    for f in range(n):
        out += stepped[:f * sub]
        out += shifted[f * sub:]
    return out


@functools.lru_cache(maxsize=8)
def _descent_classes(n: int) -> collections.Counter[int]:
    """The size of each descent class of n by its mask, counted off the
    shared scan in order of first appearance: lex order of first members."""
    return collections.Counter(_descent_scan(n))


@functools.lru_cache(maxsize=8)
def _naive_class(d: int, n: int) -> tuple[Perm, ...]:
    """The members of the descent class with mask d in lex order: those of
    the shared scan, each kept only if its naive descent set is d."""
    listed = itertools.compress(_all_perms(n), map(d.__eq__, _descent_scan(n)))
    return tuple(p for p in listed if _mask(_naive_descents(p)) == d)


def _naive_overlap_k(p: Perm, m: int) -> int | None:
    """The initial-set rule: k if p[:m] holds exactly m+1..m+k of m+1..2m, else None."""
    hit = set(p[:m]) & set(range(m + 1, 2 * m + 1))
    return len(hit) if hit == set(range(m + 1, m + 1 + len(hit))) else None


# Statistics read off a descent mask, bit i for position i as in ``_mask``.
# The values of a (signed) permutation are distinct, so whether position i
# is a peak depends only on whether i-1 and i are descents.

def _peak_bits(d: int) -> int:
    """Peaks of a sequence with descent mask d: i in D, i-1 not in D, i > 1."""
    return d & ~(d << 1) & ~0b11


def _sign_masks(signs: Sequence[int]) -> tuple[int, int, int]:
    """The positions i whose sign pair (signs[i-1], signs[i]) is (+,+),
    (-,-) and (+,-), as three bitmasks."""
    pairs: dict[tuple[int, int], int] = collections.defaultdict(int)
    for i in range(1, len(signs)):
        pairs[signs[i - 1], signs[i]] |= 1 << i
    return pairs[1, 1], pairs[-1, -1], pairs[1, -1]


def _signed_descent_bits(d: int, masks: tuple[int, int, int]) -> int:
    """Descent mask of the signed copy of a permutation with descent mask d.

    Values are positive, so a*sigma_i > b*sigma_{i+1} holds where sigma
    descends for (+,+), where it ascends for (-,-), always for (+,-) and
    never for (-,+).
    """
    keep, flip, fall = masks
    return d & keep | ~d & flip | fall


@functools.lru_cache(maxsize=8)
def _sign_tally(n: int) -> dict[int, list[int]]:
    """tally[d][e]: the sign patterns of n that give the members of descent
    class d the signed descent mask e, for every class of the scan."""
    tally = {d: [0] * (1 << n) for d in _descent_classes(n)}
    for signs in itertools.product((1, -1), repeat=n):
        masks = _sign_masks(signs)
        for d, row in tally.items():
            row[_signed_descent_bits(d, masks)] += 1
    return tally


@functools.lru_cache(maxsize=8)
def _peak_class_histogram(n: int) -> list[int]:
    """Counts of plain permutations of n per peak-set bitmask."""
    counts = [0] * (1 << n)
    for d, size in _descent_classes(n).items():
        counts[_peak_bits(d)] += size
    return counts


# ---------------------------------------------------------------------------
# Claim checks
# ---------------------------------------------------------------------------

def check_marked_lemma(n: int) -> VerificationReport:
    """All sign patterns of any permutation keep its peaks among their spikes,
    and each qualifying descent set is hit by exactly 2^(|I|+1) patterns.

    Exhausts the 2^n * n! signed permutations of n through the sign tally
    of its descent classes, n <= 7 under the step limit. Every signed
    descent set lies in [1, n-1], so a sign pattern that loses a peak
    shows as a nonzero tally where the lemma expects 0.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    check_cost(2 ** n * math.factorial(n), f"scanning the signed permutations of {n}")
    params = {"n": n}
    all_sets = [
        (sorted(c), _mask(c), _mask(_naive_set_spikes(c, n)))
        for r in range(n)
        for c in itertools.combinations(range(1, n), r)
    ]
    for d, row in _sign_tally(n).items():
        peaks = _peak_bits(d)
        for s, mask, set_spikes in all_sets:
            want = 0 if peaks & ~set_spikes else 2 << peaks.bit_count()
            if row[mask] != want:
                return VerificationReport(
                    "marked-lemma", params, False,
                    {"sigma": _naive_class(d, n)[0], "descent_set": s, "count": row[mask],
                     "expected": want})
    return VerificationReport("marked-lemma", params, True,
                              checked=math.factorial(n) * len(all_sets))


def check_spike_sum(s: Iterable[int], n_range: Iterable[int]) -> VerificationReport:
    """Signed permutations with descent set S number 2^n * d(S,n), and d(S,n)
    equals the sum of exhaustively tallied peak-class counts, each scaled
    by its power of 2, over the admissible spike subsets of S.
    """
    s = tuple(sorted(set(s)))
    ns = sorted(set(n_range))
    if not ns:
        raise ValueError("n_range is empty: a check over no n checks nothing")
    if not (s[-1] if s else 0) < ns[0]:
        raise ValueError(f"need max(S) < n, got S={list(s)}, n={ns[0]}")
    check_cost(math.factorial(ns[-1]), f"scanning the permutations of {ns[-1]}")
    params = {"s": list(s), "n_range": ns}
    checked = 0
    for n in ns:
        d = enumeration.count_descent_class(s, n)
        tally = _sign_tally(n)
        signed_count = sum(size * tally[c][_mask(s)] for c, size in _descent_classes(n).items())
        if signed_count != (1 << n) * d:
            return VerificationReport(
                "spike-sum", params, False,
                {"n": n, "signed_with_descent_set": signed_count,
                 "scaled_descent_count": (1 << n) * d})
        peak_hist = _peak_class_histogram(n)
        spikes = _naive_set_spikes(s, n)
        total = 0
        for r in range(len(spikes) + 1):
            for subset in itertools.combinations(spikes, r):
                if not _naive_admissible(subset):
                    continue
                size = peak_hist[_mask(subset)]
                divisor = 1 << (n - len(subset) - 1)
                if size % divisor:
                    return VerificationReport(
                        "spike-sum", params, False,
                        {"n": n, "subset": list(subset), "class_size": size,
                         "divisor": divisor})
                total += size // divisor
        if total != d:
            return VerificationReport(
                "spike-sum", params, False,
                {"n": n, "peak_expansion": total, "descent_count": d})
        checked += 1
    return VerificationReport("spike-sum", params, True, checked=checked)


def check_flip_bijection(i_set: Iterable[int], j_sub: Iterable[int],
                         n: int) -> VerificationReport:
    """Removing the spikes in J maps the J-flippable part of D(S_I,n)
    bijectively onto D(S_{I-J},n), preserving the initial-set condition.
    """
    i_set = tuple(sorted(set(i_set)))
    j_sub = tuple(sorted(set(j_sub)))
    if not _naive_admissible(i_set):
        raise ValueError(f"not an admissible peak set: {i_set}")
    if not set(j_sub) <= set(i_set):
        raise ValueError(f"{list(j_sub)} is not a subset of {list(i_set)}")
    if not (i_set[-1] if i_set else 0) < n:
        raise ValueError(f"need n > max(I), got I={list(i_set)}, n={n}")
    check_cost(math.factorial(n), f"scanning the permutations of {n}")
    params = {"i": list(i_set), "j": list(j_sub), "n": n}
    s_source = _naive_canonical_set(i_set, n)
    s_target = _naive_canonical_set(tuple(x for x in i_set if x not in j_sub), n)
    s_library = canonical_descent_set(i_set)
    if s_source != s_library:
        return VerificationReport(
            "flip-bijection", params, False,
            {"naive_descent_set": s_source, "library_descent_set": s_library})

    m = max(i_set) if i_set else 0
    domain = [sigma for sigma in _naive_class(_mask(s_source), n)
              if all(flips.admits_flip(sigma, j).admits for j in j_sub)]
    target_size = _descent_classes(n)[_mask(s_target)]

    images = set()
    for sigma in domain:
        image = flips.psi_set(sigma, j_sub)
        if _naive_descents(image) != s_target:
            return VerificationReport(
                "flip-bijection", params, False,
                {"sigma": sigma, "image": image,
                 "image_descents": _naive_descents(image),
                 "expected_descents": s_target})
        if image in images:
            return VerificationReport(
                "flip-bijection", params, False,
                {"duplicate_image": image, "sigma": sigma})
        images.add(image)
        sigma_k, image_k = _naive_overlap_k(sigma, m), _naive_overlap_k(image, m)
        if m and 2 * m <= n and sigma_k != image_k:
            return VerificationReport(
                "flip-bijection", params, False,
                {"sigma": sigma, "image": image, "sigma_k": sigma_k, "image_k": image_k})
    if len(domain) != target_size:
        return VerificationReport(
            "flip-bijection", params, False,
            {"domain_size": len(domain), "target_class_size": target_size})
    return VerificationReport("flip-bijection", params, True, checked=len(domain))


# ---------------------------------------------------------------------------
# Flip-admission tables
# ---------------------------------------------------------------------------

def _naive_table_blocks(i_set: Positions, m: int) -> list[list[Perm]]:
    """The rows of the flip-admission table by a full scan: in block k, the
    members of D(S_I,2m) that meet the initial-set rule with k, in the lex
    order of the shared descent scan."""
    blocks: list[list[Perm]] = [[] for _ in range(m + 1)]
    for sigma in _naive_class(_mask(_naive_canonical_set(i_set, 2 * m)), 2 * m):
        k = _naive_overlap_k(sigma, m)
        if k is not None:
            blocks[k].append(sigma)
    return blocks


def check_flip_table_partition(i_set: Iterable[int], m: int) -> VerificationReport:
    """The public flip-admission table lists the rows of a full scan, and
    its admission flags, read once from the table, partition each k-block
    so that rows admitting exactly the flips in I-J number the k-th
    coefficient of p(J,n), and whole blocks number the k-th coefficient
    of d(S_I,n).
    """
    i_set = tuple(sorted(set(i_set)))
    params = {"i": list(i_set), "m": m}
    check_cost(math.factorial(2 * m), f"scanning the permutations of {2 * m}")
    table = polynomials.flip_admission_table(i_set, m)
    for k, (want, block) in enumerate(zip(_naive_table_blocks(i_set, m), table.blocks)):
        got = [row.permutation for row in block]
        if want != got:
            return VerificationReport("flip-table", params, False,
                                      {"k": k, "scanned_rows": want, "table_rows": got})
    a = polynomials.descent_coeffs(canonical_descent_set(i_set), m)
    sizes = tuple(len(block) for block in table.blocks)
    if sizes != a.coeffs:
        return VerificationReport(
            "flip-table", params, False,
            {"block_sizes": sizes, "descent_coeffs": a.coeffs})
    checked = len(table.blocks)
    for r in range(len(i_set) + 1):
        for j_sub in itertools.combinations(i_set, r):
            b = polynomials.peak_coeffs(j_sub, m)
            admitted = tuple(x for x in i_set if x not in j_sub)
            pattern = table.pattern_counts(admitted)
            if pattern != b.coeffs:
                return VerificationReport(
                    "flip-table", params, False,
                    {"j": list(j_sub), "pattern_counts": pattern,
                     "peak_coeffs": b.coeffs})
            checked += len(table.blocks)
    return VerificationReport("flip-table", params, True, checked=checked)
