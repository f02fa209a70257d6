"""Brute-force cross-checks of the package's combinatorial identities.

Every check here recomputes its ground truth with naive scans that
deliberately share no code with the operations under test: descents and
spikes are re-derived from raw value comparisons, set-level spikes from
direction changes of the up-down word, and class sizes and the marked
lemma's tallies from exhaustive sweeps of the full symmetric or signed
symmetric group. Each whole-group scan runs once per n in a process and
is shared by the checks that read it: the flip checks read every
permutation's naive descent set from one pure-Python scan, kept as a
compact array of bitmasks, and the numpy sweeps hold every permutation
of n as one column of an n x n! array and read the statistics of all
columns at once as bitmasks, one row comparison per position; tests pin
those scans to the per-tuple statistics. A full scan also rebuilds the
flip-admission table of ``polynomials``, the reference it is checked
against. A failing check reports the first counterexample in full.
"""
from __future__ import annotations

import array
import copy
import functools
import itertools
import math
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence

from . import enumeration, flips, polynomials
from .core import Perm, Positions, Record, check_cost

if TYPE_CHECKING:
    import numpy as np


class VerificationReport(Record):
    """Outcome of one claim check over one parameter choice."""

    __slots__ = ("claim", "params", "passed", "counterexample", "checked")

    def __init__(self, claim: str, params: dict[str, Any], passed: bool,
                 counterexample: dict[str, Any] | None = None, checked: int = 0):
        if not passed and counterexample is None:
            raise ValueError("a failing report must carry a counterexample")
        self._set(claim, params, passed, counterexample, checked)

    def to_json_dict(self) -> dict[str, Any]:
        """The fields by name, as plain copies: ``_plain`` of the report."""
        return _plain(self)


def _plain(value: Any) -> Any:
    """``value`` with every Record in it, however deep in lists, tuples and
    dicts, turned into a dict of its fields, and every other leaf copied,
    as ``dataclasses.asdict`` does."""
    if isinstance(value, Record):
        return {name: _plain(getattr(value, name)) for name in value.__slots__}
    if isinstance(value, (list, tuple)):
        return type(value)(_plain(item) for item in value)
    if isinstance(value, dict):
        return type(value)((_plain(k), _plain(v)) for k, v in value.items())
    return copy.deepcopy(value)


# ---------------------------------------------------------------------------
# Local naive statistics (the oracle side; no shared code with core)
# ---------------------------------------------------------------------------

def _naive_descents(seq: Sequence[int]) -> Positions:
    out = []
    for i in range(len(seq) - 1):
        if seq[i] > seq[i + 1]:
            out.append(i + 1)
    return tuple(out)


def _naive_spikes(seq: Sequence[int]) -> Positions:
    out = []
    for i in range(1, len(seq) - 1):
        if seq[i - 1] < seq[i] > seq[i + 1] or seq[i - 1] > seq[i] < seq[i + 1]:
            out.append(i + 1)
    return tuple(out)


def _naive_peaks(seq: Sequence[int]) -> Positions:
    return tuple(
        i + 1 for i in range(1, len(seq) - 1)
        if seq[i - 1] < seq[i] > seq[i + 1]
    )


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
    """Every permutation of n, in lex order: the one source of the
    whole-group scans, which run once per n and are shared by the checks
    (``_descent_scan``, ``_perm_columns``), and of the class members read
    from them."""
    return itertools.permutations(range(1, n + 1))


@functools.lru_cache(maxsize=8)
def _descent_scan(n: int) -> array.array:
    """The naive descent set of every permutation of n as a bitmask, in
    the lex order of ``_all_perms``: one scan per n, shared by the flip
    checks.

    Two bytes per permutation instead of its tuple, so n = 10 fits in
    7 MB; numpy-free, so the flip checks leave numpy unloaded.
    """
    # Masks are looked up, not built per permutation: _mask on each of
    # the n! descent sets would almost double the scan's cost.
    masks = {c: _mask(c) for r in range(n) for c in itertools.combinations(range(1, n), r)}
    return array.array("H", map(masks.__getitem__, map(_naive_descents, _all_perms(n))))


def _naive_class(s: Positions, n: int) -> Iterator[Perm]:
    """The members of D(S,n) in lex order, read from the shared scan."""
    return itertools.compress(_all_perms(n), map(_mask(s).__eq__, _descent_scan(n)))


@functools.lru_cache(maxsize=8)
def _perm_columns(n: int) -> np.ndarray:
    """Every permutation of n as one column of an n x n! array, in lex order.

    Row i holds the value at position i+1 of every permutation, so a
    comparison of two positions reads two contiguous rows. The values
    stream from ``_all_perms`` straight into the array, once per n.
    """
    import numpy as np  # the sweeps alone need numpy; keep it off the CLI's start-up

    values = np.fromiter(itertools.chain.from_iterable(_all_perms(n)), dtype=np.int16,
                         count=n * math.factorial(n))
    return np.ascontiguousarray(values.reshape(-1, n).T)


# Position sets of the columns as bitmasks, bit i for position i as in
# ``_mask``: uint16 holds positions up to 15, past every swept n.

def _descent_bits(cols: np.ndarray) -> np.ndarray:
    """Each column's descent set as a bitmask."""
    import numpy as np

    bits = np.zeros(cols.shape[1], dtype=np.uint16)
    for i in range(1, len(cols)):
        bits |= (cols[i - 1] > cols[i]).astype(np.uint16) << i
    return bits


def _turn_bits(cols: np.ndarray, valleys: bool) -> np.ndarray:
    """Each column's peak set as a bitmask; its spike set when ``valleys``."""
    import numpy as np

    bits = np.zeros(cols.shape[1], dtype=np.uint16)
    for i in range(1, len(cols) - 1):
        rise, fall = cols[i - 1] < cols[i], cols[i] > cols[i + 1]
        turn = rise == fall if valleys else rise & fall
        bits |= turn.astype(np.uint16) << (i + 1)
    return bits


def _signed(cols: np.ndarray) -> Iterator[tuple[tuple[int, ...], np.ndarray]]:
    """Every sign pattern of the rows, with its signed copy of ``cols``."""
    import numpy as np

    for signs in itertools.product((1, -1), repeat=len(cols)):
        yield signs, cols * np.array(signs, dtype=np.int16)[:, None]


@functools.lru_cache(maxsize=8)
def _signed_descent_histogram(n: int) -> np.ndarray:
    """Counts of signed permutations of n per descent-set bitmask.

    The comparison a*sigma_i > b*sigma_{i+1} of each position is made once
    per sign pair (a, b), as a bit row; the descent bitmasks of a sign
    pattern's signed columns are the OR of its rows.
    """
    import numpy as np

    cols = _perm_columns(n)
    rows = {(i, a, b): (a * cols[i - 1] > b * cols[i]).astype(np.uint16) << i
            for i in range(1, n) for a in (1, -1) for b in (1, -1)}
    counts = np.zeros(1 << n, dtype=np.int64)
    for signs in itertools.product((1, -1), repeat=n):
        bits = np.zeros(cols.shape[1], dtype=np.uint16)
        for i in range(1, n):
            bits |= rows[i, signs[i - 1], signs[i]]
        counts += np.bincount(bits, minlength=1 << n)
    return counts


@functools.lru_cache(maxsize=8)
def _peak_class_histogram(n: int) -> np.ndarray:
    """Counts of plain permutations of n per peak-set bitmask."""
    import numpy as np

    return np.bincount(_turn_bits(_perm_columns(n), valleys=False), minlength=1 << n)


# ---------------------------------------------------------------------------
# Claim checks
# ---------------------------------------------------------------------------

def check_marked_lemma(n: int) -> VerificationReport:
    """All sign patterns of any permutation keep its peaks among their spikes,
    and each qualifying descent set is hit by exactly 2^(|I|+1) patterns.

    Exhausts the 2^n * n! signed permutations of n, one sign pattern at a
    time over every permutation at once: n <= 7 under the step limit.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    check_cost(2 ** n * math.factorial(n), f"scanning the signed permutations of {n}")
    import numpy as np

    params = {"n": n}
    cols = _perm_columns(n)

    def sigma(column: int) -> Perm:
        return tuple(int(v) for v in cols[:, column])

    peaks = _turn_bits(cols, valleys=False)
    # tally[c, D]: sign patterns of column c whose descent set has mask D.
    tally = np.zeros((cols.shape[1], 1 << n), dtype=np.int16)
    every_column = np.arange(cols.shape[1])
    for signs, signed in _signed(cols):
        lost = np.flatnonzero(peaks & ~_turn_bits(signed, valleys=True))
        if lost.size:
            perm = sigma(lost[0])
            rho = tuple(s * v for s, v in zip(signs, perm))
            return VerificationReport(
                "marked-lemma", params, False,
                {"sigma": perm, "rho": rho, "peaks": list(_naive_peaks(perm)),
                 "rho_spikes": _naive_spikes(rho)})
        tally[every_column, _descent_bits(signed)] += 1
    all_sets = [
        frozenset(c)
        for r in range(n)
        for c in itertools.combinations(range(1, n), r)
    ]
    set_spikes = np.array([_mask(_naive_set_spikes(s, n)) for s in all_sets], dtype=np.uint16)
    popcount = np.array([bin(m).count("1") for m in range(1 << n)], dtype=np.int16)
    expected = np.int16(2) << popcount[peaks]
    want = np.where((peaks[:, None] & ~set_spikes) == 0, expected[:, None], np.int16(0))
    got = tally[:, [_mask(s) for s in all_sets]]
    wrong = np.argwhere(got != want)
    if len(wrong):
        column, k = wrong[0]
        return VerificationReport(
            "marked-lemma", params, False,
            {"sigma": sigma(column), "descent_set": sorted(all_sets[k]),
             "count": int(got[column, k]), "expected": int(want[column, k])})
    return VerificationReport("marked-lemma", params, True, checked=int(want.size))


def check_spike_sum(s: Iterable[int], n_range: Iterable[int]) -> VerificationReport:
    """Signed permutations with descent set S number 2^n * d(S,n), and d(S,n)
    equals the sum of exhaustively tallied peak-class counts, each scaled
    by its power of 2, over the admissible spike subsets of S.
    """
    s = tuple(sorted(set(s)))
    ns = sorted(n_range)
    if not ns:
        raise ValueError("n_range is empty: a check over no n checks nothing")
    params = {"s": list(s), "n_range": ns}
    checked = 0
    for n in ns:
        # A hand ceiling: steps measure neither the numpy tallies nor their n! memory.
        if not (s[-1] if s else 0) < n <= 8:
            raise ValueError(f"need max(S) < n <= 8, got S={list(s)}, n={n}")
        d = enumeration.count_descent_class(s, n)
        signed_count = int(_signed_descent_histogram(n)[_mask(s)])
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
                size = int(peak_hist[_mask(subset)])
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
    if s_source != flips.canonical_descent_set(i_set):
        return VerificationReport(
            "flip-bijection", params, False,
            {"naive_descent_set": s_source,
             "library_descent_set": flips.canonical_descent_set(i_set)})

    m = max(i_set) if i_set else 0

    def overlap_k(p: Perm) -> int | None:
        hit = set(p[:m]) & set(range(m + 1, 2 * m + 1))
        return len(hit) if hit == set(range(m + 1, m + 1 + len(hit))) else None

    domain = [sigma for sigma in _naive_class(s_source, n)
              if all(flips.admits_flip(sigma, j).admits for j in j_sub)]
    target_size = _descent_scan(n).count(_mask(s_target))

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
        if m and 2 * m <= n and overlap_k(sigma) != overlap_k(image):
            return VerificationReport(
                "flip-bijection", params, False,
                {"sigma": sigma, "image": image,
                 "sigma_k": overlap_k(sigma), "image_k": overlap_k(image)})
    if len(domain) != target_size:
        return VerificationReport(
            "flip-bijection", params, False,
            {"domain_size": len(domain), "target_class_size": target_size})
    return VerificationReport("flip-bijection", params, True, checked=len(domain))


# ---------------------------------------------------------------------------
# Flip-admission tables
# ---------------------------------------------------------------------------

def _naive_flip_table(i_set: Positions, m: int) -> polynomials.FlipTable:
    """The flip-admission table rebuilt by a full scan of the 2m-permutations,
    whose members of D(S_I,2m) it reads from the shared descent scan.

    Only the admission flags come from the flips module, since those are
    the quantity the table exists to exhibit.
    """
    s_target = _naive_canonical_set(i_set, 2 * m)
    blocks: list[list[polynomials.FlipTableRow]] = [[] for _ in range(m + 1)]
    high = set(range(m + 1, 2 * m + 1))
    for sigma in _naive_class(s_target, 2 * m):
        hit = set(sigma[:m]) & high
        k = len(hit)
        if hit != set(range(m + 1, m + 1 + k)):
            continue
        admits = tuple(flips.admits_flip(sigma, i).admits for i in i_set)
        blocks[k].append(polynomials.FlipTableRow(sigma, admits))
    return polynomials.FlipTable(i_set, m, tuple(map(tuple, blocks)))


def check_flip_table_partition(i_set: Iterable[int], m: int) -> VerificationReport:
    """The public flip-admission table equals a full scan, and the admission
    patterns of the scan partition each k-block so that rows admitting
    exactly the flips in I-J number the k-th coefficient of p(J,n), and
    whole blocks number the k-th coefficient of d(S_I,n).
    """
    i_set = tuple(sorted(set(i_set)))
    params = {"i": list(i_set), "m": m}
    check_cost(math.factorial(2 * m), f"scanning the permutations of {2 * m}")
    public = polynomials.flip_admission_table(i_set, m)
    table = _naive_flip_table(i_set, m)
    for k, (want, got) in enumerate(zip(table.blocks, public.blocks)):
        if want != got:
            return VerificationReport("flip-table", params, False,
                                      {"k": k, "scanned_rows": want, "table_rows": got})
    a = polynomials.descent_coeffs(flips.canonical_descent_set(i_set), m)
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
