"""Seeded query batches for each workload, and the check of each answer.

A query is a peakpoly subcommand with its arguments. Every batch has a
fixed composition: the seed picks sets, sizes and order inside strata
of similar cost, so that batches from different seeds cost about the
same and the run-to-run spread stays small. A run repeats its batch at
least MIN_PASSES times, so the 50-query batches still give the 100
samples a 90th percentile needs. All queries stay inside the
default enumeration cap of 12 and use only documented flags, with
``--format json`` so that the check reads structured output.
"""
from __future__ import annotations

import dataclasses
import itertools
import json
import math
import random

import reference as ref

BATCH_SIZES = {"count-mix": 100, "coeff-table": 50, "verify-sweep": 50}
MIN_PASSES = 2

# Backtracking work allowed for `count peak` at each n, in nodes times
# branching (see _peak_walk). Banding it bands the query's cost, which
# the class size alone does not: pruning depends on where the peaks sit.
PEAK_BANDS = {9: (120e3, 180e3), 10: (1.1e6, 1.3e6), 11: (1.5e6, 2.0e6)}

CLAIMS = ("marked-lemma", "spike-sum", "flip-bijection", "flip-table")


@dataclasses.dataclass(frozen=True)
class Query:
    kind: str
    args: tuple

    def argv(self) -> list[str]:
        a = self.args
        if self.kind == "count-descent":
            tail = ["count", "descent", _set_arg(a[0]), str(a[1])]
        elif self.kind == "count-peak":
            tail = ["count", "peak", _set_arg(a[0]), str(a[1])]
        elif self.kind in ("moebius", "expand"):
            tail = [self.kind, _set_arg(a[0]), str(a[1])]
        elif self.kind in ("descent-poly", "peak-poly"):
            tail = [self.kind, _set_arg(a[0]), "--center", str(a[1])]
        elif self.kind == "table1":
            tail = ["table1", "--set", _set_arg(a[0]), "--center", str(a[1])]
        elif self.kind == "flips":
            tail = ["flips", ",".join(map(str, a[0]))]
        elif self.kind == "verify":
            claim, max_n = a
            tail = ["verify", "--max-n", str(max_n)] + (["--claim", claim] if claim else [])
        else:
            raise ValueError(f"unknown query kind {self.kind!r}")
        return tail + ["--format", "json"]


def _set_arg(positions) -> str:
    return ",".join(map(str, positions)) if positions else "-"


def _peak_walk(i_set, n: int) -> int:
    """Work of a peak-pruned backtracking walk over the permutations of n.

    A prefix of length k survives when its decided positions 2..k-1
    carry exactly the peaks of I below k: there are C(n,k) value sets
    times |P(I cap [2,k-1], k)| orders, and each tries n-k+1 values.
    """
    return sum(
        math.comb(n, k) * ref.peak_class_size([i for i in i_set if i < k], k) * (n - k + 1)
        for k in range(1, n + 1)
    )


def _admissible_sets(low: int, high: int, max_size: int) -> list[tuple[int, ...]]:
    """Nonempty admissible peak sets inside [low, high], up to max_size members."""
    return [
        c for r in range(1, max_size + 1)
        for c in itertools.combinations(range(low, high + 1), r)
        if ref.admissible(c)
    ]


# ---------------------------------------------------------------------------
# Batches
# ---------------------------------------------------------------------------

def _count_mix(rng: random.Random) -> list[Query]:
    queries = []
    for i in range(49):  # |S| cycles through 1..16: 2^|S| inclusion-exclusion terms
        size = 1 + i % 16
        n = rng.randint(100, 200)
        queries.append(Query("count-descent", (tuple(sorted(rng.sample(range(1, n), size))), n)))
    small_sets = _admissible_sets(2, 11, 5)
    for _ in range(19):
        i_set = rng.choice(small_sets)
        queries.append(Query("moebius", (i_set, rng.randint(i_set[-1] + 1, 150))))
    for i in range(19):
        s = tuple(sorted(rng.sample(range(1, 11), 1 + i % 7)))
        queries.append(Query("expand", (s, rng.randint(s[-1] + 2, 60))))
    # Thirteen peak queries. The four at n = 11 are the costliest of the
    # batch and the eight at n = 10 fill the next 8% of a run's ranks, so
    # the 90th percentile falls inside one cost stratum.
    for n, repeats in ((9, 1), (10, 8), (11, 4)):
        lo, hi = PEAK_BANDS[n]
        band = [c for c in _admissible_sets(2, n - 1, 5) if lo <= _peak_walk(c, n) <= hi]
        queries.extend(Query("count-peak", (rng.choice(band), n)) for _ in range(repeats))
    return queries


def _coeff_table(rng: random.Random) -> list[Query]:
    queries = []
    for i in range(15):
        m = 2 + i % 5
        s = tuple(sorted(rng.sample(range(1, m + 1), rng.randint(1, m))))
        queries.append(Query("descent-poly", (s, m)))
    for i in range(15):
        m = 2 + i % 5
        queries.append(Query("peak-poly", (rng.choice(_admissible_sets(2, m, 3)), m)))
    # table1 scans all (2m)! permutations, so m = 5 (10! permutations)
    # costs ~10x any other query here and the same for every I. Six per
    # batch hold the top 12% of a run's ranks, so the 90th percentile
    # falls inside them.
    for m in (5,) * 6 + (4,) * 2 + (3,) * 2:
        queries.append(Query("table1", (rng.choice(_admissible_sets(2, m, 2)), m)))
    for _ in range(10):
        p = list(range(1, rng.randint(5, 12) + 1))
        rng.shuffle(p)
        queries.append(Query("flips", (tuple(p),)))
    return queries


def _verify_sweep(rng: random.Random) -> list[Query]:
    # verify has no inputs beyond the claim and --max-n, so the batch is a
    # fixed multiset and the seed only orders it.
    options = (None,) + CLAIMS
    queries = [Query("verify", (c, n)) for c in options for n in range(3, 7) for _ in range(2)]
    queries += [Query("verify", (None, 5)), Query("verify", (None, 6))]
    # The top 4% of a run's ranks are the whole suite at 8 and the
    # 2^7 * 7! marked-lemma scan; the next 12% are the n = 8 sweeps,
    # spike-sum (numpy tallies of all signed permutations) ahead of
    # flip-bijection, so the 90th percentile falls among the spike-sum runs.
    queries += [Query("verify", ("spike-sum", 8))] * 4 + [Query("verify", ("flip-bijection", 8))] * 2
    queries += [Query("verify", ("marked-lemma", 7)), Query("verify", (None, 8))]
    return queries


WORKLOADS = {"count-mix": _count_mix, "coeff-table": _coeff_table, "verify-sweep": _verify_sweep}


def build_batch(workload: str, seed: int) -> list[Query]:
    """The query batch of one workload; the same seed gives the same batch."""
    rng = random.Random(f"{workload}:{seed}")
    queries = WORKLOADS[workload](rng)
    rng.shuffle(queries)
    assert len(queries) == BATCH_SIZES[workload], (workload, len(queries))
    return queries


# ---------------------------------------------------------------------------
# Answer check
# ---------------------------------------------------------------------------

def check_answer(q: Query, exit_code: int, stdout: bytes) -> str | None:
    """None when the answer is right, else a one-line reason."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        data = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    try:
        return CHECKS[q.kind](q.args, data)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return f"malformed answer: {exc!r}"


def _check_count_descent(args, data):
    s, n = args
    want = ref.descent_count(s, n)
    return None if int(data["count"]) == want else f"count {data['count']} != {want}"


def _check_count_peak(args, data):
    i_set, n = args
    size, value = ref.peak_class_size(i_set, n), ref.peak_value(i_set, n)
    if (int(data["class_size"]), int(data["scaled_count"])) != (size, value):
        return f"got {data['class_size']}/{data['scaled_count']}, want {size}/{value}"
    return None


def _check_moebius(args, data):
    i_set, n = args
    if int(data["value"]) != ref.peak_value(i_set, n):
        return f"p({i_set},{n}) = {data['value']}"
    want = {
        sub: (ref.canonical_descents(sub), -1 if (len(i_set) - len(sub)) % 2 else 1)
        for r in range(len(i_set) + 1) for sub in itertools.combinations(i_set, r)
    }
    got = {tuple(t["subset"]): t for t in data["terms"]}
    if set(got) != set(want):
        return "wrong subsets in the inversion"
    for sub, (s_j, sign) in want.items():
        t = got[sub]
        if (tuple(t["descent_set"]), t["sign"], int(t["value"])) != (s_j, sign, ref.descent_count(s_j, n)):
            return f"wrong term for J={sub}"
    return None


def _check_expand(args, data):
    s, n = args
    d = ref.descent_count(s, n)
    if int(data["descent_count"]) != d:
        return f"d({s},{n}) = {data['descent_count']} != {d}"
    spikes = ref.set_spikes(s, n)
    if tuple(data["spikes"]) != spikes:
        return f"spikes {data['spikes']} != {spikes}"
    want = {
        sub for r in range(len(spikes) + 1)
        for sub in itertools.combinations(spikes, r) if ref.admissible(sub)
    }
    got = {tuple(t["spikes"]): int(t["value"]) for t in data["terms"]}
    if set(got) != want:
        return "wrong spike subsets"
    for sub, value in got.items():
        if value != ref.peak_value(sub, n):
            return f"p({sub},{n}) = {value}"
    if sum(got.values()) != d:
        return "peak terms do not sum to d(S,n)"
    return None


def _check_polynomial(data, center, value_at, low):
    """Coefficients against C(n-center, k) must agree with value_at(n) at
    center+2 points n > low, n >= center; the polynomial has degree at
    most center, so agreement on that many points fixes every coefficient."""
    coeffs = [int(c) for c in data["coeffs"]]
    if data["center"] != center or len(coeffs) != center + 1:
        return f"center {data['center']} with {len(coeffs)} coefficients"
    first = max(low + 1, center)
    for n in range(first, first + center + 2):
        if ref.binomial_value(coeffs, center, n) != value_at(n):
            return f"coefficients {coeffs} disagree at n={n}"
    return None


def _check_descent_poly(args, data):
    s, m = args
    return _check_polynomial(data, m, lambda n: ref.descent_count(s, n), max(s))


def _check_peak_poly(args, data):
    i_set, m = args
    return _check_polynomial(data, m, lambda n: ref.peak_value(i_set, n), max(i_set))


def _check_table1(args, data):
    i_set, m = args
    if tuple(data["spike_set"]) != i_set or data["center"] != m:
        return "wrong table header"
    s = ref.canonical_descents(i_set)
    blocks = data["blocks"]
    sizes = [len(b["rows"]) for b in blocks]
    # The block sizes must be the coefficients of d(S_I, n) at center m.
    reason = _check_polynomial({"center": m, "coeffs": sizes}, m,
                               lambda n: ref.descent_count(s, n), max(s, default=0))
    if reason:
        return f"block sizes: {reason}"
    high = set(range(m + 1, 2 * m + 1))
    for k, block in enumerate(blocks):
        for row in block["rows"]:
            p = tuple(row["permutation"])
            if sorted(p) != list(range(1, 2 * m + 1)) or ref.perm_descents(p) != s:
                return f"row {p} is not in D(S_I,2m)"
            if set(p[:m]) & high != set(range(m + 1, m + k + 1)):
                return f"row {p} is in the wrong block k={k}"
            flags = {int(i): flag for i, flag in row["admits"].items()}
            if flags != {i: any(ref.flip_admission(p, i)) for i in i_set}:
                return f"wrong admission flags for {p}"
    return None


def _check_flips(args, data):
    (p,) = args
    spikes = ref.perm_spikes(p)
    if tuple(data["permutation"]) != p or tuple(data["spikes"]) != spikes:
        return "wrong permutation or spikes"
    if [e["position"] for e in data["profile"]] != list(spikes):
        return "profile positions differ from the spikes"
    peaks = set(ref.perm_peaks(p))
    for e in data["profile"]:
        i = e["position"]
        plus, minus = ref.flip_admission(p, i)
        if (e["kind"], e["plus"], e["minus"], e["admits"]) != (
                "peak" if i in peaks else "valley", plus, minus, plus or minus):
            return f"wrong admission at {i}"
        if plus or minus:
            image = ref.flip(p, i if plus else i - 1)
            if tuple(e["image"]) != image:
                return f"wrong image at {i}"
    return None


def _check_verify(args, data):
    if not data:
        return "no reports"
    failed = [r["claim"] for r in data if not r["passed"]]
    return f"reports failed: {failed}" if failed else None


CHECKS = {
    "count-descent": _check_count_descent,
    "count-peak": _check_count_peak,
    "moebius": _check_moebius,
    "expand": _check_expand,
    "descent-poly": _check_descent_poly,
    "peak-poly": _check_peak_poly,
    "table1": _check_table1,
    "flips": _check_flips,
    "verify": _check_verify,
}
