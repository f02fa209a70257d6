import itertools
import math
import time

import pytest

import peakpoly as pp
from peakpoly.core import check_cost

import oracles


def test_statistics_match_oracle_exhaustively():
    for n in range(1, 7):
        for p in oracles.perms(n):
            assert pp.descent_set(p) == oracles.descents(p)
            assert pp.peak_set(p) == oracles.peaks(p)
            assert pp.valley_set(p) == oracles.valleys(p)
            assert pp.spike_set(p) == oracles.spikes(p)


def test_descent_set_golden():
    assert pp.descent_set((2, 4, 3, 1, 5, 6, 7, 8)) == (2, 3)
    assert pp.descent_set(tuple(range(1, 9))) == ()
    assert pp.descent_set((3, -1, 2)) == (1,)


def test_peak_valley_golden():
    p = (3, 4, 2, 1, 5, 6, 7, 8)
    assert pp.peak_set(p) == (2,)
    assert pp.valley_set(p) == (4,)
    assert pp.spike_set(p) == (2, 4)
    assert pp.peak_set((2, 1, 4, 3, 5)) == (3,)
    assert pp.valley_set((2, 1, 4, 3, 5)) == (2, 4)


def test_signed_statistics_match_oracle(rng):
    for _ in range(2000):
        n = rng.randint(1, 10)
        base = oracles.random_perm(rng, n)
        signed = tuple(v * rng.choice((1, -1)) for v in base)
        assert pp.descent_set(signed) == oracles.descents(signed)
        assert pp.spike_set(signed) == oracles.spikes(signed)


def test_peaks_valleys_interior_and_disjoint():
    for n in range(1, 7):
        for p in oracles.perms(n):
            peaks, valleys = pp.peak_set(p), pp.valley_set(p)
            assert not set(peaks) & set(valleys)
            for i in peaks + valleys:
                assert 1 < i < n


def test_peak_set_equals_peaks_of_descent_set():
    for n in range(1, 8):
        for p in oracles.perms(n):
            s = pp.descent_set(p)
            assert pp.peak_set(p) == pp.peaks_of(s, n)
            assert pp.valley_set(p) == pp.valleys_of(s, n)


def test_peak_set_equals_peaks_of_descent_set_random(rng):
    for _ in range(2000):
        n = rng.randint(1, 12)
        p = oracles.random_perm(rng, n)
        s = pp.descent_set(p)
        assert pp.peak_set(p) == pp.peaks_of(s, n)
        assert pp.valley_set(p) == pp.valleys_of(s, n)
        assert pp.spike_set(p) == pp.spikes_of(s, n)


def test_set_level_statistics_golden():
    assert pp.peaks_of((2, 3), 8) == (2,)
    assert pp.valleys_of((2, 3), 8) == (4,)
    assert pp.spikes_of((2, 3), 8) == (2, 4)
    assert pp.peaks_of((1,), 8) == ()
    assert pp.valleys_of((1,), 8) == (2,)
    assert pp.spikes_of((1,), 8) == (2,)
    assert pp.spikes_of((), 8) == ()


def test_set_level_statistics_match_oracle():
    for n in range(2, 8):
        for r in range(n):
            for s in itertools.combinations(range(1, n), r):
                assert pp.peaks_of(s, n) == oracles.set_peaks(s, n)
                assert pp.valleys_of(s, n) == oracles.set_valleys(s, n)
                assert pp.spikes_of(s, n) == oracles.set_spikes(s, n)


def test_every_class_member_realizes_the_set_statistics():
    n = 6
    for r in range(n):
        for s in itertools.combinations(range(1, n), r):
            for p in oracles.descent_class(s, n):
                assert pp.spike_set(p) == pp.spikes_of(s, n)


def test_spikes_alternate_peak_valley():
    for n in range(2, 8):
        for r in range(n):
            for s in itertools.combinations(range(1, n), r):
                peaks = set(pp.peaks_of(s, n))
                kinds = ["P" if i in peaks else "V" for i in pp.spikes_of(s, n)]
                assert all(a != b for a, b in zip(kinds, kinds[1:]))


def test_is_admissible():
    assert pp.is_admissible((2, 4))
    assert pp.is_admissible(())
    assert pp.is_admissible((6,))
    assert not pp.is_admissible((2, 3))
    assert not pp.is_admissible((1, 3))
    assert not pp.is_admissible((1,))


def test_initial_set():
    assert pp.initial_set((2, 4, 3, 1, 5, 6, 7, 8), 4) == frozenset({1, 2, 3, 4})
    assert pp.initial_set((5, 7, 6, 1, 2, 3, 4, 8), 4) == frozenset({1, 5, 6, 7})
    p = (3, 1, 2)
    assert pp.initial_set(p, 3) == frozenset({1, 2, 3})
    with pytest.raises(ValueError):
        pp.initial_set(p, 0)
    with pytest.raises(ValueError):
        pp.initial_set(p, 4)


def test_initial_overlap_k():
    assert pp.initial_overlap_k((3, 4, 2, 1, 5, 6, 7, 8), 4) == 0
    assert pp.initial_overlap_k((5, 6, 2, 1, 3, 4, 7, 8), 4) == 2
    assert pp.initial_overlap_k((1, 5, 3, 2, 4, 6, 7, 8), 4) == 1
    assert pp.initial_overlap_k((6, 7, 5, 1, 2, 3, 4, 8), 4) == 3
    assert pp.initial_overlap_k((1, 2, 3, 6, 5, 4, 7, 8), 4) is None


def test_markings_cardinality_and_first_element():
    for n in range(1, 9):
        p = tuple(range(1, n + 1))
        marked = list(pp.markings(p))
        assert len(marked) == 2 ** n
        assert marked[0] == p
        assert len(set(marked)) == len(marked)
        assert all(tuple(abs(v) for v in m) == p for m in marked)


def test_markings_golden_n2():
    assert list(pp.markings((1, 2))) == [(1, 2), (1, -2), (-1, 2), (-1, -2)]


def test_markings_cap():
    # 2^24 markings go over the step limit; 2^13 stay inside it.
    start = time.perf_counter()
    with pytest.raises(pp.CapExceeded, match="takes 16777216 steps"):
        next(pp.markings(tuple(range(1, 25))))
    assert time.perf_counter() - start < 1.0
    assert len(list(pp.markings(tuple(range(1, 14))))) == 2 ** 13


def test_validators():
    assert pp.as_permutation([2, 1]) == (2, 1)
    for bad in ([], [1, 1], [0, 1], [2, 3]):
        with pytest.raises(ValueError):
            pp.as_permutation(bad)


def test_position_set_normalizes():
    assert pp.position_set([3, 2, 3]) == (2, 3)
    assert pp.position_set([]) == ()
    with pytest.raises(ValueError):
        pp.position_set([0, 2])
    with pytest.raises(ValueError):
        pp.position_set([5], n=5)
    assert pp.position_set([4], n=5) == (4,)
    assert pp.position_set([True, 3]) == (1, 3)


def test_non_integer_positions_raise_type_error():
    # Sorted in, 2.5 would be a position that no comparison decides, and
    # every count would be that of the set without it.
    with pytest.raises(TypeError):
        pp.position_set((2.5,))
    with pytest.raises(TypeError):
        pp.count_descent_class((2.5,), 5)
    with pytest.raises(TypeError):
        pp.descent_coeffs((2.5,), 3)


def test_check_cost():
    check_cost(pp.MAX_STEPS, "a request at the limit")
    limit = pp.MAX_STEPS
    with pytest.raises(pp.CapExceeded,
                       match=f"^one more takes {limit + 1} steps, over the limit of {limit}$"):
        check_cost(limit + 1, "one more")
    with pytest.raises(pp.CapExceeded, match=f"takes more than the limit of {limit} steps"):
        check_cost(math.inf, "a count that stopped early")
    assert issubclass(pp.CapExceeded, ValueError)
