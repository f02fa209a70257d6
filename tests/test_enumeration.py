import collections
import itertools
import math
import re
import sys
import time

import pytest

import peakpoly as pp

import oracles


def all_sets(n):
    for r in range(n):
        yield from itertools.combinations(range(1, n), r)


def classes_by_scan(n, statistic):
    """Every class of S_n by ``statistic``, its members in lex order, from one scan."""
    classes = collections.defaultdict(list)
    for p in oracles.perms(n):
        classes[statistic(p)].append(p)
    return classes


def test_descent_class_matches_oracle():
    for n in range(1, 9):
        classes = classes_by_scan(n, oracles.descents)
        for s in all_sets(n):
            assert list(pp.enumerate_descent_class(pp.DescentClassQuery(s, n))) == classes[s]


def test_descent_class_golden():
    q = pp.DescentClassQuery((2, 3), 8)
    members = [p for p in pp.enumerate_descent_class(q)
               if not pp.initial_set(p, 4) & {5, 6, 7, 8}]
    assert members == [
        (1, 4, 3, 2, 5, 6, 7, 8),
        (2, 4, 3, 1, 5, 6, 7, 8),
        (3, 4, 2, 1, 5, 6, 7, 8),
    ]
    assert list(pp.enumerate_descent_class(pp.DescentClassQuery((), 5))) == [
        (1, 2, 3, 4, 5)
    ]
    assert len(list(pp.enumerate_descent_class(pp.DescentClassQuery((1,), 4)))) == 3


def test_streams_strictly_increasing():
    for s, n in (((1, 3), 6), ((2,), 5), ((2, 4), 6)):
        got = list(pp.enumerate_descent_class(pp.DescentClassQuery(s, n)))
        assert got == sorted(set(got))
        got = list(pp.enumerate_peak_class(pp.PeakClassQuery(s, n))) if \
            pp.is_admissible(s) else []
        assert got == sorted(set(got))


def test_query_validation():
    with pytest.raises(ValueError):
        pp.DescentClassQuery((3,), 3)
    with pytest.raises(ValueError):
        pp.DescentClassQuery((), 0)
    with pytest.raises(ValueError):
        pp.PeakClassQuery((4,), 4)
    q = pp.DescentClassQuery([3, 1], 5)
    assert q.descents == (1, 3)


def test_enumeration_cap():
    # A listing on n values takes the n(n+1) cells of two engine runs, so
    # D(∅,2236) goes over the step limit before either runs. P({3,6,9},12)
    # has 10,644,480 members, so its prefixes go over it.
    refused = (
        (lambda: pp.enumerate_descent_class(pp.DescentClassQuery((), 2236)),
         f"listing D({{}},2236) takes more than the limit of {pp.MAX_STEPS} steps"),
        (lambda: pp.enumerate_peak_class(pp.PeakClassQuery((3, 6, 9), 12)),
         f"listing P({{3,6,9}},12) takes 38312596 steps, over the limit of {pp.MAX_STEPS}"),
        (lambda: pp.parallel_count(pp.DescentClassQuery((), 2236), 2236),
         f"counting D({{}},2236) by prefixes of length 2236 takes more than the limit"),
    )
    for request, message in refused:
        start = time.perf_counter()
        with pytest.raises(pp.CapExceeded, match=f"^{re.escape(message)}"):
            request()
        assert time.perf_counter() - start < 1.0
    # D(∅,n) has one member, so its walk enters n prefixes.
    assert list(pp.enumerate_descent_class(pp.DescentClassQuery((), 30))) == \
        [tuple(range(1, 31))]
    assert pp.parallel_count(pp.DescentClassQuery((), 30), 30) == 1
    assert pp.parallel_count(pp.DescentClassQuery((1,), 13), 2) == 12


def test_sparse_classes_list_on_many_values(rng):
    # A search that enters every prefix right so far would enter 2^400 and
    # 35,384,516 prefixes here; the walk enters only prefixes of members.
    for s, n, size in (((), 400, 1), ((2, 4), 16, 8981)):
        members = list(pp.enumerate_descent_class(pp.DescentClassQuery(s, n)))
        assert len(members) == size == pp.count_descent_class(s, n)
        assert members == sorted(set(members))
        assert all(oracles.descents(p) == s for p in members)
        listed = set(members)
        assert all(oracles.sample_descent_class(s, n, rng) in listed for _ in range(40))


def test_a_long_listing_needs_no_recursion():
    limit = sys.getrecursionlimit()
    assert list(pp.enumerate_descent_class(pp.DescentClassQuery((), limit))) == \
        [tuple(range(1, limit + 1))]


def test_count_matches_enumeration():
    for n in range(1, 8):
        for s in all_sets(n):
            q = pp.DescentClassQuery(s, n)
            assert pp.count_descent_class(s, n) == \
                sum(1 for _ in pp.enumerate_descent_class(q))


def test_count_golden():
    assert pp.count_descent_class((2, 3), 8) == 85
    assert pp.count_descent_class((), 10) == 1
    assert pp.count_descent_class((1,), 9) == 8
    with pytest.raises(ValueError):
        pp.count_descent_class((3,), 3)


def test_count_large_n_is_cheap():
    # Engine counts have no cap; spot-check against the polynomial.
    poly = pp.descent_coeffs((2, 3), 4)
    for n in (20, 50, 100):
        assert pp.count_descent_class((2, 3), n) == poly.evaluate(n)


def test_descent_classes_partition_the_group():
    for n in range(1, 9):
        assert sum(pp.count_descent_class(s, n) for s in all_sets(n)) == \
            math.factorial(n)


def test_peak_class_matches_oracle():
    for n in range(1, 9):
        classes = classes_by_scan(n, oracles.peaks)
        for i in oracles.admissible_sets(n - 1):
            assert list(pp.enumerate_peak_class(pp.PeakClassQuery(i, n))) == classes[i]


def test_peak_class_golden():
    assert list(pp.enumerate_peak_class(pp.PeakClassQuery((2,), 3))) == [
        (1, 3, 2), (2, 3, 1)
    ]
    assert list(pp.enumerate_peak_class(pp.PeakClassQuery((1,), 5))) == []
    assert list(pp.enumerate_peak_class(pp.PeakClassQuery((), 3))) == [
        (1, 2, 3), (2, 1, 3), (3, 1, 2), (3, 2, 1)
    ]


def test_peak_classes_partition_the_group():
    for n in range(1, 9):
        total = sum(
            sum(1 for _ in pp.enumerate_peak_class(pp.PeakClassQuery(i, n)))
            for i in oracles.admissible_sets(max(n - 1, 1))
        )
        assert total == math.factorial(n)


def test_peak_poly_value():
    assert pp.peak_poly_value((2,), 3) == 1
    assert pp.peak_poly_value((), 4) == 1
    assert pp.peak_poly_value((2, 4), 5) == 4
    assert pp.peak_poly_value((2, 3), 6) == 0  # non-admissible
    assert pp.peak_poly_value((1,), 6) == 0
    for n in range(1, 8):
        for i in oracles.admissible_sets(n - 1):
            assert pp.peak_poly_value(i, n) == oracles.p_value(i, n)
    # 2^(n-|I|-1) divides every |P(I,n)|, so a size of 3 at I = {2}, n = 5 is a bug.
    with pytest.raises(ArithmeticError, match=r"\|P\(\{2\},5\)\| = 3 is not divisible by 2\^3"):
        pp.scale_peak_count(3, (2,), 5)


def test_parallel_count_depth_invariance():
    for query in (
        pp.DescentClassQuery((2, 3), 8),
        pp.DescentClassQuery((1, 4), 7),
        pp.PeakClassQuery((2, 4), 8),
        pp.PeakClassQuery((), 6),
    ):
        baseline = pp.parallel_count(query, 0)
        for depth in (1, 2, 3, query.n):
            assert pp.parallel_count(query, depth) == baseline


def test_parallel_count_agrees_with_closed_form():
    assert pp.parallel_count(pp.DescentClassQuery((2, 3), 8), 2) == 85
    assert pp.parallel_count(pp.PeakClassQuery((2, 4), 8), 2) == \
        pp.peak_poly_value((2, 4), 8) * 2 ** 5


def test_parallel_count_partitioned_peak_class_at_cap():
    i_set, n = (3, 6, 9), 12
    assert pp.parallel_count(pp.PeakClassQuery(i_set, n), 2) == \
        pp.peak_poly_via_moebius(i_set, n) * 2 ** (n - len(i_set) - 1)


def test_parallel_count_validation():
    query = pp.DescentClassQuery((1,), 5)
    with pytest.raises(ValueError):
        pp.parallel_count(query, 6)
    with pytest.raises(ValueError):
        pp.parallel_count(query, -1)
    assert pp.parallel_count(pp.PeakClassQuery((2, 3), 6), 1) == 0
    with pytest.raises(TypeError, match="unsupported query type: tuple"):
        pp.parallel_count(((1,), 5))


def test_non_admissible_peak_class_is_empty_at_once():
    # P({20,21},30) has no member, so both routes answer before any engine run.
    query = pp.PeakClassQuery((20, 21), 30)
    start = time.perf_counter()
    assert list(pp.enumerate_peak_class(query)) == []
    assert pp.parallel_count(query, 25) == 0
    assert time.perf_counter() - start < 0.5
