"""Property tests of the exact counting engine against independent routes.

Sets and sizes are drawn at random; the examples are derandomized so
the suite stays reproducible, and capped so it stays fast.
"""
from hypothesis import given, settings, strategies as st

import peakpoly as pp

import oracles

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def sets_and_sizes(draw, min_n=1, max_n=7, max_size=None):
    """(positions, n) with every position in 1..n-1."""
    n = draw(st.integers(min_n, max_n))
    if n == 1:
        return (), n
    positions = draw(st.sets(st.integers(1, n - 1), max_size=max_size))
    return tuple(sorted(positions)), n


@PROPERTY
@given(sets_and_sizes())
def test_descent_count_matches_brute_force(case):
    s, n = case
    assert pp.count_descent_class(s, n) == len(oracles.descent_class(s, n))


@PROPERTY
@given(sets_and_sizes(), st.data())
def test_peak_count_matches_brute_force(case, data):
    i_set, n = case
    members = oracles.peak_class(i_set, n)
    depth = data.draw(st.integers(0, n), label="depth")
    assert pp.parallel_count(pp.PeakClassQuery(i_set, n), depth) == len(members)
    if pp.is_admissible(i_set):
        assert pp.peak_poly_value(i_set, n) == oracles.p_value(i_set, n)


@PROPERTY
@given(sets_and_sizes(min_n=2, max_n=80, max_size=10))
def test_descent_count_matches_inclusion_exclusion(case):
    s, n = case
    assert pp.count_descent_class(s, n) == \
        oracles.descent_count_by_inclusion_exclusion(s, n)


@settings(PROPERTY, max_examples=30)
@given(sets_and_sizes(max_n=8), st.booleans(), st.data())
def test_partitioned_count_matches_depth_zero(case, peaks, data):
    positions, n = case
    query = (pp.PeakClassQuery if peaks else pp.DescentClassQuery)(positions, n)
    depth = data.draw(st.integers(0, n), label="depth")
    assert pp.parallel_count(query, depth) == pp.parallel_count(query, 0)
