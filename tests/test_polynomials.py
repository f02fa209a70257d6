import contextlib
import itertools
import time

import pytest

import peakpoly as pp
from peakpoly import enumeration, polynomials

import oracles


def test_binomial():
    assert pp.binomial(4, 2) == 6
    assert pp.binomial(4, 0) == 1
    assert pp.binomial(2, 5) == 0
    assert pp.binomial(0, 0) == 1
    # Negative upper argument follows the polynomial extension.
    assert [pp.binomial(-1, k) for k in range(4)] == [1, -1, 1, -1]
    assert pp.binomial(-2, 2) == 3
    with pytest.raises(ValueError):
        pp.binomial(3, -1)
    with pytest.raises(TypeError):
        pp.binomial(2.5, 2)


def test_polynomial_construction():
    poly = pp.BinomialPolynomial(4, (3, 8, 7, 2, 0))
    assert poly.center == 4
    assert poly.coeffs == (3, 8, 7, 2, 0)
    assert poly.degree == 3
    with pytest.raises(ValueError):
        pp.BinomialPolynomial(4, (1, 2))
    with pytest.raises(ValueError):
        pp.BinomialPolynomial(-1, ())


def test_polynomial_refuses_non_integers():
    # Each of these was silently wrong: 1.9 truncated to 1, a float center
    # made a float value, and C(2.5, 2) = 1.875 was read as C(2, 2) = 1.
    with pytest.raises(TypeError):
        pp.BinomialPolynomial(2, [1.9, 0, 0])
    with pytest.raises(TypeError):
        pp.BinomialPolynomial(2.0, [1, 2, 3])
    poly = pp.BinomialPolynomial(2, [0, 0, 1])
    with pytest.raises(TypeError):
        poly.evaluate(4.5)
    with pytest.raises(TypeError):
        poly.recenter(3.0)
    assert pp.BinomialPolynomial(True, [False, True]) == pp.BinomialPolynomial(1, (0, 1))
    assert poly.evaluate(4) == 1 and type(poly.evaluate(4)) is int


def test_polynomial_evaluation():
    poly = pp.BinomialPolynomial(4, (3, 8, 7, 2, 0))
    assert poly.evaluate(8) == 85
    assert poly.evaluate(4) == 3
    assert poly(5) == 11
    assert pp.BinomialPolynomial(4, (0, 4, 4, 1, 0)).evaluate(6) == 12


def test_polynomial_evaluation_below_center_warns():
    poly = pp.BinomialPolynomial(2, (1, 1, 0))
    with pytest.warns(UserWarning):
        value = poly.evaluate(1)
    assert value == 0  # d({1},n) = n-1 extrapolates to 0 at n=1


def test_stepped_evaluation_is_the_per_term_binomial_sum(rng):
    # Random coefficient vectors at n below zero, below the center, at it
    # and far above it: each stepped C(n-center, k) is the generalized one.
    for _ in range(40):
        center = rng.randrange(16)
        poly = pp.BinomialPolynomial(
            center, [rng.randint(-10 ** 6, 10 ** 6) for _ in range(center + 1)])
        below = [rng.randrange(-30, center) for _ in range(3)]
        above = [rng.randrange(center, 10 ** 6) for _ in range(3)]
        for n in [*below, center, *above]:
            want = sum(c * pp.binomial(n - center, k) for k, c in enumerate(poly.coeffs))
            with pytest.warns(UserWarning) if n < center else contextlib.nullcontext():
                assert poly.evaluate(n) == want, (poly, n)


def test_json_round_trip():
    poly = pp.BinomialPolynomial(4, (3, 8, 7, 2, 0))
    data = poly.to_json_dict()
    assert data == {
        "basis": "binomial",
        "center": 4,
        "coeffs": ["3", "8", "7", "2", "0"],
    }


def test_csv_and_display_forms():
    poly = pp.BinomialPolynomial(2, (2, 1, 0))
    assert poly.csv_rows() == [(0, 2), (1, 1), (2, 0)]
    assert poly.pretty() == "2 C(n-2,0) + 1 C(n-2,1) + 0 C(n-2,2)"


def test_recenter_identity_and_consistency(rng):
    poly = pp.descent_coeffs((1,), 1)
    assert poly.recenter(1) == poly
    lifted = poly.recenter(4)
    assert lifted == pp.descent_coeffs((1,), 4)
    for _ in range(20):
        n = rng.randint(4, 60)
        assert lifted.evaluate(n) == poly.evaluate(n)


def test_recenter_down_requires_degree_room():
    poly = pp.BinomialPolynomial(4, (3, 8, 7, 2, 0))  # degree 3
    down = poly.recenter(3)
    assert down.center == 3
    assert all(down.evaluate(n) == poly.evaluate(n) for n in range(4, 15))
    with pytest.raises(ValueError):
        poly.recenter(2)
    with pytest.raises(ValueError, match="center must be nonnegative"):
        pp.BinomialPolynomial(2, (1, 0, 0)).recenter(-1)


def test_prefix_interval_class_matches_filter():
    for m in range(1, 4):
        for r in range(m + 1):
            for s in itertools.combinations(range(1, m + 1), r):
                for k in range(m + 1):
                    want = [
                        p for p in oracles.descent_class(s, 2 * m)
                        if set(p[:m]) & set(range(m + 1, 2 * m + 1))
                        == set(range(m + 1, m + 1 + k))
                    ]
                    got = list(pp.prefix_interval_class(s, m, k))
                    assert got == want


def test_a_table_and_a_block_run_the_engine_twice(monkeypatch):
    # One run prices the head class D(S ∩ [1,m-1], m) and gives its size h,
    # and one walk lists it; the table's price reads that h.
    runs = []
    layers = enumeration._layers
    monkeypatch.setattr(enumeration, "_layers", lambda *args: runs.append(args) or layers(*args))
    for build in (lambda: pp.flip_admission_table((2, 4), 4),
                  lambda: list(pp.prefix_interval_class((2, 3), 4, 2))):
        runs.clear()
        build()
        assert len(runs) == 2


def test_prefix_interval_class_golden():
    got = list(pp.prefix_interval_class((2, 3), 4, 0))
    assert got == [
        (1, 4, 3, 2, 5, 6, 7, 8),
        (2, 4, 3, 1, 5, 6, 7, 8),
        (3, 4, 2, 1, 5, 6, 7, 8),
    ]
    assert list(pp.prefix_interval_class((2, 3), 4, 3)) == [
        (5, 7, 6, 1, 2, 3, 4, 8),
        (6, 7, 5, 1, 2, 3, 4, 8),
    ]
    with pytest.raises(ValueError, match=r"k must be in 0\.\.3, got 4"):
        pp.prefix_interval_class((2,), 3, 4)


def test_descent_coeffs_golden():
    assert pp.descent_coeffs((2, 3), 4).coeffs == (3, 8, 7, 2, 0)
    assert pp.descent_coeffs((), 0).coeffs == (1,)
    assert pp.descent_coeffs((1,), 1).coeffs == (0, 1)
    assert pp.descent_coeffs((1,), 2).coeffs == (1, 1, 0)


def test_descent_coeffs_validation():
    with pytest.raises(ValueError):
        pp.descent_coeffs((2, 3), 2)
    # One engine run to 2m+1 and its differences take about 5m^2/2 steps:
    # m = 2000 goes over the step limit, while m = 400 stays under it.
    with pytest.raises(pp.CapExceeded, match="steps"):
        pp.descent_coeffs((2,), 2000)
    assert pp.descent_coeffs((2,), 400).evaluate(1000) == pp.count_descent_class((2,), 1000)
    assert pp.descent_coeffs((2,), 7).evaluate(8) == pp.count_descent_class((2,), 8)


def test_coefficient_steps_are_one_run_and_its_differences():
    # (2m+1)(m+1) cells to length 2m+1 plus m(m+1)/2 differences: the
    # last center under the step limit is 1413.
    assert pp.descent_coeffs((), 1413).coeffs == (1,) + (0,) * 1413
    with pytest.raises(pp.CapExceeded, match="takes 5003440 steps"):
        pp.peak_coeffs((), 1414)


def test_descent_coeffs_evaluate_matches_counts():
    for top in range(0, 5):
        for r in range(top + 1):
            for s in itertools.combinations(range(1, top + 1), r):
                low = max(s) if s else 0
                for m in range(low, 6):
                    poly = pp.descent_coeffs(s, m)
                    for n in range(m + 1, 13):
                        assert poly.evaluate(n) == pp.count_descent_class(s, n)


def test_peak_coeffs_golden():
    assert pp.peak_coeffs((2, 4), 4).coeffs == (0, 4, 4, 1, 0)
    assert pp.peak_coeffs((2,), 4).coeffs == (2, 1, 0, 0, 0)
    assert pp.peak_coeffs((4,), 4).coeffs == (0, 3, 3, 1, 0)
    assert pp.peak_coeffs((), 4).coeffs == (1, 0, 0, 0, 0)
    assert pp.peak_coeffs((2,), 2).coeffs == (0, 1, 0)


def test_peak_coeffs_validation():
    with pytest.raises(ValueError):
        pp.peak_coeffs((2, 3), 4)
    with pytest.raises(ValueError):
        pp.peak_coeffs((2, 4), 3)


def test_peak_coeffs_evaluation_matches_peak_poly_value():
    for i_set in oracles.admissible_sets(4):
        poly = pp.peak_coeffs(i_set, max(i_set) if i_set else 0)
        for n in range((max(i_set) if i_set else 0) + 1, 9):
            assert poly.evaluate(n) == pp.peak_poly_value(i_set, n)


def test_family_sum_reproduces_descent_coeffs():
    total = [0] * 5
    for i_set in ((2, 4), (2,), (4,), ()):
        for k, c in enumerate(pp.peak_coeffs(i_set, 4).coeffs):
            total[k] += c
    assert tuple(total) == pp.descent_coeffs((2, 3), 4).coeffs


def test_descent_poly_via_peaks():
    assert pp.descent_poly_via_peaks((2, 3), 8) == 85
    assert pp.descent_poly_via_peaks((), 6) == 1
    for k in range(2, 5):
        n = 8
        assert pp.descent_poly_via_peaks((k,), n) == \
            pp.peak_poly_value((k,), n) + pp.peak_poly_value((k + 1,), n) + 1
    for top in range(0, 5):
        for r in range(top + 1):
            for s in itertools.combinations(range(1, top + 1), r):
                for n in range(top + 1, 9):
                    assert pp.descent_poly_via_peaks(s, n) == \
                        pp.count_descent_class(s, n)


def test_spike_terms_list_the_admissible_subsets():
    assert polynomials.spike_terms((2, 3), 8) == [((), 1), ((2,), 6), ((4,), 34), ((2, 4), 44)]
    terms = polynomials.spike_terms((1, 3), 5)  # spikes {2,3,4}
    assert [j for j, _ in terms] == [(), (2,), (3,), (4,), (2, 4)]
    assert sum(value for _, value in terms) == pp.count_descent_class((1, 3), 5)
    # The spikes come from S alone, so the refusal costs nothing at any n.
    start = time.perf_counter()
    with pytest.raises(pp.CapExceeded, match="steps, over the limit"):
        pp.descent_poly_via_peaks((), 10**9)
    assert time.perf_counter() - start < 1.0


def test_peak_poly_via_moebius():
    assert pp.peak_poly_via_moebius((2,), 5) == 3
    assert pp.peak_poly_via_moebius((), 7) == 1
    assert pp.peak_poly_via_moebius((2, 4), 8) == 44
    with pytest.raises(ValueError):
        pp.peak_poly_via_moebius((2, 3), 8)
    for i_set in oracles.admissible_sets(5):
        for n in range((max(i_set) if i_set else 0) + 1, 9):
            assert pp.peak_poly_via_moebius(i_set, n) == \
                pp.peak_poly_value(i_set, n)


def test_moebius_route_extends_beyond_the_cap():
    # The signed descent-count sum works for any n; the basis expansion
    # computed at small boards must agree far past any board a listing reaches.
    for i_set in ((2,), (4,), (2, 4), (3, 5)):
        poly = pp.peak_coeffs(i_set, max(i_set))
        for n in (20, 50, 137):
            assert poly.evaluate(n) == pp.peak_poly_via_moebius(i_set, n)


def test_coefficients_count_the_flip_free_rows():
    # b_k is realized by the flip-free members of the canonical descent
    # class meeting the initial-interval condition.
    for i_set in ((2,), (3,), (2, 4)):
        m = max(i_set)
        s = pp.canonical_descent_set(i_set)
        for k in range(m + 1):
            members = [
                p for p in pp.prefix_interval_class(s, m, k)
                if not any(pp.admits_flip(p, i).admits for i in i_set)
            ]
            assert len(members) == pp.peak_coeffs(i_set, m).coeffs[k]
