"""Property tests of the exact counting engine and the coefficients read
off it, against independent routes: brute force, inclusion-exclusion and
the backward transfer matrix and the peak recursion of ``oracles``; and
of the flip maps on random permutations and on sampled class members.

Sets and sizes are drawn at random; the examples are derandomized so
the suite stays reproducible, and capped so it stays fast.
"""
import collections
import itertools
import math
import random
import types
from unittest import mock

from hypothesis import given, settings, strategies as st

import peakpoly as pp
from peakpoly import enumeration, flips, polynomials

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
    assert pp.count_peak_class(i_set, n) == len(members)
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


@PROPERTY
@given(sets_and_sizes(max_n=7), st.booleans(), st.data())
def test_layers_count_each_state_and_sum_to_the_sizes(case, peaks, data):
    positions, n = case
    statistic = oracles.peaks if peaks else oracles.descents
    depth = data.draw(st.integers(1, n), label="depth")
    # A seed is a member of the class cut at its length, as parallel_count's are.
    below = tuple(x for x in positions if x < depth)
    cut = [p for p in oracles.perms(depth) if statistic(p) == below]
    for prefix in [(1,)] + ([data.draw(st.sampled_from(cut), label="prefix")] if cut else []):
        d = len(prefix)
        layers = list(enumeration._layers(positions, peaks, n, prefix))
        assert len(layers) == n - d + 1
        for k, (rose, fell) in enumerate(layers, d):
            want = {True: [0] * k, False: [0] * k}
            for p in oracles.perms(k):
                if (sorted(range(d), key=p.__getitem__) == sorted(range(d), key=prefix.__getitem__)
                        and statistic(p) == tuple(x for x in positions if x < k)):
                    want[k > 1 and p[-2] < p[-1]][p[-1] - 1] += 1
            assert (rose, fell) == (want[True], want[False]), (prefix, k)
        assert list(enumeration._sizes(positions, peaks, range(d, n + 1), prefix)) == \
            [sum(rose) + sum(fell) for rose, fell in layers]


@PROPERTY
@given(sets_and_sizes(max_n=9), st.booleans())
def test_the_walk_enters_only_member_prefixes_within_its_price(case, peaks):
    positions, n = case
    query = (pp.PeakClassQuery if peaks else pp.DescentClassQuery)(positions, n)
    children = enumeration._children
    asked = 0

    def counted(*args):
        nonlocal asked
        asked += 1
        return children(*args)

    with mock.patch.object(enumeration, "_children", counted):
        members = list(enumeration._walk(query))
    entered = asked - 1  # every entered prefix asks for its children, and so does ()
    assert entered == len({p[:k] for p in members for k in range(1, n + 1)})
    steps, size = enumeration._listing_price(query)
    assert size == len(members)
    assert entered <= steps - n * (n + 1)


@PROPERTY
@given(sets_and_sizes(max_n=14))
def test_spike_terms_are_priced_by_the_subsets_they_count(case):
    # One engine count of n(n+1)/2 cells per admissible subset of the spikes,
    # not one per subset: adjacent spikes never share a subset.
    s, n = case
    spikes = oracles.set_spikes(s, n)
    admissible = [j for j in oracles.admissible_sets(n) if set(j) <= set(spikes)]
    prices = []
    with mock.patch.object(polynomials, "check_cost", lambda steps, what: prices.append(steps)):
        terms = polynomials.spike_terms(s, n)
    assert prices == [len(admissible) * n * (n + 1) // 2]
    assert [j for j, _ in terms] == sorted(admissible, key=lambda j: (len(j), j))


@st.composite
def admissible_peak_sets(draw, top):
    """An admissible peak set inside [2, top]: gaps of at least 2 from 0."""
    gaps = draw(st.lists(st.integers(2, 5), max_size=top // 2))
    positions = list(itertools.accumulate(gaps))
    return tuple(p for p in positions if p <= top)


@settings(PROPERTY, max_examples=40)
@given(sets_and_sizes(max_n=300), st.booleans(), st.data())
def test_counts_match_the_backward_transfer_matrix(case, peaks, data):
    positions, n = case
    if peaks:  # a random set is rarely admissible, and then both sides read 0
        positions = data.draw(admissible_peak_sets(n - 1), label="peaks")
    count = pp.count_peak_class if peaks else pp.count_descent_class
    assert count(positions, n) == oracles.transfer_matrix_count(positions, n, peaks)


@settings(PROPERTY, max_examples=40)
@given(admissible_peak_sets(40), st.integers(0, 3), st.data())
def test_peak_coeffs_evaluate_to_the_backward_transfer_matrix(i_set, lift, data):
    top = max(i_set, default=0)
    poly = pp.peak_coeffs(i_set, top + lift)
    n = data.draw(st.integers(max(poly.center, top + 1), 120), label="n")
    scaled, rem = divmod(oracles.transfer_matrix_count(i_set, n, peaks=True),
                         2 ** (n - len(i_set) - 1))
    assert rem == 0
    assert poly.evaluate(n) == scaled


@settings(PROPERTY, max_examples=30)
@given(st.sets(st.integers(1, 80), max_size=6), st.data())
def test_chain_formula_matches_the_engine_and_the_polynomial(s, data):
    # Sparse S, past brute force and the O(n^2) references: the engine up
    # to n = 1500, and the polynomial at center max(S)+1 up to n = 10^4.
    s = tuple(sorted(s))
    low = max(s, default=0) + 1
    n = data.draw(st.integers(low, 1500), label="n")
    assert oracles.chain_descent_count(s, n) == pp.count_descent_class(s, n)
    far = data.draw(st.integers(low, 10 ** 4), label="far")
    assert oracles.chain_descent_count(s, far) == pp.descent_coeffs(s, low).evaluate(far)


def test_chain_formula_fails_with_one_sign_flipped(monkeypatch):
    # Negating any one f(j), j >= 1, moves the count by 2 C(n, s_j) f(j).
    s, n = (2, 5, 9, 40, 77), 1500
    count = pp.count_descent_class(s, n)
    assert oracles.chain_descent_count(s, n) == count
    weights = oracles.chain_weights
    for j in range(1, len(s) + 1):
        monkeypatch.setattr(oracles, "chain_weights", lambda positions, j=j: [
            -w if i == j else w for i, w in enumerate(weights(positions))])
        assert oracles.chain_descent_count(s, n) != count, j


def _peak_recursion_mismatches(max_n):
    """(I, n) where the peak recursion differs from a scan of S_n, n <= max_n,
    over every admissible I and three sets that are not."""
    mismatches = []
    for n in range(max_n + 1):
        counts = collections.Counter(oracles.peaks(p) for p in oracles.perms(n))
        for i_set in [*oracles.admissible_sets(n), (1,), (2, 3), (1, 3)]:
            if oracles.peak_recursion_count(i_set, n) != counts[i_set]:
                mismatches.append((i_set, n))
    return mismatches


def test_peak_recursion_matches_brute_force():
    assert _peak_recursion_mismatches(8) == []


def test_peak_recursion_fails_with_the_shifted_binomial(monkeypatch):
    # C(n-1, m-1) value sets for the head in place of C(n, m-1) leave out
    # the heads holding n; at I = {2}, n = 3 it reads 0 instead of 2.
    monkeypatch.setattr(oracles, "math", types.SimpleNamespace(
        comb=lambda a, k: math.comb(a - 1, k)))
    assert oracles.peak_recursion_count((2,), 3) == 0
    assert ((2,), 3) in _peak_recursion_mismatches(4)


@settings(PROPERTY, max_examples=20)
@given(admissible_peak_sets(40), st.data())
def test_peak_recursion_matches_the_engine_past_n_300(i_set, data):
    n = data.draw(st.integers(300, 600), label="n")
    count = oracles.peak_recursion_count(i_set, n)
    assert count == pp.count_peak_class(i_set, n)
    assert pp.peak_poly_value(i_set, n) * 2 ** (n - len(i_set) - 1) == count


@PROPERTY
@given(sets_and_sizes(min_n=1, max_n=31, max_size=10), st.data())
def test_descent_coeffs_evaluate_to_inclusion_exclusion(case, data):
    s, m = case[0], case[1] - 1  # S inside [1, m]
    poly = pp.descent_coeffs(s, m)
    n = data.draw(st.integers(max(m, max(s, default=0) + 1), 80), label="n")
    assert poly.evaluate(n) == oracles.descent_count_by_inclusion_exclusion(s, n)


@PROPERTY
@given(admissible_peak_sets(12), st.integers(0, 3), st.data())
def test_peak_coeffs_are_nonnegative_and_match_moebius(i_set, lift, data):
    top = max(i_set, default=0)
    poly = pp.peak_coeffs(i_set, top + lift)
    assert all(c >= 0 for c in poly.coeffs)
    n = data.draw(st.integers(max(poly.center, top + 1), 60), label="n")
    assert poly.evaluate(n) == pp.peak_poly_via_moebius(i_set, n)


@PROPERTY
@given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=16), st.data())
def test_recenter_round_trips(coeffs, data):
    poly = pp.BinomialPolynomial(len(coeffs) - 1, tuple(coeffs))
    other = data.draw(st.integers(poly.degree, 20), label="center")
    moved = poly.recenter(other)
    assert moved.recenter(poly.center) == poly
    n = data.draw(st.integers(20, 60), label="n")
    assert moved.evaluate(n) == poly.evaluate(n)


@PROPERTY
@given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=12), st.integers(0, 8),
       st.data())
def test_recenter_matches_the_binomial_sums(coeffs, zeros, data):
    # Trailing zeros put the center above the degree, so shifts go both ways.
    poly = pp.BinomialPolynomial(len(coeffs) + zeros - 1, (*coeffs, *[0] * zeros))
    other = data.draw(st.integers(poly.degree, 30), label="center")
    assert poly.recenter(other).coeffs == \
        oracles.recenter_by_binomial_sums(coeffs, poly.center, other)


def test_a_table_prices_the_one_listing_it_reads():
    # The table's 2^m (m+h) steps, h = |D(S',m)| for S' = S_I inside
    # [1,m-1], cover the listing of D(S',m) that its rows relabel, so the
    # step limit refuses a table by its own price, never by that listing's.
    for i_set in oracles.admissible_sets(8):
        s = pp.canonical_descent_set(i_set)
        for m in range(max(i_set, default=1), 16):
            head = tuple(p for p in s if p < m)
            steps, h = enumeration._listing_price(pp.DescentClassQuery(head, m))
            assert steps <= 2 ** m * (m + h), (i_set, m)


def test_flip_table_is_the_filtered_descent_class():
    for i_set in oracles.admissible_sets(4):
        s = pp.canonical_descent_set(i_set)
        for m in range(max(i_set, default=0), 5):
            blocks = [[] for _ in range(m + 1)]
            for p in oracles.descent_class(s, 2 * m):
                hit = set(p[:m]) & set(range(m + 1, 2 * m + 1))
                k = len(hit)
                if hit == set(range(m + 1, m + 1 + k)):
                    admits = tuple(pp.admits_flip(p, i).admits for i in i_set)
                    blocks[k].append(pp.FlipTableRow(p, admits))
            table = pp.flip_admission_table(i_set, m)
            assert table.blocks == tuple(map(tuple, blocks)), (i_set, m)


@PROPERTY
@given(st.integers(1, 12).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_flips_are_involutions_and_psi_removes_one_spike(p):
    p = tuple(p)
    spikes = oracles.spikes(p)
    for i in range(1, len(p) + 1):
        assert pp.fl(pp.fl(p, i), i) == p
    for i in spikes:
        if pp.admits_flip(p, i).admits:
            assert oracles.spikes(pp.psi(p, i)) == tuple(x for x in spikes if x != i)


def test_sampler_draws_every_class_member():
    # 5200 draws from the 26 members of D({2,3},6): each about 200 times.
    rng = random.Random(2024)
    drawn = collections.Counter(oracles.sample_descent_class((2, 3), 6, rng)
                                for _ in range(5200))
    assert sorted(drawn) == sorted(oracles.descent_class((2, 3), 6))
    assert len(drawn) == 26
    assert 2 * min(drawn.values()) > max(drawn.values())


@st.composite
def dense_peak_sets(draw, top):
    """An admissible peak set inside [2, top] with up to 100 gaps of 2 to 4:
    in a random member of D(S_I,n) a spike seldom admits a flip unless its
    neighbours are this close, and psi_set needs several that do."""
    gaps = draw(st.lists(st.integers(2, 4), min_size=draw(st.integers(0, 100)), max_size=100))
    return tuple(p for p in itertools.accumulate(gaps) if p <= top)


@settings(PROPERTY, max_examples=30)
@given(dense_peak_sets(299), st.data())
def test_flip_laws_hold_on_sampled_class_members(i_set, data):
    # Members of D(S_I,n) up to n = 300, far past the n! scans: flips are
    # involutions, the profile agrees with admits_flip and with the spike
    # sets of both flips, one removal leaves admission at the other spikes
    # alone, psi_set's right-to-left removals equal psi applied left to
    # right, and they keep the initial-set rule.
    s = pp.canonical_descent_set(i_set)
    n = data.draw(st.integers(max(i_set, default=0) + 1, 300), label="n")
    seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
    sigma = oracles.sample_descent_class(s, n, random.Random(seed))
    assert oracles.descents(sigma) == s
    assert oracles.spikes(sigma) == i_set
    for i in {*i_set, data.draw(st.integers(1, n), label="i")}:
        assert pp.fl(pp.fl(sigma, i), i) == sigma
    profile = pp.flip_profile(sigma)
    assert all(profile[i] == pp.admits_flip(sigma, i) for i in i_set)
    for i, admission in profile.items():
        rest = tuple(x for x in i_set if x != i)
        assert admission == pp.FlipAdmission(oracles.spikes(pp.fl(sigma, i)) == rest,
                                              oracles.spikes(pp.fl(sigma, i - 1)) == rest), i
    admitted = tuple(j for j in i_set if profile[j].admits)
    if admitted:
        j = data.draw(st.sampled_from(admitted), label="j")
        image = pp.psi(sigma, j)
        for i in i_set:
            if abs(i - j) >= 2:
                assert pp.admits_flip(image, i) == profile[i], (i, j)
    left_to_right = sigma
    for j in admitted:
        left_to_right = pp.psi(left_to_right, j)
    assert pp.psi_set(sigma, admitted) == left_to_right
    m = max(i_set, default=0)
    if m and 2 * m <= n:
        assert pp.initial_overlap_k(left_to_right, m) == pp.initial_overlap_k(sigma, m)


def preimage_under_psi(tau, i_set, j_sub):
    """Put the spikes of J back into tau one at a time. fl is an involution,
    so a preimage under psi at j is fl_j or fl_{j-1} of the current
    permutation; fails unless exactly one of the two lies in the class of
    the spikes kept so far, admits a flip at j and maps back."""
    sigma, kept = tau, tuple(x for x in i_set if x not in j_sub)
    for j in j_sub:
        kept = tuple(sorted((*kept, j)))
        s = pp.canonical_descent_set(kept)
        found = [q for q in {pp.fl(sigma, j), pp.fl(sigma, j - 1)}
                 if oracles.descents(q) == s and pp.admits_flip(q, j).admits
                 and pp.psi(q, j) == sigma]
        assert len(found) == 1, (kept, j, sigma)
        sigma, = found
    return sigma


def sampled_target(i_set, j_sub, n, seed):
    rest = tuple(x for x in i_set if x not in j_sub)
    return oracles.sample_descent_class(pp.canonical_descent_set(rest), n, random.Random(seed))


@settings(PROPERTY, max_examples=30)
@given(dense_peak_sets(149).filter(bool), st.data())
def test_psi_is_one_to_one_and_onto_at_sampled_targets(i_set, data):
    # The bijection behind the expansion from its target side, up to
    # n = 300: every tau in D(S_{I-J},n) has exactly one preimage in the
    # J-flippable part of D(S_I,n), which keeps the initial-set rule.
    n = data.draw(st.integers(max(i_set) + 1, 300), label="n")
    j_sub = data.draw(st.lists(st.sampled_from(i_set), min_size=1, max_size=4, unique=True),
                      label="J")
    tau = sampled_target(i_set, j_sub, n, data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    sigma = preimage_under_psi(tau, i_set, j_sub)
    assert oracles.spikes(sigma) == i_set
    assert all(pp.admits_flip(sigma, j).admits for j in j_sub)
    assert pp.psi_set(sigma, j_sub) == tau
    m = max(i_set)
    if 2 * m <= n:
        assert pp.initial_overlap_k(sigma, m) == pp.initial_overlap_k(tau, m)


def test_one_preimage_rule_catches_a_psi_without_the_minus_flip():
    # Negative control: a _removals that never keeps the flip at i-1 makes
    # psi miss part of D(S_{I-J},n), and the rule above must notice.
    removals = flips._removals

    def plus_only(p, i):
        return removals(p, i)[0], None

    rng = random.Random(26)
    cases = []
    for _ in range(10):
        i_set = tuple(range(2, 2 * rng.randint(3, 40), 2))
        n = rng.randint(max(i_set) + 1, 150)
        j_sub = rng.sample(i_set, 2)
        cases.append((i_set, j_sub, sampled_target(i_set, j_sub, n, rng.randrange(2 ** 32))))
    for i_set, j_sub, tau in cases:
        preimage_under_psi(tau, i_set, j_sub)
    caught = 0
    with mock.patch.object(flips, "_removals", plus_only):
        for i_set, j_sub, tau in cases:
            try:
                preimage_under_psi(tau, i_set, j_sub)
            except AssertionError:
                caught += 1
    assert caught
