import itertools

import pytest

import peakpoly as pp
from peakpoly import flips

import oracles


def test_fl_golden():
    sigma = (2, 4, 3, 1, 5, 6, 7, 8)
    assert pp.fl(sigma, 2) == (4, 2, 3, 1, 5, 6, 7, 8)
    assert pp.fl(sigma, 4) == (3, 1, 2, 4, 5, 6, 7, 8)
    assert pp.fl(sigma, 1) == sigma
    assert pp.fl((3, 1, 2), 3) == (1, 3, 2)


def test_fl_range_errors():
    with pytest.raises(ValueError):
        pp.fl((2, 1), 0)
    with pytest.raises(ValueError):
        pp.fl((2, 1), 3)


def test_fl_involution_exhaustive():
    for n in range(1, 7):
        for p in oracles.perms(n):
            for i in range(1, n + 1):
                assert pp.fl(pp.fl(p, i), i) == p


def test_fl_commutation_exhaustive():
    for n in range(1, 7):
        for p in oracles.perms(n):
            for i in range(1, n + 1):
                for j in range(i, n + 1):
                    assert pp.fl(pp.fl(p, i), j) == pp.fl(pp.fl(p, j), i)


def test_fl_properties_random(rng):
    for _ in range(3000):
        n = rng.randint(2, 12)
        p = oracles.random_perm(rng, n)
        i = rng.randint(1, n)
        j = rng.randint(1, n)
        q = pp.fl(p, i)
        assert pp.fl(q, i) == p
        assert pp.fl(pp.fl(p, j), i) == pp.fl(q, j)
        # The first i values are permuted among themselves, the rest fixed.
        assert pp.initial_set(q, i) == pp.initial_set(p, i)
        assert q[i:] == p[i:]
        # Below i the descent pattern is complemented, above i preserved.
        des_p, des_q = set(pp.descent_set(p)), set(pp.descent_set(q))
        for t in range(1, i):
            assert (t in des_q) == (t not in des_p)
        for t in range(i + 1, n):
            assert (t in des_q) == (t in des_p)


def test_fl_exchanges_peaks_and_valleys_below_i():
    for p in oracles.perms(6):
        for i in range(1, 7):
            q = pp.fl(p, i)
            below = set(range(2, i))
            assert set(pp.peak_set(q)) & below == set(pp.valley_set(p)) & below
            assert set(pp.valley_set(q)) & below == set(pp.peak_set(p)) & below


def test_admits_flip_golden():
    sigma = (2, 4, 3, 1, 5, 6, 7, 8)
    assert not pp.admits_flip(sigma, 2).admits
    assert pp.admits_flip(sigma, 4).admits
    row = (1, 4, 3, 2, 5, 6, 7, 8)
    assert not pp.admits_flip(row, 2).admits
    assert pp.admits_flip(row, 4).admits
    row = (3, 4, 2, 1, 5, 6, 7, 8)
    assert pp.admits_flip(row, 2).admits
    assert pp.admits_flip(row, 4).admits


def test_admits_flip_requires_a_spike():
    with pytest.raises(ValueError):
        pp.admits_flip((1, 2, 3, 4), 2)


def definition_mismatches(n):
    """The (p, i) of S_n where admits_flip differs from its definition: a
    flip is admitted iff the spike set it leaves is p's without i."""
    for p in oracles.perms(n):
        spikes = oracles.spikes(p)
        for i in spikes:
            rest = tuple(s for s in spikes if s != i)
            want_plus = oracles.spikes(pp.fl(p, i)) == rest
            want_minus = oracles.spikes(pp.fl(p, i - 1)) == rest
            admission = pp.admits_flip(p, i)
            if (admission.plus, admission.minus, admission.admits) != \
                    (want_plus, want_minus, want_plus or want_minus):
                yield p, i


def test_admits_flip_definition_exhaustive():
    # The one-step rule against the whole spike sets of both flips.
    for n in range(4, 8):
        assert next(definition_mismatches(n), None) is None


def test_admits_flip_definition_catches_swapped_step_rules(monkeypatch):
    # Negative control: a _removals that keeps the flip at i when it turns
    # the step at i, and the flip at i-1 when it keeps the step at i-1.
    def swapped(p, i):
        plus, minus = pp.fl(p, i), pp.fl(p, i - 1)
        return (plus if (plus[i - 1] > p[i]) != (p[i - 1] > p[i]) else None,
                minus if (minus[i - 2] > p[i - 1]) == (p[i - 2] > p[i - 1]) else None)

    monkeypatch.setattr(flips, "_removals", swapped)
    for n in range(4, 8):
        assert next(definition_mismatches(n), None) is not None


def test_admission_walks_the_spikes_once_per_profile(monkeypatch):
    # admits_flip and psi test only the spike they are asked about;
    # flip_profile walks the spike set once.
    spike_set, walks = flips.spike_set, []
    monkeypatch.setattr(flips, "spike_set", lambda p: walks.append(p) or spike_set(p))
    for p in oracles.perms(6):
        for i in oracles.spikes(p):
            if pp.admits_flip(p, i).admits:
                pp.psi(p, i)
        assert walks == []
        pp.flip_profile(p)
        assert walks == [p]
        walks.clear()


def test_flip_profile_covers_exactly_the_spikes():
    for p in oracles.perms(5):
        assert tuple(sorted(pp.flip_profile(p))) == oracles.spikes(p)


def test_flip_profile_price_is_the_entries_it_builds(monkeypatch, rng):
    # 2·n steps per spike: the two flips built there, n entries each.
    fl, built = flips.fl, []

    def counted(p, i):
        q = fl(p, i)
        built.append(len(q))
        return q

    monkeypatch.setattr(flips, "fl", counted)
    samples = list(oracles.perms(6))
    samples += [tuple(rng.sample(range(1, n + 1), n)) for n in range(7, 41) for _ in range(5)]
    for p in samples:
        built.clear()
        pp.flip_profile(p)
        assert sum(built) == 2 * len(p) * len(oracles.spikes(p)), p


def test_flip_profile_is_priced_before_any_flip(monkeypatch):
    # 2·n steps per spike, checked before the first flip is built: with the
    # flips stubbed out, the price alone admits 1582 entries (4999120 steps)
    # and refuses 1584 (5011776).
    monkeypatch.setattr(flips, "_removals", lambda p, i: (None, None))
    assert len(pp.flip_profile(oracles.alternating(1582))) == 1580
    with pytest.raises(pp.CapExceeded, match="5011776 steps"):
        pp.flip_profile(oracles.alternating(1584))


def test_psi_golden():
    assert pp.psi((2, 4, 3, 1, 5, 6, 7, 8), 4) == (3, 1, 2, 4, 5, 6, 7, 8)
    assert pp.psi((3, 4, 2, 1, 5, 6, 7, 8), 2) == (4, 3, 2, 1, 5, 6, 7, 8)
    with pytest.raises(ValueError):
        pp.psi((2, 4, 3, 1, 5, 6, 7, 8), 2)


def test_psi_removes_exactly_one_spike():
    # When both flips are admitted, psi takes the one at i.
    for p in oracles.perms(7):
        for i in oracles.spikes(p):
            admission = pp.admits_flip(p, i)
            if admission.admits:
                image = pp.psi(p, i)
                assert image == pp.fl(p, i if admission.plus else i - 1)
                assert oracles.spikes(image) == \
                    tuple(x for x in oracles.spikes(p) if x != i)


def test_psi_commutes_for_separated_spikes():
    sigma = (3, 4, 2, 1, 5, 6, 7, 8)
    one_way = pp.psi(pp.psi(sigma, 2), 4)
    other_way = pp.psi(pp.psi(sigma, 4), 2)
    assert one_way == other_way == (1, 2, 3, 4, 5, 6, 7, 8)


def test_psi_set():
    sigma = (3, 4, 2, 1, 5, 6, 7, 8)
    assert pp.psi_set(sigma, (2, 4)) == (1, 2, 3, 4, 5, 6, 7, 8)
    assert pp.psi_set(sigma, ()) == sigma
    with pytest.raises(ValueError):
        pp.psi_set(sigma, (2, 3))  # members not gap-separated
    with pytest.raises(ValueError):
        pp.psi_set((2, 4, 3, 1, 5, 6, 7, 8), (2,))  # 2-flip not admitted
    with pytest.raises(ValueError, match=r"^\{2\} are not spikes of 1234$"):
        pp.psi_set((1, 2, 3, 4), (2,))


def test_psi_set_order_independent_exhaustive():
    # Over D(S_{2,4}, 7), both application orders must agree whenever
    # both flips are admitted.
    s = pp.canonical_descent_set((2, 4))
    for p in pp.enumerate_descent_class(pp.DescentClassQuery(s, 7)):
        if pp.admits_flip(p, 2).admits and pp.admits_flip(p, 4).admits:
            assert pp.psi(pp.psi(p, 2), 4) == pp.psi(pp.psi(p, 4), 2) == \
                pp.psi_set(p, (2, 4))


def test_flip_admission_stability_exhaustive():
    # Removing one spike never changes admission at spikes more than one
    # step away.
    for n in range(4, 8):
        for p in oracles.perms(n):
            spikes = oracles.spikes(p)
            for j in spikes:
                if not pp.admits_flip(p, j).admits:
                    continue
                image = pp.psi(p, j)
                for i in spikes:
                    if abs(i - j) <= 1:
                        continue
                    before = pp.admits_flip(p, i)
                    after = pp.admits_flip(image, i)
                    assert before.plus == after.plus
                    assert before.minus == after.minus


def test_canonical_descent_set_golden():
    assert pp.canonical_descent_set((2, 4)) == (2, 3)
    assert pp.canonical_descent_set((2,)) == (1,)
    assert pp.canonical_descent_set((4,)) == (1, 2, 3)
    assert pp.canonical_descent_set(()) == ()
    assert pp.canonical_descent_set((3, 5)) == (3, 4)
    with pytest.raises(ValueError):
        pp.canonical_descent_set((2, 3))


def test_canonical_descent_set_defining_property():
    for top in range(2, 13):
        for i_set in oracles.admissible_sets(top):
            if not i_set:
                continue
            s = pp.canonical_descent_set(i_set)
            n = max(i_set) + 1
            assert pp.spikes_of(s, n) == i_set
            assert max(s) <= max(i_set) - 1
            # Rightmost spike must be a valley.
            assert i_set[-1] in pp.valleys_of(s, n)


def test_canonical_descent_set_unique():
    # Exhaustive: no other descent set within [1, max(I)-1] shares the
    # spike set.
    for i_set in ((2,), (3,), (4,), (2, 4), (2, 5), (3, 5)):
        top = max(i_set)
        n = top + 1
        hits = [
            cand
            for r in range(top)
            for cand in itertools.combinations(range(1, top), r)
            if oracles.set_spikes(cand, n) == i_set
        ]
        assert hits == [pp.canonical_descent_set(i_set)]
