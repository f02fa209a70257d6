import itertools
import json
import math
import sys
import time

import pytest

import peakpoly as pp
from peakpoly import verify


def test_report_requires_counterexample_on_failure():
    with pytest.raises(ValueError):
        pp.VerificationReport("claim", {}, passed=False)
    report = pp.VerificationReport("claim", {"n": 3}, passed=True, checked=6)
    data = report.to_json_dict()
    assert data["claim"] == "claim"
    assert data["passed"] is True
    assert data["checked"] == 6
    assert data["counterexample"] is None


def test_marked_lemma_small():
    for n in range(1, 8):
        report = pp.check_marked_lemma(n)
        assert report.passed, report.counterexample
        assert report.checked == math.factorial(n) * 2 ** (n - 1)
    assert report.checked == 322560
    with pytest.raises(ValueError):
        pp.check_marked_lemma(0)
    with pytest.raises(pp.CapExceeded, match="signed permutations of 8 takes 10321920 steps"):
        pp.check_marked_lemma(8)


def test_marked_lemma_catches_a_wrong_tally(monkeypatch):
    # Dropping a spike of every descent set disqualifies sets that the
    # signed permutations do hit, so some tally exceeds its expected 0.
    naive = verify._naive_set_spikes
    monkeypatch.setattr(verify, "_naive_set_spikes", lambda s, n: naive(s, n)[:-1])
    report = pp.check_marked_lemma(4)
    assert not report.passed
    assert set(report.counterexample) == {"sigma", "descent_set", "count", "expected"}
    assert report.counterexample["count"] != report.counterexample["expected"]


def test_failing_flip_table_report_is_json(monkeypatch):
    # A table missing a row fails the scan comparison; the report carries
    # the rows, which its JSON form gives as plain dicts.
    from peakpoly import polynomials
    table = polynomials.flip_admission_table

    def short_table(i_set, m):
        t = table(i_set, m)
        return polynomials.FlipTable(t.spikes, t.center, (t.blocks[0][1:], *t.blocks[1:]))

    monkeypatch.setattr(polynomials, "flip_admission_table", short_table)
    report = pp.check_flip_table_partition((2,), 3)
    assert not report.passed
    data = json.loads(json.dumps(report.to_json_dict()))
    assert data["counterexample"]["k"] == 0
    rows = data["counterexample"]["scanned_rows"]
    assert rows and all(set(row) == {"permutation", "admits"} for row in rows)
    assert len(data["counterexample"]["table_rows"]) == len(rows) - 1


def test_bit_kernels_match_the_per_tuple_statistics():
    for n in range(1, 7):
        cols = verify._perm_columns(n)
        perms = list(itertools.permutations(range(1, n + 1)))
        assert [tuple(c) for c in cols.T.tolist()] == perms
        patterns = verify._signed(cols) if n <= 5 else [((1,) * n, cols)]
        for signs, signed in patterns:
            seqs = [tuple(s * v for s, v in zip(signs, p)) for p in perms]
            assert [tuple(c) for c in signed.T.tolist()] == seqs
            for bits, stat in ((verify._descent_bits(signed), verify._naive_descents),
                               (verify._turn_bits(signed, valleys=False), verify._naive_peaks),
                               (verify._turn_bits(signed, valleys=True), verify._naive_spikes)):
                assert bits.tolist() == [verify._mask(stat(seq)) for seq in seqs], (n, signs)


def test_huge_step_counts_are_refused_quickly():
    # Past the interpreter's int-to-str limit (4300 digits by default,
    # none before Python 3.10.7) the message gives the digit count.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    start = time.perf_counter()
    for call, digits in ((lambda: pp.check_marked_lemma(1500), 4567),
                         (lambda: pp.check_flip_table_partition((2, 4), 1000), 5736)):
        count = f"a {digits}-digit number of" if 0 < limit < digits else rf"\d{{{digits}}}"
        with pytest.raises(pp.CapExceeded, match=f"takes {count} steps, over the limit"):
            call()
    assert time.perf_counter() - start < 1.0


def test_spike_sum():
    report = pp.check_spike_sum((2, 3), range(4, 9))
    assert report.passed, report.counterexample
    assert report.checked == 5
    report = pp.check_spike_sum((), range(1, 7))
    assert report.passed
    with pytest.raises(ValueError):
        pp.check_spike_sum((2,), [9])


def test_spike_sum_all_small_sets():
    for r in range(4):
        for s in itertools.combinations(range(1, 4), r):
            low = (max(s) if s else 0) + 1
            report = pp.check_spike_sum(s, range(low, 7))
            assert report.passed, report.counterexample


def test_flip_bijection():
    for j_sub in ((), (4,), (2,), (2, 4)):
        report = pp.check_flip_bijection((2, 4), j_sub, 7)
        assert report.passed, report.counterexample
    with pytest.raises(ValueError):
        pp.check_flip_bijection((2, 3), (), 7)
    with pytest.raises(ValueError):
        pp.check_flip_bijection((2, 4), (3,), 7)
    with pytest.raises(ValueError):
        pp.check_flip_bijection((2, 4), (), 4)
    with pytest.raises(pp.CapExceeded, match="permutations of 11 takes 39916800 steps"):
        pp.check_flip_bijection((2, 4), (), 11)


def test_flip_bijection_image_class_sizes():
    # The J={2,4} case maps onto the descent-free class, a single element.
    report = pp.check_flip_bijection((2, 4), (2, 4), 8)
    assert report.passed
    assert report.checked == 1


def test_flip_admission_table_structure():
    table = pp.flip_admission_table((2, 4), 4)
    assert table.spikes == (2, 4)
    assert table.center == 4
    assert tuple(len(b) for b in table.blocks) == (3, 8, 7, 2, 0)
    assert table.no_flip_counts() == (0, 4, 4, 1, 0)
    assert table.pattern_counts((4,)) == (2, 1, 0, 0, 0)
    assert table.pattern_counts((2,)) == (0, 3, 3, 1, 0)
    assert table.pattern_counts((2, 4)) == (1, 0, 0, 0, 0)
    data = table.to_json_dict()
    assert data["spike_set"] == [2, 4]
    assert data["blocks"][0]["rows"][0]["permutation"] == [1, 4, 3, 2, 5, 6, 7, 8]
    assert data["blocks"][0]["rows"][0]["admits"] == {"2": False, "4": True}


def test_flip_admission_table_validation():
    with pytest.raises(ValueError):
        pp.flip_admission_table((2, 3), 4)
    with pytest.raises(ValueError):
        pp.flip_admission_table((2, 4), 3)
    with pytest.raises(ValueError, match="center must be nonnegative"):
        pp.flip_admission_table((), -1)
    # 2^14 * (14 + 638) steps: the 638 members of D({2,3},14), relabelled
    # onto 2^14 value sets, go over the step limit; m = 7 was over the old
    # cap of 12 on 2m.
    with pytest.raises(pp.CapExceeded, match="takes 10682368 steps"):
        pp.flip_admission_table((2, 4), 14)
    table = pp.flip_admission_table((2, 4), 7)
    assert tuple(map(len, table.blocks)) == pp.descent_coeffs((2, 3), 7).coeffs


def test_flip_table_partition():
    for i_set in ((2,), (3,), (4,), (2, 4)):
        report = pp.check_flip_table_partition(i_set, max(i_set))
        assert report.passed, report.counterexample


def test_flip_table_partition_refuses_a_long_scan():
    start = time.perf_counter()
    with pytest.raises(pp.CapExceeded, match="permutations of 12 takes 479001600 steps"):
        pp.check_flip_table_partition((2, 4), 6)
    assert time.perf_counter() - start < 1.0
