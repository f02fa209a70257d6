import array
import collections
import itertools
import json
import math
import subprocess
import sys
import time

import pytest

import oracles
import peakpoly as pp
from peakpoly import cli, flips, verify


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


def test_marked_lemma_catches_a_lost_peak(monkeypatch):
    # A peak rule that takes every descent past position 1 for a peak
    # gives (1, 4, 3, 2) a "peak" at 3. Four of its sign patterns lose it:
    # they give it the signed descent set {1}, whose only spike is 2, and
    # the tally pass expects no pattern there.
    monkeypatch.setattr(verify, "_peak_bits", lambda d: d & ~0b11)
    report = pp.check_marked_lemma(4)
    assert not report.passed
    assert report.counterexample == {"sigma": (1, 4, 3, 2), "descent_set": [1],
                                     "count": 4, "expected": 0}


def test_failing_flip_table_report_is_json(monkeypatch):
    # A table missing a row fails the scan comparison; the report carries
    # the rows as permutations, which its JSON form gives as lists.
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
    assert rows and all(sorted(row) == [1, 2, 3, 4, 5, 6] for row in rows)
    assert data["counterexample"]["table_rows"] == rows[1:]


def test_flip_table_flags_are_checked_through_the_pattern_counts(monkeypatch):
    # The check reads the admission flags from the public table alone, so
    # flags given in reversed spike order must fail the pattern counts.
    from peakpoly import polynomials
    table = polynomials.flip_admission_table

    def reversed_flags(i_set, m):
        t = table(i_set, m)
        return polynomials.FlipTable(t.spikes, t.center, tuple(
            tuple(polynomials.FlipTableRow(row.permutation, row.admits[::-1]) for row in block)
            for block in t.blocks))

    monkeypatch.setattr(polynomials, "flip_admission_table", reversed_flags)
    report = pp.check_flip_table_partition((2, 4), 4)
    assert report.counterexample == {"j": [2], "pattern_counts": (0, 3, 3, 1, 0),
                                     "peak_coeffs": (2, 1, 0, 0, 0)}


def test_flip_table_catches_block_sizes_off_the_descent_coefficients(monkeypatch, capsys):
    # The CLI prints each failing check with its counterexample and exits 1.
    from peakpoly import polynomials
    coeffs = polynomials.descent_coeffs
    monkeypatch.setattr(polynomials, "descent_coeffs", lambda s, m: pp.BinomialPolynomial(
        m, [c + 1 for c in coeffs(s, m).coeffs]))
    report = pp.check_flip_table_partition((2,), 2)
    assert report.passed is False
    assert report.counterexample == {"block_sizes": (1, 1, 0), "descent_coeffs": (2, 2, 1)}
    assert cli.run(["verify", "--claim", "flip-table", "--max-n", "3"]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == ("FAIL  flip-table  (i=[2], m=2)  [0 cases]  counterexample: "
                        "{'block_sizes': (1, 1, 0), 'descent_coeffs': (2, 2, 1)}")
    assert len(lines) == 5 and all(line.startswith("FAIL  flip-table  ") for line in lines[1:4])
    assert lines[4] == "0/4 checks passed"
    assert captured.err == ""


def test_mask_rules_match_the_per_tuple_statistics():
    # Every signed permutation of n <= 5 and every plain one of n <= 7:
    # its descents follow from its signs and the descents of its values,
    # and its peaks from its descents.
    for n in range(1, 8):
        patterns = itertools.product((1, -1), repeat=n) if n <= 5 else [(1,) * n]
        for signs in patterns:
            masks = verify._sign_masks(signs)
            for p in verify._all_perms(n):
                rho = tuple(s * v for s, v in zip(signs, p))
                d = verify._signed_descent_bits(verify._mask(verify._naive_descents(p)), masks)
                assert d == verify._mask(verify._naive_descents(rho)), (p, signs)
                assert verify._peak_bits(d) == verify._mask(oracles.peaks(rho)), (p, signs)


def test_sign_tally_is_the_per_tuple_tally():
    # Each class's row counts sign patterns, so it sums to 2^n, and the
    # rows scaled by the class sizes add up to the signed group's tally.
    for n in range(1, 6):
        tally = collections.Counter(
            verify._mask(verify._naive_descents(tuple(s * v for s, v in zip(signs, p))))
            for p in verify._all_perms(n)
            for signs in itertools.product((1, -1), repeat=n))
        rows = verify._sign_tally(n)
        assert all(sum(row) == 2 ** n for row in rows.values())
        assert [sum(size * rows[d][e] for d, size in verify._descent_classes(n).items())
                for e in range(1 << n)] == [tally[e] for e in range(1 << n)]


def test_descent_scan_lists_every_class():
    for n in range(1, 8):
        classes = collections.defaultdict(list)
        for p in verify._all_perms(n):
            classes[verify._naive_descents(p)].append(p)
        for r in range(n):
            for s in itertools.combinations(range(1, n), r):
                assert list(verify._naive_class(verify._mask(s), n)) == classes[s], (s, n)
        firsts = sorted((members[0], verify._mask(s), len(members))
                        for s, members in classes.items())
        assert list(verify._descent_classes(n).items()) == [
            (mask, size) for _, mask, size in firsts]


CACHED = (verify._descent_scan, verify._naive_class, verify._descent_classes,
          verify._sign_tally, verify._peak_class_histogram)


@pytest.fixture
def cold_caches():
    """Every per-n cache of ``verify`` empty before the test and after it,
    so that no test reads what another one left behind."""
    for cached in CACHED:
        cached.cache_clear()
    yield
    for cached in CACHED:
        cached.cache_clear()


def _reference_scan(n):
    return array.array("H", (verify._mask(verify._naive_descents(p)) for p in verify._all_perms(n)))


def test_descent_scan_is_the_per_tuple_scan(cold_caches):
    for n in range(1, 9):
        assert verify._descent_scan(n) == _reference_scan(n), n


def test_checks_catch_a_wrong_descent_scan(monkeypatch, cold_caches):
    # Position 1 complemented: each block f takes the shifted scan of
    # n-1 in its first f sub-blocks and the stepped one after them.
    monkeypatch.setattr(verify, "_descent_scan",
                        lambda n: array.array("H", (d ^ 2 for d in _reference_scan(n))))
    report = pp.check_spike_sum((2, 3), range(4, 7))
    assert report.counterexample == {"n": 4, "signed_with_descent_set": 40,
                                     "scaled_descent_count": 48}
    report = pp.check_flip_table_partition((3,), 3)
    assert not report.passed
    assert report.counterexample["k"] == 0
    # Listed members whose naive descents miss the class are dropped, so
    # the flip checks fail instead of asking for a flip at a non-spike.
    for report in (pp.check_flip_table_partition((2,), 2),
                   pp.check_flip_bijection((2, 4), (2,), 8),
                   pp.check_flip_bijection((2,), (2,), 6)):
        assert not report.passed, report.params


def test_full_verify_scans_each_group_once(monkeypatch, cold_caches):
    # One descent scan per n = 1..8, each built from the one below it, so
    # the only naive descent calls are one per flip-bijection image and
    # one per member of a listed class. Each class is listed once:
    # flip-bijection's five source classes at n = 8 (1 + 7 + 21 + 35 + 85
    # members), which the {4} and {2,4} tables read again, and the classes
    # of the {2} and {3} tables at n = 4 and 6 (3 and 10 members).
    naive = verify._naive_descents
    calls = collections.Counter()

    def counted(seq):
        calls[len(seq)] += 1
        return naive(seq)

    monkeypatch.setattr(verify, "_naive_descents", counted)
    reports = cli._verification_reports(None, 8)
    images = sum(r.checked for r in reports if r.claim == "flip-bijection")
    assert images == 195
    assert calls == {8: images + 149, 6: 10, 4: 3}
    assert verify._descent_scan.cache_info().misses == 8
    listings = verify._naive_class.cache_info()
    assert (listings.misses, listings.hits) == (7, 8)


def test_full_verify_reads_each_admission_flag_once(monkeypatch):
    # All 353 admits_flip calls come from verify, which filters
    # flip-bijection's domains; psi_set maps them without asking, and the
    # flip tables read one flip_profile per row. Every flip any of them
    # builds comes from one of the 454 _removals calls.
    admits, removals = flips.admits_flip, flips._removals
    calls, built = [], []

    def counted(p, i):
        calls.append(i)
        return admits(p, i)

    def counted_removals(p, i):
        built.append(i)
        return removals(p, i)

    monkeypatch.setattr(flips, "admits_flip", counted)
    monkeypatch.setattr(flips, "_removals", counted_removals)
    assert all(r.passed for r in cli._verification_reports(None, 8))
    assert len(calls) == 353
    assert len(built) == 454


def test_full_verify_reports_at_max_n_8():
    reports = [(r.claim, r.params, r.passed, r.checked)
               for r in cli._verification_reports(None, 8)]
    spike_sum_ranges = [
        ([], 1), ([1], 2), ([2], 3), ([3], 4), ([4], 5), ([1, 2], 3), ([1, 3], 4),
        ([1, 4], 5), ([2, 3], 4), ([2, 4], 5), ([3, 4], 5), ([1, 2, 3], 4),
        ([1, 2, 4], 5), ([1, 3, 4], 5), ([2, 3, 4], 5), ([1, 2, 3, 4], 5)]
    assert reports == [
        ("marked-lemma", {"n": 1}, True, 1),
        ("marked-lemma", {"n": 2}, True, 4),
        ("marked-lemma", {"n": 3}, True, 24),
        ("marked-lemma", {"n": 4}, True, 192),
        ("marked-lemma", {"n": 5}, True, 1920),
        ("marked-lemma", {"n": 6}, True, 23040),
        ("marked-lemma", {"n": 7}, True, 322560),
        *[("spike-sum", {"s": s, "n_range": list(range(low, 9))}, True, 9 - low)
          for s, low in spike_sum_ranges],
        ("flip-bijection", {"i": [], "j": [], "n": 8}, True, 1),
        ("flip-bijection", {"i": [2], "j": [], "n": 8}, True, 7),
        ("flip-bijection", {"i": [2], "j": [2], "n": 8}, True, 1),
        ("flip-bijection", {"i": [3], "j": [], "n": 8}, True, 21),
        ("flip-bijection", {"i": [3], "j": [3], "n": 8}, True, 1),
        ("flip-bijection", {"i": [4], "j": [], "n": 8}, True, 35),
        ("flip-bijection", {"i": [4], "j": [4], "n": 8}, True, 1),
        ("flip-bijection", {"i": [2, 4], "j": [], "n": 8}, True, 85),
        ("flip-bijection", {"i": [2, 4], "j": [2], "n": 8}, True, 35),
        ("flip-bijection", {"i": [2, 4], "j": [4], "n": 8}, True, 7),
        ("flip-bijection", {"i": [2, 4], "j": [2, 4], "n": 8}, True, 1),
        ("flip-table", {"i": [2], "m": 2}, True, 9),
        ("flip-table", {"i": [3], "m": 3}, True, 12),
        ("flip-table", {"i": [4], "m": 4}, True, 15),
        ("flip-table", {"i": [2, 4], "m": 4}, True, 25),
    ]
    assert sum(r[3] for r in reports) == 348076


def test_verify_runs_without_numpy():
    # Every claim, and the full suite at --max-n 8, with numpy made
    # unimportable: the package has no runtime dependency.
    argvs = [["verify", "--claim", claim] for claim in cli.CLAIMS] + [["verify", "--max-n", "8"]]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import contextlib, io, sys\n"
         "sys.modules['numpy'] = None\n"
         "from peakpoly import cli\n"
         "codes = []\n"
         f"for argv in {argvs!r}:\n"
         "    with contextlib.redirect_stdout(io.StringIO()):\n"
         "        codes.append(cli.run(argv))\n"
         "print(codes)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0, 0, 0, 0]"


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
    assert pp.check_spike_sum((2,), [9]).passed
    report = pp.check_spike_sum((2,), [4, 3, 3, 4])
    assert (report.passed, report.params, report.checked) == (
        True, {"s": [2], "n_range": [3, 4]}, 2)
    with pytest.raises(ValueError, match="need max"):
        pp.check_spike_sum((2,), [4, 2])
    with pytest.raises(pp.CapExceeded, match="permutations of 11 takes 39916800 steps"):
        pp.check_spike_sum((2,), [3, 11])
    with pytest.raises(ValueError, match="n_range is empty"):
        pp.check_spike_sum((2,), [])


def test_spike_sum_catches_a_wrong_count(monkeypatch):
    # The signed tally must disagree with an enumeration off by one, and
    # the peak expansion with a spike set missing a spike.
    count = verify.enumeration.count_descent_class
    with monkeypatch.context() as patch:
        patch.setattr(verify.enumeration, "count_descent_class", lambda s, n: count(s, n) + 1)
        report = pp.check_spike_sum((2, 3), range(4, 7))
    assert not report.passed
    assert report.counterexample == {"n": 4, "signed_with_descent_set": 48,
                                     "scaled_descent_count": 64}
    naive = verify._naive_set_spikes
    with monkeypatch.context() as patch:
        patch.setattr(verify, "_naive_set_spikes", lambda s, n: naive(s, n)[:-1])
        report = pp.check_spike_sum((2, 3), range(4, 7))
    assert not report.passed
    assert report.counterexample == {"n": 4, "peak_expansion": 1, "descent_count": 3}
    # One extra peak-free permutation of 3 makes 5, not a multiple of the
    # 2^(3-0-1) = 4 that p({},3) divides them by.
    hist = verify._peak_class_histogram
    with monkeypatch.context() as patch:
        patch.setattr(verify, "_peak_class_histogram",
                      lambda n: [size + (mask == 0) for mask, size in enumerate(hist(n))])
        report = pp.check_spike_sum((1, 2), range(3, 7))
    assert report.passed is False
    assert report.counterexample == {"n": 3, "subset": [], "class_size": 5, "divisor": 4}


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
    report = pp.check_flip_bijection((2, 4), (2,), 10)
    assert report.passed, report.counterexample
    assert report.checked == 84


def test_flip_bijection_catches_defects_with_a_warm_scan(monkeypatch):
    # The shared scan is filled by a passing check first; a cached scan
    # must not hide a wrong canonical set, flip map or admission test.
    assert pp.check_flip_bijection((2, 4), (2,), 8).passed
    with monkeypatch.context() as patch:
        patch.setattr(flips, "psi_set", lambda p, positions: tuple(p))
        report = pp.check_flip_bijection((2, 4), (2,), 8)
    assert not report.passed
    assert report.counterexample["image_descents"] == (2, 3)
    assert report.counterexample["expected_descents"] == (1, 2, 3)
    with monkeypatch.context() as patch:
        patch.setattr(flips, "admits_flip", lambda p, i: flips.FlipAdmission(False, False))
        report = pp.check_flip_bijection((2, 4), (2,), 8)
    assert not report.passed
    assert report.counterexample == {"domain_size": 0, "target_class_size": 35}
    with monkeypatch.context() as patch:
        patch.setattr(verify, "canonical_descent_set", lambda i_set: (1,))
        report = pp.check_flip_bijection((2, 4), (2,), 8)
    assert report.passed is False
    assert report.counterexample == {"naive_descent_set": (2, 3), "library_descent_set": (1,)}
    # Every image the same member of D({1,2,3},8): the first passes, the
    # second repeats it.
    with monkeypatch.context() as patch:
        patch.setattr(flips, "psi_set", lambda p, positions: (4, 3, 2, 1, 5, 6, 7, 8))
        report = pp.check_flip_bijection((2, 4), (2,), 8)
    assert report.passed is False
    assert report.counterexample == {"duplicate_image": (4, 3, 2, 1, 5, 6, 7, 8),
                                     "sigma": (3, 5, 2, 1, 4, 6, 7, 8)}
    # The 35 {2}-flippable members of D({2,3},8), in lex order, onto the 35
    # members of D({1,2,3},8) in reverse lex order: one to one and onto the
    # right class, but not psi, so the first image leaves its k-block.
    domain = sorted(p for p in pp.enumerate_descent_class(pp.DescentClassQuery((2, 3), 8))
                    if pp.admits_flip(p, 2).admits)
    target = sorted(pp.enumerate_descent_class(pp.DescentClassQuery((1, 2, 3), 8)), reverse=True)
    assert len(domain) == len(target) == 35
    mapping = dict(zip(domain, target))
    with monkeypatch.context() as patch:
        patch.setattr(flips, "psi_set", lambda p, positions: mapping[p])
        report = pp.check_flip_bijection((2, 4), (2,), 8)
    assert report.passed is False
    assert report.counterexample == {"sigma": (3, 4, 2, 1, 5, 6, 7, 8),
                                     "image": (8, 7, 6, 1, 2, 3, 4, 5),
                                     "sigma_k": 0, "image_k": None}


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
    assert table.pattern_counts(()) == (0, 4, 4, 1, 0)
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
    # onto 2^14 value sets, go over the step limit. The flips at the 2 spikes
    # of each of the 835 rows add 835 * 2 * 56 entries, and the run that
    # counts the rows 29 * 15 cells and 105 differences.
    with pytest.raises(pp.CapExceeded, match="takes 10776428 steps"):
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
