"""The package surface: its public names and the behaviour of its value classes."""
import ast
import copy
import importlib
import pathlib
import pickle
import re

import pytest

import peakpoly as pp

LAYERS = ("core", "enumeration", "flips", "polynomials", "verify")


def test_every_public_name_resolves_to_its_layer_object():
    owners = [importlib.import_module(f"peakpoly.{layer}") for layer in LAYERS]
    for name in pp.__all__:
        objects = [getattr(m, name) for m in owners if name in vars(m)]
        assert objects, name
        assert all(getattr(pp, name) is obj for obj in objects), name
    namespace = {}
    exec("from peakpoly import *", namespace)
    assert set(pp.__all__) <= set(namespace)
    assert set(pp.__all__) <= set(dir(pp))
    assert pp.__version__ == "1.0.0"
    # The canonical descent set is a set statistic: core defines it, not flips.
    layers = dict(zip(LAYERS, owners))
    assert pp.canonical_descent_set is layers["core"].canonical_descent_set
    assert "canonical_descent_set" not in vars(layers["flips"])
    with pytest.raises(AttributeError, match="no_such_name"):
        pp.no_such_name


def _samples():
    """Pairs of equal values built independently, one per class, and a
    value of the same class that differs in one field."""
    yield (pp.DescentClassQuery([3, 1], 5), pp.DescentClassQuery((1, 3), 5),
           pp.DescentClassQuery((1, 3), 6))
    yield pp.PeakClassQuery((2,), 5), pp.PeakClassQuery([2], 5), pp.PeakClassQuery((3,), 5)
    yield (pp.BinomialPolynomial(4, [3, 8, 7, 2, 0]), pp.BinomialPolynomial(4, (3, 8, 7, 2, 0)),
           pp.BinomialPolynomial(4, (3, 8, 7, 2, 1)))
    yield pp.FlipAdmission(True, False), pp.FlipAdmission(True, False), pp.FlipAdmission(True, True)
    yield (pp.FlipTableRow((2, 1, 3, 4), (True,)), pp.FlipTableRow((2, 1, 3, 4), (True,)),
           pp.FlipTableRow((2, 1, 3, 4), (False,)))
    yield (pp.flip_admission_table((2,), 2), pp.flip_admission_table([2], 2),
           pp.flip_admission_table((2,), 3))


def test_value_classes_compare_and_hash_by_fields():
    for a, b, other in _samples():
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert a != other
        assert pickle.loads(pickle.dumps(a)) == a
        assert copy.deepcopy(a) == a
    report = pp.VerificationReport("claim", {"n": 3}, True, checked=6)
    assert report == pp.VerificationReport("claim", {"n": 3}, passed=True, checked=6)
    assert report != pp.VerificationReport("claim", {"n": 3}, True, checked=7)
    assert pickle.loads(pickle.dumps(report)) == report
    with pytest.raises(TypeError):
        hash(report)  # its params are a dict


def test_queries_differ_by_kind_and_from_tuples():
    descents, peaks = pp.DescentClassQuery((2,), 5), pp.PeakClassQuery((2,), 5)
    assert descents != peaks and peaks != descents
    assert descents != ((2,), 5) and peaks != ((2,), 5)
    assert pp.FlipAdmission(True, False) != (True, False)
    assert pp.BinomialPolynomial(1, (1, 2)) != (1, (1, 2))


def test_value_classes_are_immutable():
    values = [a for a, _, _ in _samples()]
    values.append(pp.VerificationReport("claim", {}, True))
    for value in values:
        field = re.match(r"\w+\((\w+)=", repr(value)).group(1)
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            value.extra = 1
        with pytest.raises(AttributeError):
            delattr(value, field)


def test_validation_messages():
    cases = [
        (lambda: pp.DescentClassQuery((3,), 3), "descent position 3 needs n > 3, got n=3"),
        (lambda: pp.DescentClassQuery((), 0), "n must be positive, got 0"),
        (lambda: pp.PeakClassQuery((4,), 4), "peak position 4 needs n > 4, got n=4"),
        (lambda: pp.BinomialPolynomial(-1, ()), "center must be nonnegative"),
        (lambda: pp.BinomialPolynomial(4, (1, 2)), "center 4 needs 5 coefficients, got 2"),
        (lambda: pp.VerificationReport("claim", {}, passed=False),
         "a failing report must carry a counterexample"),
    ]
    for make, message in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()


def test_messages_spell_a_set_as_the_answers_do(capsys):
    # One refusal from each layer outside verify: a set reads {2,3}, as in
    # the answers, and never as a tuple or a list.
    cases = [
        (lambda: pp.canonical_descent_set((2, 3)), "not an admissible peak set: {2,3}"),
        (lambda: pp.count_descent_class((2, 3, 7), 100000),
         "counting D({2,3,7},100000) takes 5000050000 steps, over the limit of 5000000"),
        (lambda: pp.enumerate_peak_class(pp.PeakClassQuery((3, 6, 9), 12)),
         "listing P({3,6,9},12) takes 38312596 steps, over the limit of 5000000"),
        (lambda: pp.descent_coeffs((2, 3, 7), 2000),
         "computing d({2,3,7},n) at center 2000 takes 10007001 steps, over the limit of 5000000"),
        (lambda: pp.moebius_terms((2, 3), 6), "not an admissible peak set: {2,3}"),
        (lambda: pp.psi_set((1, 3, 2, 5, 4), (2, 3)),
         "flip positions must be more than 1 apart: {2,3}"),
    ]
    for make, message in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()
    from peakpoly.cli import run
    assert run(["count", "peak", "2,3", "6"]) == 2
    assert capsys.readouterr().err == "error: not an admissible peak set: {2,3}\n"


def test_messages_spell_a_permutation_as_the_answers_do():
    # The flips messages write a permutation as the answers do: 24315678,
    # with commas past 9, never as a tuple or a list.
    cases = [
        (lambda: pp.admits_flip([1, 2, 3], 2), "position 2 is not a spike of 123"),
        (lambda: pp.admits_flip(range(1, 11), 2),
         "position 2 is not a spike of 1,2,3,4,5,6,7,8,9,10"),
        (lambda: pp.psi((2, 4, 3, 1, 5, 6, 7, 8), 2), "24315678 admits no 2-flip"),
        (lambda: pp.psi_set([1, 2, 3, 4], (2,)), "{2} are not spikes of 1234"),
    ]
    for make, message in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()


def test_reprs():
    assert repr(pp.DescentClassQuery([3, 1], 5)) == "DescentClassQuery(descents=(1, 3), n=5)"
    assert repr(pp.PeakClassQuery((2,), 5)) == "PeakClassQuery(peaks=(2,), n=5)"
    assert repr(pp.BinomialPolynomial(4, [3, 8, 7, 2, 0])) == \
        "BinomialPolynomial(center=4, coeffs=(3, 8, 7, 2, 0))"
    assert repr(pp.FlipAdmission(True, False)) == "FlipAdmission(plus=True, minus=False)"
    assert repr(pp.flip_admission_table((2,), 2)) == (
        "FlipTable(spikes=(2,), center=2, blocks=("
        "(FlipTableRow(permutation=(2, 1, 3, 4), admits=(True,)),), "
        "(FlipTableRow(permutation=(3, 1, 2, 4), admits=(False,)),), ()))")
    assert repr(pp.VerificationReport("c", {"n": 3}, False, {"sigma": (2, 1)}, 4)) == (
        "VerificationReport(claim='c', params={'n': 3}, passed=False, "
        "counterexample={'sigma': (2, 1)}, checked=4)")


def test_report_json_is_a_copy():
    report = pp.VerificationReport("c", {"n": 3}, False, {"sigma": (2, 1), "seen": [1, 2]}, 4)
    data = report.to_json_dict()
    assert data == {"claim": "c", "params": {"n": 3}, "passed": False,
                    "counterexample": {"sigma": (2, 1), "seen": [1, 2]}, "checked": 4}
    data["params"]["n"] = 99
    data["counterexample"]["seen"].append(3)
    assert report.params == {"n": 3}
    assert report.counterexample == {"sigma": (2, 1), "seen": [1, 2]}
    assert pp.VerificationReport("c", {}, True).to_json_dict() == \
        {"claim": "c", "params": {}, "passed": True, "counterexample": None, "checked": 0}


def test_no_check_rests_on_an_assert():
    # `python -O` strips asserts and `if __debug__:` blocks, so a check
    # written that way would vanish from optimized runs.
    root = pathlib.Path(pp.__file__).parent
    found = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert) or (isinstance(node, ast.Name) and node.id == "__debug__")
    ]
    assert found == []
