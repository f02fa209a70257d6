"""Exact descent and peak statistics for permutations.

The package computes descent polynomials d(S,n) and peak polynomials
p(I,n) in the binomial basis with arbitrary-precision integers, counts
and enumerates the underlying permutation classes, manipulates the
order-reversing flip involutions that connect the two families, and
ships a brute-force verification suite for every identity it relies on.

Each subcommand loads only the layers it runs. Importing the package
loads ``core``; ``enumeration``, ``flips``, ``polynomials`` and
``verify`` are registered in ``sys.modules`` but run their code only
when one of their attributes is first used. The names re-exported here
resolve the same way.
"""
import importlib.util
import sys

from . import core


def _lazy(name: str):
    """The submodule ``name``, registered so that its code runs on first use."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


enumeration = _lazy("enumeration")
flips = _lazy("flips")
polynomials = _lazy("polynomials")
verify = _lazy("verify")

_EXPORTS = {
    core: (
        "CapExceeded", "MAX_STEPS", "Perm", "Positions", "as_permutation",
        "canonical_descent_set", "descent_set", "initial_overlap_k", "initial_set",
        "is_admissible", "is_permutation", "markings", "peak_set", "peaks_of", "position_set",
        "spike_set", "spikes_of", "valley_set", "valleys_of",
    ),
    enumeration: (
        "DescentClassQuery", "PeakClassQuery", "count_descent_class", "count_peak_class",
        "enumerate_descent_class", "enumerate_peak_class", "parallel_count",
        "peak_poly_value", "scale_peak_count",
    ),
    flips: (
        "FlipAdmission", "admits_flip", "fl", "flip_profile", "psi", "psi_set",
    ),
    polynomials: (
        "BinomialPolynomial", "FlipTable", "FlipTableRow", "binomial", "descent_coeffs",
        "descent_poly_via_peaks", "flip_admission_table", "moebius_terms", "peak_coeffs",
        "peak_poly_via_moebius", "prefix_interval_class",
    ),
    verify: (
        "VerificationReport", "check_flip_bijection", "check_flip_table_partition",
        "check_marked_lemma", "check_spike_sum",
    ),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}

__version__ = "1.0.0"

__all__ = sorted(_LAYER_OF)


def __getattr__(name: str):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(layer, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
