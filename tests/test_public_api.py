"""The names the package exports, pinned so that none is added or dropped
unnoticed, and the API run from many threads at once."""

import sys
import threading
import types

import cuntzsum
from cuntzsum import (
    algebra,
    bialgebra,
    check_coassociativity,
    check_counit_laws,
    delta,
    parse_element,
    render_tensor,
    serialize_tensor,
)

PUBLIC_NAMES = [
    "AlgebraElement", "Classification", "CuntzMonomial", "Decomposition", "FREE_MONOID_AB",
    "FreeMonoid", "InputError", "NATURALS", "ParseError",
    "PowerSubmonoid", "PrimeSet", "RawWord", "Scalar", "SubmonoidView", "SubsetWindow",
    "SuiteConfig", "SuiteReport", "TensorElement", "TripleTensorElement", "ZERO_ELEMENT",
    "canonical_form", "canonical_tensor_form", "check_biideal_on_generators",
    "check_coassociativity", "check_counit_laws", "check_hom_property", "check_wcs_axiom",
    "classify_component_set", "coefficient_extract", "complement_duality_check", "counit",
    "counit_contract_left", "counit_contract_right", "decompose", "delta", "delta_H",
    "delta_restricted", "deserialize_element", "divisor_pairs", "equals", "from_monomial",
    "generator", "is_factorial", "is_ideal", "is_prime", "is_prime_subset", "is_subsemigroup",
    "lattice_iso_check", "monomial", "parse_element", "phi", "prime_factorize",
    "quotient_morphism_check", "reduce_word", "render_element", "render_tensor",
    "run_property_suite", "serialize_element", "serialize_tensor", "simple_tensor",
    "submonoid_member", "subset_window", "tensor_unit", "unit", "window_of",
]


def test_the_public_names_are_pinned():
    names = sorted(
        name for name, value in vars(cuntzsum).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES
    # the reference expansions are no package exports, but stay in their modules
    for name in ("raw_word", "lift_left", "lift_right", "expand_to_level"):
        assert not hasattr(cuntzsum, name)
    assert cuntzsum.delta_H is bialgebra.delta_restricted
    assert callable(bialgebra.lift_left) and callable(bialgebra.lift_right)
    assert callable(algebra.expand_to_level)


# Component-1 terms, shared and distinct coefficients, several components, and a
# unit whose coassociativity check splits 240 divisor pairs
THREADED_INPUTS = [
    "s(720720,5)*s(720720,9)^* + [1/2] * s(720720,2)",
    "[2/3-1i] * s(12,7)*s(12,2)^* + s(12,4) + [5] * I(1) + s(6,5)^*",
    "I(2520)",
    "s(4,1)*s(4,1)^* + s(4,2)*s(4,2)^* + s(4,3)*s(4,3)^* + [-1/2] * s(4,4)*s(4,4)^*",
]


def _api_results(texts):
    results = []
    for text in texts:
        x = parse_element(text)
        dx = delta(x)
        results.append((x, dx, render_tensor(dx), serialize_tensor(dx), check_coassociativity(x), check_counit_laws(x)))
    return results


def test_threads_get_the_serial_results():
    """Eight threads, each from its own starting input, switched as often as the interpreter allows."""
    serial = _api_results(THREADED_INPUTS)
    count = len(THREADED_INPUTS)
    results, errors = {}, []

    def worker(k):
        try:
            results[k] = _api_results(THREADED_INPUTS[k % count:] + THREADED_INPUTS[:k % count])
        except Exception as exc:  # reported below, with the thread that raised it
            errors.append((k, exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for k in range(8):
        assert results[k] == serial[k % count:] + serial[:k % count]
