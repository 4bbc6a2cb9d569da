"""The names the package exports, pinned so that none is added or dropped unnoticed."""

import types

import cuntzsum
from cuntzsum import algebra, bialgebra

PUBLIC_NAMES = [
    "AlgebraElement", "Classification", "CuntzMonomial", "Decomposition", "FREE_MONOID_AB",
    "FreeMonoid", "InputError", "NATURALS", "NATURALS_MONOID", "NaturalsMonoid", "ParseError",
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
