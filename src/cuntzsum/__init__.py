"""Exact symbolic computation in the direct sum of all Cuntz algebras.

The package provides the dense finitely-supported subalgebra with exact
Gaussian-rational coefficients, the divisor-indexed comultiplication and
counit that make it a bialgebra, the classification of component sets
into subbialgebras and biideals through prime-set-generated submonoids,
an expression grammar with a canonical printer, and seeded property
suites that mechanically verify the axioms.
"""

from .algebra import (
    AlgebraElement,
    CuntzMonomial,
    RawWord,
    ZERO_ELEMENT,
    canonical_form,
    coefficient_extract,
    equals,
    from_monomial,
    generator,
    monomial,
    reduce_word,
    unit,
)
from .bialgebra import (
    check_coassociativity,
    check_counit_laws,
    check_hom_property,
    check_wcs_axiom,
    counit,
    counit_contract_left,
    counit_contract_right,
    delta,
    delta_H,
    delta_restricted,
    phi,
)
from .classify import (
    Classification,
    Decomposition,
    check_biideal_on_generators,
    classify_component_set,
    decompose,
    lattice_iso_check,
    quotient_morphism_check,
)
from .errors import InputError, ParseError
from .exprs import (
    deserialize_element,
    parse_element,
    render_element,
    render_tensor,
    serialize_element,
    serialize_tensor,
)
from .monoids import (
    FREE_MONOID_AB,
    NATURALS,
    FreeMonoid,
    PowerSubmonoid,
    PrimeSet,
    SubmonoidView,
    SubsetWindow,
    complement_duality_check,
    divisor_pairs,
    is_factorial,
    is_ideal,
    is_prime,
    is_prime_subset,
    is_subsemigroup,
    prime_factorize,
    submonoid_member,
    subset_window,
    window_of,
)
from .scalars import Scalar
from .suites import SuiteConfig, SuiteReport, run_property_suite
from .tensors import (
    TensorElement,
    TripleTensorElement,
    canonical_tensor_form,
    simple_tensor,
    tensor_unit,
)

__version__ = "0.1.0"
