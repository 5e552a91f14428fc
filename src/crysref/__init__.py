"""Reflection presentations, affine matrix models, braid isomorphisms
and Hecke-algebra deformations for the infinite families of
crystallographic complex reflection groups."""

from .ring import FormalAlphaOverflow, RingElement, RingSpec
from .words import Word, parse_word
from .presentations import (
    CoxeterLikeDiagram,
    GROUP_FAMILIES,
    Lace,
    Presentation,
    RankOutOfRange,
    UnsupportedFamily,
    abelianize,
    artinize,
    build_group_presentation,
    diagram_to_dot,
    presentation_to_text,
    punctured_sphere_braid,
    special_torus_braid,
)
from .affine import (
    AffineElement,
    MATRIX_FAMILIES,
    build_generator_matrices,
    classify_element,
    enumerate_reflection_classes,
    evaluate_word,
    verify_presentation,
)
from .prover import (
    Budget,
    Certificate,
    GeneratorMap,
    ProofResult,
    ProofStatus,
    check_certificate,
    compose_maps,
    prove_trivial,
    replay,
    resolve_hint,
    verify_homomorphism,
    verify_isomorphism_pair,
)
from .isomorphisms import BraidIsomorphism, braid_isomorphism, braid_space_for
from .hecke import (
    GDAHA_LEGS,
    HeckePresentation,
    LaurentPoly,
    ParameterMap,
    UniverseMismatch,
    build_gdaha,
    build_generic_hecke,
    degeneration_check,
    gdaha_check,
    gdaha_family_data,
    gdaha_parameter_map,
    hecke_to_text,
    rank_one_specialization_check,
    triple_dot_generator,
    triple_dot_report,
    verify_specialization,
)

__version__ = "0.1.0"
