"""Exact Bredon cohomology of finite G-CW complexes with Mackey coefficients.

The package computes, in exact rational arithmetic, both sides of the
equivariant Chern-character target decomposition: assembled Bredon cohomology
of a finite G-CW complex with Mackey-functor coefficients on one side, and
Weyl-equivariant hom spaces out of quotient fixed-point homology into the
primitive parts of the coefficients on the other.
"""

from .bredon import (
    CoefficientSystem,
    alpha_map,
    assemble_BH,
    bredon_cohomology,
    bredon_report,
    chern_report,
    chern_target,
    verify_collapse,
)
from .chartab import (
    CharacterTable,
    abelian_character_table,
    induction_matrix,
    parse_character_table,
    restriction_matrix,
    validate_table,
)
from .cyclotomic import Cyclotomic, cyclotomic_polynomial, parse_cyclotomic
from .eicat import (
    CatModule,
    CatModuleMap,
    EICategory,
    build_or_category,
    build_sub_category,
    check_splitting_identities,
    free_module,
    hom_over_category,
    nu_map,
    project_or_to_sub,
    restriction_along_pr,
    retraction_rho,
    splitting_S,
    splitting_T,
)
from .gcw import (
    GCWComplex,
    builtin_examples,
    euler_check,
    fixed_point_chain,
    homology_with_action,
    orbit_complex,
    parse_gcw,
    point_complex,
    quotient_chain,
)
from .groups import (
    FiniteGroup,
    Subgroup,
    centralizer,
    double_cosets,
    element_conjugacy_classes,
    enumerate_subgroups,
    normalizer,
    parse_group,
    subgroup,
    subgroup_conjugacy_classes,
    weyl_group,
)
from .mackey import (
    MackeyFunctor,
    T_H_of_mackey,
    burnside_mackey,
    constant_mackey,
    mackey_to_sub_module,
    mu_H_check,
    nu_of_mackey,
    parse_mackey,
    repring_mackey,
    validate_mackey,
)
from .qlinalg import GroupAction, RationalMatrix, equivariant_hom_dim, invariants

__version__ = "0.1.0"
