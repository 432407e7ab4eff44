"""Exact algebra of finite-rank free groups: words, automorphisms, subgroups."""

from .words import (
    FreeGroup,
    Letter,
    Word,
    canonical_conjugate,
    conjugacy_length,
    primitive_root,
    reduce_letters,
    root_power,
)
from .autos import (
    BasisExpresser,
    FreeAut,
    inner_conjugator,
    is_automorphism,
    nielsen_generators,
)
from .stallings import (
    SubgroupGraph,
    congruence_kernel,
    fold,
    homology_kernel,
    is_characteristic,
    subgroups_of_index_at_most,
    whole_group_graph,
)

__all__ = [
    "FreeGroup",
    "Word",
    "reduce_letters",
    "primitive_root",
    "root_power",
    "canonical_conjugate",
    "conjugacy_length",
    "FreeAut",
    "is_automorphism",
    "nielsen_generators",
    "inner_conjugator",
    "BasisExpresser",
    "SubgroupGraph",
    "fold",
    "whole_group_graph",
    "congruence_kernel",
    "homology_kernel",
    "subgroups_of_index_at_most",
    "is_characteristic",
]
