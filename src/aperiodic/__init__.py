"""Transition semigroups of aperiodic (star-free) finite automata.

Exact semigroup closure and aperiodicity certification, the extremal
complete-unitary and semiconstant-tree DFA families with their size
formulas, the maximization dynamic programs, a budgeted depth-first search,
and the reversal/product complexity experiments.
"""

from types import ModuleType as _ModuleType

from .transforms import (
    Transformation,
    compose,
    constant,
    has_cycle,
    identity,
    semiconstant,
    unitary,
)
from .semigroups import (
    DEFAULT_ELEMENT_BUDGET,
    Semigroup,
    UnitaryVerdict,
    closure,
    is_aperiodic,
    is_transition_complete,
    unitary_generator_check,
)
from .automata import (
    Dfa,
    MinimalityReport,
    is_minimal,
    minimize,
    parse_dfa,
    product_complexity,
    product_dfa,
    reverse_determinize,
    transition_semigroup,
)
from .families import (
    Distribution,
    StructureTree,
    build_family,
    count_structures,
    enumerate_distributions,
    enumerate_structures,
    family_generators,
    leaf,
    node,
    parse_distribution,
    parse_structure,
)
from .combinatorics import (
    bipath_k_partial,
    j_trivial_size,
    monotonic_size,
    nearly_monotonic_size,
    partially_monotonic_size,
    sctree_k_partial,
    sctree_size,
    semiconstant_sum_k_partial,
    unitary_even_lower_bound,
    unitary_family_size,
)
from .optimizer import max_sctree, max_unitary
from .search import max_aperiodic

# importing a submodule binds its name here too; it is not part of the API
__all__ = [name for name in dir()
           if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
__version__ = "0.1.0"
