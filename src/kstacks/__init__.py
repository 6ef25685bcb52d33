"""Exact K-group and Picard-group computations for toric stack presentations.

The public surface mirrors the layers: integer linear algebra and finitely
generated abelian groups (abelian), group-ring arithmetic (groupring), strong
Groebner bases over the integers (grobner), the stack input model (stacks),
the K-group presentation and class calculus (ktheory), Picard groups
(picard), the expression parser (exprs), and the command line (cli).
"""

from .abelian import (
    FgAbelianGroup,
    GroupHomomorphism,
    IntMatrix,
    group_from_relations,
    quotient_by_subgroup,
    smith_normal_form,
)
from .groupring import GroupRingElement, component_product, one_minus
from .grobner import (
    AbGroupInvariants,
    PolyPresentation,
    StrongGroebnerBasis,
    normal_form,
    strong_groebner,
    zmodule_invariants,
)
from .stacks import (
    ConnectednessReport,
    StackData,
    StackDataError,
    builtin_example,
    check_connected,
    connectify,
    load_stackdata,
    make_stack_data,
    stackdata_from_json,
    stackdata_to_json,
)
from .ktheory import (
    K0Class,
    class_of_intersection,
    class_of_koszul_quotient,
    class_of_twist,
    equal_in_k0,
    induced_map,
    invariants,
    k0_presentation,
)
from .picard import pic, pic_open
from .exprs import ParseError, parse_element

__version__ = "0.1.0"

__all__ = [
    "AbGroupInvariants",
    "ConnectednessReport",
    "FgAbelianGroup",
    "GroupHomomorphism",
    "GroupRingElement",
    "IntMatrix",
    "K0Class",
    "ParseError",
    "PolyPresentation",
    "StackData",
    "StackDataError",
    "StrongGroebnerBasis",
    "builtin_example",
    "check_connected",
    "class_of_intersection",
    "class_of_koszul_quotient",
    "class_of_twist",
    "component_product",
    "connectify",
    "equal_in_k0",
    "group_from_relations",
    "induced_map",
    "invariants",
    "k0_presentation",
    "load_stackdata",
    "make_stack_data",
    "normal_form",
    "one_minus",
    "parse_element",
    "pic",
    "pic_open",
    "quotient_by_subgroup",
    "smith_normal_form",
    "stackdata_from_json",
    "stackdata_to_json",
    "strong_groebner",
    "zmodule_invariants",
]
