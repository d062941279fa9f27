"""Monoids of adaptable separated graphs.

Validation, commutative-monoid rewriting, invariant-system extraction,
and the constructive converse that realizes a system as a graph.
"""

from .abelian import FGAbelianGroup, GroupElement, GroupHom, smith_normal_form
from .fixtures import fixture_graph, fixture_system, graph_names
from .graph import (GraphError, GraphParseError, NotAdaptableError, SepGraph,
                    check_adaptable, condensation, export_dot, parse_graph,
                    remove_edge, require_adaptable, restrict_lower,
                    serialize_graph, split_block)
from .isystem import (COUNTEREXAMPLE, VERIFIED, ConnectingMap, ISystem,
                      ISystemError, ISystemParseError, canonicalized,
                      extract_isystem, parse_isystem, serialize_isystem,
                      validate_isystem)
from .posets import Poset, PosetError
from .randgen import corpus_systems, random_adaptable
from .realize import (ConstructionFailed, ConstructionInfeasible,
                      InvalidSystem, RealizeResult, RoundtripReport,
                      check_roundtrip_certificate, realize, roundtrip_check)
from .rewrite import (FreeElement, RewriteError, antisym_nf, confluence_equal,
                      eq_exact, grothendieck_of_restriction, le_semidecide,
                      monoid_nf, nf_add, nf_equal, parse_element,
                      refinement_witness, serialize_element)

__version__ = "0.1.0"

__all__ = [
    "COUNTEREXAMPLE", "VERIFIED",
    "ConnectingMap", "ConstructionFailed", "ConstructionInfeasible",
    "FGAbelianGroup", "FreeElement", "GraphError", "GraphParseError",
    "GroupElement", "GroupHom", "ISystem", "ISystemError", "ISystemParseError",
    "InvalidSystem", "NotAdaptableError", "Poset", "PosetError", "RealizeResult",
    "RewriteError", "RoundtripReport", "SepGraph",
    "antisym_nf", "canonicalized", "check_adaptable",
    "check_roundtrip_certificate", "condensation",
    "confluence_equal", "corpus_systems", "eq_exact", "export_dot",
    "extract_isystem", "fixture_graph", "fixture_system",
    "graph_names", "grothendieck_of_restriction",
    "le_semidecide", "monoid_nf", "nf_add", "nf_equal", "parse_element",
    "parse_graph", "parse_isystem", "random_adaptable", "realize",
    "refinement_witness", "remove_edge", "require_adaptable",
    "restrict_lower", "roundtrip_check", "serialize_element",
    "serialize_graph", "serialize_isystem", "smith_normal_form",
    "split_block", "validate_isystem",
]
