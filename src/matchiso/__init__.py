"""Exact desk-scale toolbox for isolating weight functions on perfect
matchings: Tutte determinants, an oblivious modular weight family, faces of
the perfect matching polytope, laminar tight-set machinery, contractions
with alternating circuits, and randomized plus constructive isolation
pipelines.
"""

from .graphs import (
    EdgeVector,
    Graph,
    ParseError,
    SizeGuardExceeded,
    enumerate_perfect_matchings,
    graph_from_edges,
    is_perfect_matching,
    min_weight_perfect_matching,
    parse_graph,
)
from .weights import (
    WeightFunction,
    concatenate,
    family_member,
    is_isolating,
    random_weights,
    separating_weights,
)
from .tutte import (
    SearchOutcome,
    decide_random,
    determinant_search,
)
from .faces import (
    ContractionMultigraph,
    Face,
    GoodnessReport,
    LaminarFamily,
    bounded_circuit_vectors,
    contract_face,
    extend_to_maximal_laminar,
    goodness_check,
    is_contractible,
    lift_contracted_vector,
    min_weight_subface,
    perfect_matching_face,
    respects_face,
    tight_odd_sets,
)
from .engine import (
    EngineError,
    FaceLaminarState,
    IsolationCertificate,
    NoPerfectMatchingError,
    TrialsExhausted,
    advance,
    initial_state,
    isolate_derandomized,
    isolate_randomized,
    make_chains_contractible,
    remove_circuits,
)

__all__ = [name for name in dir() if not name.startswith("_")]
