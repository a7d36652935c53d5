"""Exact capacities and bounds for entanglement networks."""

from .netmodel import (
    Cut,
    Edge,
    Network,
    NetworkError,
    TooLargeError,
    dump_network,
    is_acyclic,
    load_network,
    min_cut,
    network,
    orient,
    scale,
    tensor_power,
)
from .tnrank import (
    BoundaryMatrix,
    PrimeField,
    R1Estimate,
    TensorAssignment,
    contract,
    estimate_r1,
    random_assignment,
    rank_mod_p,
)
from .codingsearch import (
    BudgetExceededError,
    ProtocolTable,
    SearchConfig,
    SearchResult,
    c1_exact,
    exhaustive_achievable,
    is_valid,
)
from .transforms import (
    RoundedPair,
    SandwichReport,
    SplitSpec,
    round_networks,
    sandwich_check,
    split_cycle_edge,
)

__version__ = "0.1.0"
