"""Numerics for localizing bipartite entanglement in multipartite states:
root measures, the channel-state correspondence, product-POVM optimization,
and finite LOCC protocol trees."""

__version__ = "0.1.0"

from .states import (
    DimSpec,
    DensityOperator,
    DimensionError,
    NullBranchError,
    PureState,
    conditional_state,
    partial_trace,
)
from .measures import (
    Instrument,
    RootMeasure,
    concurrence_measure,
    concurrence_of_assistance,
    entropy_measure,
    entropy_of_entanglement,
    f_factor,
    gconcurrence_measure,
    gconcurrence_pure,
    wootters_concurrence,
)
from .roof import DecompositionEnsemble, RoofConfig, gconcurrence_mixed
from .jamiolkowski import JamiolkowskiMap, from_state
from .localize import (
    LEConfig,
    LEResult,
    ProductPOVM,
    average_root_entanglement,
    optimize_le,
)
from .protocols import (
    ProtocolNode,
    ProtocolResult,
    apply_instrument,
    evaluate_protocol,
    monotonicity_gap,
    locked_state_protocol,
)
from .catalog import (
    LockedStateSpec,
    bell_state,
    build_locked_state,
    canonical_state,
    ghz_state,
    key_unitary_v1,
    nonunitary_v1_literal,
    phi_plus_4_state,
    w_state,
    werner_state,
)
