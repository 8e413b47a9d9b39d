"""Numerical certificates of global synchronization on graphs.

The package measures an expander profile (alpha, c_minus, c_plus) of a
graph, turns it into a certificate that every stable state of the
homogeneous oscillator flow is the synchronized one, and cross-checks the
arithmetic against direct simulation.
"""

__version__ = "0.1.0"

from .errors import (
    BracketError,
    ConsistencyError,
    DomainError,
    GenerationError,
    InputError,
    KurasyncError,
    NumericalError,
    ScheduleError,
)
from .graphs import (
    Graph,
    degree_extrema,
    edges_between,
    gen_erdos_renyi,
    gen_named,
    gen_random_regular,
    read_edge_list,
    write_edge_list,
)
from .spectral import (
    ExpanderProfile,
    MixingEntry,
    MixingReport,
    centered_adjacency_alpha,
    centered_laplacian_extremes,
    check_mixing_bounds,
    degree_bounds_from_profile,
    expander_profile,
)
from .dynamics import (
    EquilibriumReport,
    FlowBatch,
    FlowResult,
    classify_equilibrium,
    daido,
    energy,
    flow,
    flow_batch,
    gradient,
    hessian,
    random_phases,
    wrap_phases,
)
from .certify import (
    AmplificationTrace,
    CertResult,
    OrderParamBounds,
    Schedule,
    SmallArcStep,
    TailStep,
    TraceRow,
    amplification_run,
    max_alpha_regular,
    min_ramanujan_degree,
    order_param_bounds,
    preset_regular_schedule,
    theorem_condition,
)
from .randomgraphs import (
    ErPrediction,
    er_failure_probability,
    er_prediction,
    gamma_roots,
    gamma_roots_eps,
    h_func,
)
