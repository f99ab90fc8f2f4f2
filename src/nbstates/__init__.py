"""Numerics for negative binomial states and their parity superpositions.

Subpackage map: ``fock_core`` (truncated vectors, ladder operators, oracle
moments), ``nbs_states`` (state constructors), ``statistics`` (closed-form
photon statistics), ``algebra`` (pair-ladder deformed-oscillator structure),
``generation`` (Kerr and dispersive protocols), ``sweeps`` (figure-style
parameter sweeps), ``verification`` (check suite), ``cli`` (command line).
"""

from .errors import (
    ConfigError,
    ConvergenceError,
    DimensionMismatchError,
    DomainError,
    NumericsError,
    PoleError,
    TruncationError,
    ZeroNormError,
)
from .fock_core import (
    FockVector,
    PhotonStats,
    TruncationPolicy,
    apply_annihilate,
    apply_create,
    apply_number,
    inner,
    number_state,
    oracle_stats,
)
from .nbs_states import (
    NBSParams,
    cat_state,
    coherent,
    even_coherent,
    even_nbs,
    nbs,
    nbs_inner_closed,
    nbs_parity_overlap,
    normalization_constant,
    odd_coherent,
    odd_nbs,
    partner_phase,
    phase_factor,
    photon_distribution,
    required_dimension,
    required_dimension_cat,
    superposition,
)
from .statistics import (
    a_pow_expectation,
    closed_stats,
    generating_function,
    mean_closed,
    pn_closed,
    pn_closed_upto,
    q_closed,
    q_limit,
    q_recursion_residual,
    quadrature_variances,
    second_moment_closed,
)
from .generation import (
    DispersiveOutcome,
    dispersive_protocol,
    fidelity,
    kerr_evolve,
    kerr_generate,
)

__version__ = "0.1.0"
