"""Bad scalar arguments raise DomainError at the boundary, never a raw Python error."""
import math

import numpy as np
import pytest

from nbstates.algebra import ParitySequence
from nbstates.errors import DomainError
from nbstates.fock_core import FockVector, TruncationPolicy, number_state, oracle_stats, tail_mass
from nbstates.generation import DispersiveParams, KerrParams, fidelity, kerr_generate
from nbstates.nbs_states import (NBSParams, cat_state, coherent, nbs, nbs_inner_closed,
                                 partner_phase, phase_factor, required_dimension,
                                 required_dimension_cat, superposition)
from nbstates.statistics import (a_pow_expectation, generating_function, pn_closed, q_closed,
                                 quadrature_variances)

P = NBSParams(M=2, eta=0.3)
NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("call", [
    lambda: pn_closed(NAN, 0.0, P),
    lambda: pn_closed(INF, 0.0, P),
    lambda: a_pow_expectation(NAN, 0.0, P),
    lambda: number_state(NAN, 4),
    lambda: number_state(1.5, 4),
    lambda: number_state(1, NAN),
    lambda: NBSParams(M=NAN, eta=0.3),
    lambda: NBSParams(M=INF, eta=0.3),
    lambda: TruncationPolicy(hard_cap=NAN),
    lambda: TruncationPolicy(hard_cap=INF),
    lambda: nbs(P, n_max=-1),
    lambda: nbs(P, n_max=NAN),
    lambda: superposition(0.0, P, n_max=2.5),
    lambda: coherent(0.5, n_max=-1),
    lambda: cat_state(0.5, 0.0, n_max=INF),
    lambda: nbs_inner_closed(0.1, 0.2, NAN),
    lambda: ParitySequence(offset=0, coeffs=np.ones(4)).f(NAN),
    lambda: tail_mass(FockVector([1.0, 1.0]), NAN),
    lambda: generating_function(NAN, 0.0, P),
    lambda: nbs_inner_closed(NAN, 0.5, 3),
    lambda: coherent(NAN),
    lambda: coherent(complex(0.5, NAN), n_max=4),
    lambda: cat_state(INF, 0.0),
    lambda: required_dimension_cat(INF),
    lambda: oracle_stats(FockVector([NAN, 1.0])),
    lambda: fidelity(FockVector([NAN, 1.0]), FockVector([1.0, 0.0])),
    # finite labels whose |alpha|^2 overflows a float
    lambda: required_dimension_cat(1e200),
    lambda: coherent(1e160),
    lambda: cat_state(1e160, 0.0),
    lambda: coherent(1e160, n_max=5),
    # above 2**53, M + 1 rounds to M
    lambda: NBSParams(M=2 ** 53 + 1, eta=0.3),
    lambda: NBSParams(M=10 ** 5000, eta=0.3),
    lambda: NBSParams(M=10 ** 16, eta=1e-8),
    lambda: nbs_inner_closed(0.1, 0.2, 2 ** 53 + 1),
    # not a real number where one is needed, or not a number at all
    lambda: KerrParams(g1="x", t=1.0),
    lambda: KerrParams(g1=1 + 1j, t=1.0),
    lambda: DispersiveParams(phi=0.0, g2=1.0, t=1j),
    lambda: DispersiveParams(phi=1j, g2=1.0, t=1.0),
    lambda: kerr_generate(P, g1="x"),
    lambda: generating_function(1j, 0.0, P),
    lambda: generating_function("x", 0.0, P),
    lambda: coherent("x"),
    lambda: q_closed("1", P),
    lambda: quadrature_variances(1j, P),
    lambda: superposition("x", P),
    lambda: required_dimension(P, "x"),
    lambda: partner_phase("x"),
    lambda: phase_factor("x"),
    lambda: FockVector(["a"]),
])
def test_bad_scalar_arguments_raise_domain_error(call):
    with pytest.raises(DomainError):
        call()
