"""Every scalar slot of the public surface either works or raises an nbstates error.

A fixed table of hostile values is sent to each scalar argument of each
callable the package exports, plus the fields of ``sweeps.SweepConfig``
and the phi of ``sweeps.pn_table``.  Each call must return, or raise a
``DomainError`` or ``NumericsError``, with no warning.  Nothing is asserted
about the value returned: the other test modules hold the values.  A case
whose raw exception is kept on purpose is in ``ALLOWED`` with its reason.
"""
import inspect
import math
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import nbstates
from nbstates import sweeps
from nbstates.errors import DomainError, NumericsError
from nbstates.fock_core import FockVector, TruncationPolicy, number_state
from nbstates.generation import dispersive_protocol, kerr_evolve, kerr_generate
from nbstates.nbs_states import (NBSParams, cat_state, coherent, even_coherent, even_nbs,
                                 nbs, nbs_inner_closed, normalization_constant, odd_coherent,
                                 odd_nbs, partner_phase, phase_factor, required_dimension,
                                 required_dimension_cat, superposition)
from nbstates.statistics import (a_pow_expectation, closed_stats, generating_function,
                                 mean_closed, pn_closed, pn_closed_upto, q_closed, q_limit,
                                 q_recursion_residual, quadrature_variances,
                                 second_moment_closed)

HOSTILE = {
    "True": True,
    "np.True_": np.True_,
    "float16": np.float16(0.3),
    "float32-3e38": np.float32(3e38),
    "longdouble-1e400": np.longdouble("1e400"),
    "int8-min": np.int8(-128),
    "uint64-max": np.uint64(2 ** 64 - 1),
    "0.0": 0.0,
    "-0.0": -0.0,
    "5e-324": 5e-324,
    "1e308": 1e308,
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "2**53": 2 ** 53,
    "10**5000": 10 ** 5000,
    "-10**5000": -10 ** 5000,
    "str": "1",
    "bytes": b"1",
    "None": None,
    "complex": 1 + 1j,
    "complex64": np.complex64(3.7),
    "list": [0.5],
    "0-d-array": np.array(0.5),
    "Fraction": Fraction(1, 3),
    "Decimal": Decimal("0.1"),
}

P = NBSParams(M=3, eta=0.4, theta=0.3)
V = nbs(P, n_max=8)

# "callable.slot" -> the call with the hostile value x in that slot and
# valid values everywhere else
SLOTS = {
    "NBSParams.M": lambda x: NBSParams(M=x, eta=0.4),
    "NBSParams.eta": lambda x: NBSParams(M=3, eta=x),
    "NBSParams.theta": lambda x: NBSParams(M=3, eta=0.4, theta=x),
    "TruncationPolicy.tail_tolerance": lambda x: TruncationPolicy(tail_tolerance=x),
    "TruncationPolicy.hard_cap": lambda x: TruncationPolicy(hard_cap=x),
    "FockVector.amplitudes": lambda x: FockVector(x),
    "FockVector.amplitudes[0]": lambda x: FockVector([x, 1]),
    "number_state.n": lambda x: number_state(x, 4),
    "number_state.n_max": lambda x: number_state(0, x),
    "phase_factor.angle": lambda x: phase_factor(x),
    "partner_phase.phi": lambda x: partner_phase(x),
    "normalization_constant.phi": lambda x: normalization_constant(x, P),
    "required_dimension.phi": lambda x: required_dimension(P, x),
    "required_dimension_cat.alpha": lambda x: required_dimension_cat(x),
    "required_dimension_cat.phi": lambda x: required_dimension_cat(1.0, x),
    "nbs.n_max": lambda x: nbs(P, n_max=x),
    "superposition.phi": lambda x: superposition(x, P),
    "superposition.n_max": lambda x: superposition(0.0, P, n_max=x),
    "even_nbs.n_max": lambda x: even_nbs(P, n_max=x),
    "odd_nbs.n_max": lambda x: odd_nbs(P, n_max=x),
    "coherent.alpha": lambda x: coherent(x),
    "coherent.n_max": lambda x: coherent(0.5, n_max=x),
    "cat_state.alpha": lambda x: cat_state(x, 0.0),
    "cat_state.phi": lambda x: cat_state(0.5, x),
    "cat_state.n_max": lambda x: cat_state(0.5, 0.0, n_max=x),
    "even_coherent.alpha": lambda x: even_coherent(x),
    "even_coherent.n_max": lambda x: even_coherent(0.5, n_max=x),
    "odd_coherent.alpha": lambda x: odd_coherent(x),
    "odd_coherent.n_max": lambda x: odd_coherent(0.5, n_max=x),
    "nbs_inner_closed.alpha": lambda x: nbs_inner_closed(x, 0.2, 3),
    "nbs_inner_closed.beta": lambda x: nbs_inner_closed(0.1, x, 3),
    "nbs_inner_closed.M": lambda x: nbs_inner_closed(0.1, 0.2, x),
    "q_closed.phi": lambda x: q_closed(x, P),
    "q_limit.phi": lambda x: q_limit(x),
    "mean_closed.phi": lambda x: mean_closed(x, P),
    "second_moment_closed.phi": lambda x: second_moment_closed(x, P),
    "closed_stats.phi": lambda x: closed_stats(x, P),
    "q_recursion_residual.phi": lambda x: q_recursion_residual(x, P),
    "pn_closed.n": lambda x: pn_closed(x, 0.7, P),
    "pn_closed.phi": lambda x: pn_closed(2, x, P),
    "pn_closed_upto.n_max": lambda x: pn_closed_upto(x, 0.7, P),
    "pn_closed_upto.phi": lambda x: pn_closed_upto(4, x, P),
    "generating_function.lam": lambda x: generating_function(x, 0.7, P),
    "generating_function.phi": lambda x: generating_function(0.5, x, P),
    "a_pow_expectation.k": lambda x: a_pow_expectation(x, 0.7, P),
    "a_pow_expectation.phi": lambda x: a_pow_expectation(2, x, P),
    "quadrature_variances.phi": lambda x: quadrature_variances(x, P),
    "kerr_evolve.g1t": lambda x: kerr_evolve(V, x),
    "kerr_generate.n_max": lambda x: kerr_generate(P, n_max=x),
    "dispersive_protocol.phi": lambda x: dispersive_protocol(P, x),
    "dispersive_protocol.g2t": lambda x: dispersive_protocol(P, 0.7, x),
    "dispersive_protocol.n_max": lambda x: dispersive_protocol(P, 0.7, n_max=x),
    "SweepConfig.M": lambda x: sweeps.SweepConfig(M=x),
    "SweepConfig.theta": lambda x: sweeps.SweepConfig(M=3, theta=x),
    "SweepConfig.phis": lambda x: sweeps.SweepConfig(M=3, phis=x),
    "SweepConfig.phis[0]": lambda x: sweeps.SweepConfig(M=3, phis=(x,)),
    "SweepConfig.eta_start": lambda x: sweeps.SweepConfig(M=3, eta_start=x),
    "SweepConfig.eta_stop": lambda x: sweeps.SweepConfig(M=3, eta_stop=x),
    "SweepConfig.grid_step": lambda x: sweeps.SweepConfig(M=3, grid_step=x),
    "pn_table.phi": lambda x: sweeps.pn_table(x, P),
}

# exported callables that take no scalar argument
NO_SCALAR_SLOTS = {
    # result records, built by the package and not checked on entry
    "DispersiveOutcome", "PhotonStats",
    # functions of FockVectors or NBSParams alone
    "apply_annihilate", "apply_create", "apply_number", "fidelity", "inner", "nbs_parity_overlap",
    "oracle_stats", "photon_distribution",
}

_N_MAX_SLOTS = ("number_state.n_max", "nbs.n_max", "superposition.n_max", "even_nbs.n_max",
                "odd_nbs.n_max", "coherent.n_max", "cat_state.n_max", "even_coherent.n_max",
                "odd_coherent.n_max", "pn_closed_upto.n_max", "kerr_generate.n_max",
                "dispersive_protocol.n_max")

# (slot, value) -> (the raw exception it raises, why that is kept)
ALLOWED = {
    (slot, "2**53"): (MemoryError, "2**53 is inside the integer contract, and a vector of "
                                   "2**53 + 1 components is an allocation no machine has")
    for slot in _N_MAX_SLOTS
}


def test_every_exported_callable_is_in_the_table():
    exported = {name for name, obj in vars(nbstates).items()
                if not name.startswith("_") and callable(obj) and not inspect.ismodule(obj)
                and not (inspect.isclass(obj) and issubclass(obj, BaseException))}
    covered = {slot.split(".")[0] for slot in SLOTS} | NO_SCALAR_SLOTS
    assert exported - covered == set()


def _raw_error(call, value):
    """What ``call(value)`` raises other than an nbstates error, or None; warnings raise."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            call(value)
    except (DomainError, NumericsError):
        return None
    except Exception as exc:
        return exc
    return None


@pytest.mark.parametrize("slot", sorted(SLOTS))
def test_hostile_scalars_return_or_raise_an_nbstates_error(slot):
    leaks = []
    for name, value in HOSTILE.items():
        exc = _raw_error(SLOTS[slot], value)
        allowed = ALLOWED.get((slot, name), (type(None),))[0]
        if not isinstance(exc, allowed):
            leaks.append(f"{name}: {type(exc).__name__} {exc}, expected {allowed.__name__}")
    assert leaks == []
