"""Bad scalar arguments raise DomainError at the boundary, never a raw Python error."""
import math

import numpy as np
import pytest

from nbstates import algebra, errors, fock_core, generation, nbs_states, statistics, sweeps
from nbstates.algebra import ParitySequence
from nbstates.errors import DomainError
from nbstates.fock_core import FockVector, TruncationPolicy, number_state, oracle_stats
from nbstates.generation import dispersive_protocol, fidelity, kerr_evolve, kerr_generate
from nbstates.nbs_states import (NBSParams, cat_state, coherent, nbs, nbs_inner_closed,
                                 partner_phase, phase_factor, required_dimension,
                                 required_dimension_cat, superposition)
from nbstates.statistics import (a_pow_expectation, closed_stats, generating_function,
                                 pn_closed, pn_closed_upto, q_closed, q_recursion_residual,
                                 quadrature_variances)
from nbstates.sweeps import SweepConfig

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
    lambda: kerr_evolve(FockVector([1.0, 0.0]), "x"),
    lambda: kerr_evolve(FockVector([1.0, 0.0]), 1 + 1j),
    lambda: dispersive_protocol(P, 0.0, 1j),
    lambda: dispersive_protocol(P, 1j),
    lambda: kerr_generate(P, n_max="x"),
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
    # below the minimum and past Python's 4300-digit limit for str()
    lambda: number_state(-10 ** 5000, 4),
    # an int past the float range where a complex label or amplitude is read
    lambda: coherent(10 ** 400),
    lambda: cat_state(10 ** 400, 0.0),
    lambda: nbs_inner_closed(10 ** 400, 0.2, 3),
    lambda: FockVector([10 ** 400]),
    lambda: phase_factor(INF),
    # a complex integer argument, refused before int() can warn on it
    lambda: NBSParams(M=np.complex64(3.7), eta=0.5),
    # a lone angle where a sequence of them belongs
    lambda: SweepConfig(M=3, phis=0.5),
])
def test_bad_scalar_arguments_raise_domain_error(call):
    with pytest.raises(DomainError):
        call()


# numpy's complex cast parses a str or bytes amplitude, reads None as nan and
# warns when a longdouble overflows it
@pytest.mark.parametrize("amplitudes", [
    lambda: ["1", 1],
    lambda: [b"1", 1],
    lambda: [None, 1],
    lambda: [np.longdouble("1e400"), 1],
], ids=("str", "bytes", "None", "longdouble-1e400"))
def test_amplitudes_must_be_numbers(amplitudes):
    with pytest.raises(DomainError, match="amplitudes must be numbers"):
        FockVector(amplitudes())


# a numpy scalar is taken as the Python number of the same value, so the
# arithmetic on it is Python float arithmetic; a float16 label used to stay
# float16 through the sizing and overflow there, and a float32 phi used to
# come back from partner_phase as a float32
@pytest.mark.parametrize("given, expected", [
    (lambda: coherent(np.float16(0.3)), lambda: coherent(float(np.float16(0.3)))),
    (lambda: cat_state(np.float16(1.0), 0.0), lambda: cat_state(1.0, 0.0)),
    (lambda: nbs_inner_closed(0.1, 0.2, np.True_), lambda: nbs_inner_closed(0.1, 0.2, 1)),
    (lambda: partner_phase(np.float32(1.0)), lambda: 1.0 + math.pi),
], ids=("coherent-float16", "cat_state-float16", "nbs_inner_closed-bool_", "partner_phase-float32"))
def test_numpy_scalars_give_what_the_equal_python_numbers_give(given, expected):
    got, want = given(), expected()
    assert type(got) is type(want)
    if isinstance(want, FockVector):
        assert np.array_equal(got.amplitudes, want.amplitudes)
    else:
        assert got == want


# Every integer a caller hands in is at most 2**53, past which a float64
# skips integers.  Past it a forced size used to reach numpy, which raised a
# raw ValueError ("array is too big", "Maximum allowed size exceeded") or
# MemoryError, and a hard_cap of 10**400 a raw OverflowError in the sizing
# bisection.
_SIZED = {
    "nbs": lambda k: nbs(P, n_max=k),
    "superposition": lambda k: superposition(0.0, P, n_max=k),
    "coherent": lambda k: coherent(0.5, n_max=k),
    "number_state": lambda k: number_state(0, k),
    "kerr_generate": lambda k: kerr_generate(P, n_max=k),
    "dispersive_protocol": lambda k: dispersive_protocol(P, 0.0, n_max=k),
    "pn_closed_upto": lambda k: pn_closed_upto(k, 0.0, P),
    "hard_cap": lambda k: required_dimension(P, None, TruncationPolicy(hard_cap=k)),
    "pn_closed": lambda k: pn_closed(k, 0.0, P),
    "M": lambda k: NBSParams(M=k, eta=0.3),
}


@pytest.mark.parametrize("size", (2 ** 53 + 1, 2 ** 62, 10 ** 400),
                         ids=("2**53+1", "2**62", "10**400"))
@pytest.mark.parametrize("entry", sorted(_SIZED))
def test_oversized_integers_raise_domain_error(entry, size):
    with pytest.raises(DomainError, match=r"at most 2\*\*53"):
        _SIZED[entry](size)


_CHECKERS = ("check_integer", "check_real", "check_complex")
_CALLER_MODULES = (errors, nbs_states, fock_core, statistics, generation, sweeps, algebra)
Q = NBSParams(M=3, eta=0.4, theta=0.3)


@pytest.mark.parametrize("call, expected", [
    # superposition checked phi twice, cat_state alpha and phi twice each,
    # dispersive_protocol phi four times (and its n_max twice),
    # closed_stats and q_recursion_residual phi once per closed form, and
    # kerr_generate its own computed n_max and the constant pi/2
    (lambda: superposition(0.7, Q), {"check_real": 1}),
    (lambda: superposition(0.7, Q, 12), {"check_real": 1, "check_integer": 1}),
    (lambda: nbs(Q), {}),
    (lambda: required_dimension(Q, 0.7), {"check_real": 1}),
    (lambda: coherent(0.5), {"check_complex": 1}),
    (lambda: cat_state(0.5, 0.7), {"check_complex": 1, "check_real": 1}),
    (lambda: required_dimension_cat(0.5, 0.7), {"check_complex": 1, "check_real": 1}),
    (lambda: dispersive_protocol(Q, 0.7), {"check_real": 2}),
    (lambda: dispersive_protocol(Q, 0.7, 1.0, 12), {"check_real": 2, "check_integer": 1}),
    (lambda: closed_stats(0.7, Q), {"check_real": 1}),
    (lambda: q_recursion_residual(0.7, Q), {"check_real": 1}),
    (lambda: kerr_generate(Q), {}),
    (lambda: kerr_generate(Q, 12), {"check_integer": 1}),
], ids=["superposition", "superposition-n_max", "nbs", "required_dimension", "coherent",
        "cat_state", "required_dimension_cat", "dispersive_protocol",
        "dispersive_protocol-n_max", "closed_stats", "q_recursion_residual", "kerr_generate",
        "kerr_generate-n_max"])
def test_each_argument_is_checked_once(monkeypatch, call, expected):
    # every checker call the entry point makes, through each module's own
    # reference to the checker: one per scalar argument it was passed
    counts = dict.fromkeys(_CHECKERS, 0)
    for name in _CHECKERS:
        checker = getattr(errors, name)

        def counted(*args, _name=name, _checker=checker):
            counts[_name] += 1
            return _checker(*args)
        for module in _CALLER_MODULES:
            if getattr(module, name, None) is checker:
                monkeypatch.setattr(module, name, counted)
    call()
    assert {name: n for name, n in counts.items() if n} == expected
