"""The value types: immutable, compared by their fields or by identity, and safe to compare.

Types of scalars compare and hash by their fields.  Types that hold arrays
or vectors compare and hash by identity, because an array has no single
truth value.  Either way ``==``, ``!=``, ``hash()`` and set membership
return, for every value type, and no attribute can be assigned or deleted.
"""
import inspect

import numpy as np
import pytest

from nbstates import algebra, statistics, sweeps, verification
from nbstates.fock_core import (FockVector, PhotonStats, TruncationPolicy, number_state,
                                oracle_stats)
from nbstates.generation import DispersiveOutcome, dispersive_protocol
from nbstates.nbs_states import NBSParams, even_nbs

P = NBSParams(M=3, eta=0.4, theta=0.3)
SMALL_GRID = sweeps.SweepConfig(M=3, phis=(0.0, 1.0), eta_stop=0.05)

# type -> a function that builds a new instance; two calls give the same field values
MAKERS = {
    TruncationPolicy: lambda: TruncationPolicy(1e-10, 50),
    FockVector: lambda: FockVector([0.6, 0.8]),
    PhotonStats: lambda: oracle_stats(number_state(2, 4)),
    NBSParams: lambda: NBSParams(3, 0.4, 0.3),
    statistics._SeriesSums: lambda: statistics._series_sums(3, [0.4, 0.5], 0.3),
    DispersiveOutcome: lambda: dispersive_protocol(P, 0.7),
    sweeps.SweepConfig: lambda: sweeps.SweepConfig(M=3, phis=(0.0, 1.0)),
    sweeps.SweepTable: lambda: sweeps.fig1_records(SMALL_GRID),
    verification.CheckResult: lambda: verification.CheckResult("x", True, 1e-3, 1e-2, "d"),
    algebra.ParitySequence: lambda: algebra.ParitySequence.of(even_nbs(P, n_max=8)),
}
BY_FIELDS = {TruncationPolicy, PhotonStats, NBSParams, sweeps.SweepConfig,
             verification.CheckResult}
IDS = [t.__name__ for t in MAKERS]

# the constructor parameters as (name, default), all positional-or-keyword
SIGNATURES = {
    TruncationPolicy: [("tail_tolerance", 1e-12), ("hard_cap", 20000)],
    FockVector: [("amplitudes", None)],
    PhotonStats: [("mean", None), ("second_moment", None), ("variance", None),
                  ("mandel_q", None)],
    NBSParams: [("M", None), ("eta", None), ("theta", 0.0)],
    statistics._SeriesSums: [("M", None), ("terms", None), ("by_power", None),
                             ("rotation", None)],
    DispersiveOutcome: [("projected_g", None), ("projected_e", None), ("prob_g", None),
                        ("prob_e", None)],
    sweeps.SweepConfig: [("M", None), ("theta", 0.0), ("phis", sweeps.FIG1_PHIS),
                         ("eta_start", 0.02), ("eta_stop", 0.95), ("grid_step", 0.01)],
    sweeps.SweepTable: [("etas", None), ("phis", None), ("values", None), ("M", None),
                        ("quantity", None)],
    verification.CheckResult: [("name", None), ("passed", None), ("measured", None),
                               ("bound", None), ("detail", "")],
    algebra.ParitySequence: [("offset", None), ("coeffs", None)],
}


@pytest.mark.parametrize("make", MAKERS.values(), ids=IDS)
def test_comparisons_and_hash_never_raise(make):
    a, b = make(), make()
    for x, y in ((a, a), (a, b), (a, None), (a, 1.0)):
        assert isinstance(x == y, bool) and isinstance(x != y, bool)
        assert (x == y) is not (x != y)
        assert isinstance(hash(x), int)
        assert x in {x} and (x in {y}) is (x == y)


@pytest.mark.parametrize("make", MAKERS.values(), ids=IDS)
def test_scalars_compare_by_fields_and_arrays_by_identity(make):
    a, b = make(), make()
    assert a == a and hash(a) == hash(a)
    if type(a) in BY_FIELDS:
        assert a == b and hash(a) == hash(b)
    else:
        assert a != b
        assert len({a, b}) == 2


def test_each_field_value_tells_instances_apart():
    assert NBSParams(3, 0.4) != NBSParams(3, 0.4, 0.1)
    assert TruncationPolicy() != TruncationPolicy(hard_cap=50)
    assert sweeps.fig1_config() == sweeps.SweepConfig(30) != sweeps.fig2_config()
    assert verification.CheckResult("x", True) != verification.CheckResult("x", False)


@pytest.mark.parametrize("make", MAKERS.values(), ids=IDS)
def test_no_attribute_can_be_assigned_or_deleted(make):
    a = make()
    before = repr(a)
    for name in type(a)._fields:
        with pytest.raises(AttributeError):
            setattr(a, name, 1)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.no_such_attribute = 1
    assert repr(a) == before


@pytest.mark.parametrize("make", MAKERS.values(), ids=IDS)
def test_repr_shows_each_field(make):
    a = make()
    shown = ", ".join(f"{name}={getattr(a, name)!r}" for name in type(a)._fields)
    assert repr(a) == f"{type(a).__qualname__}({shown})"


def test_reprs_are_pinned():
    assert repr(TruncationPolicy()) == "TruncationPolicy(tail_tolerance=1e-12, hard_cap=20000)"
    assert repr(FockVector([1])) == "FockVector(amplitudes=array([1.+0.j]))"
    assert (repr(oracle_stats(number_state(0, 2)))
            == "PhotonStats(mean=0.0, second_moment=0.0, variance=0.0, mandel_q=None)")
    assert (repr(sweeps.SweepConfig(M=3, phis=(0.0,)))
            == "SweepConfig(M=3, theta=0.0, phis=(0.0,), eta_start=0.02, eta_stop=0.95, "
               "grid_step=0.01)")
    assert (repr(verification.CheckResult("x", True))
            == "CheckResult(name='x', passed=True, measured=None, bound=None, detail='')")


@pytest.mark.parametrize("cls", SIGNATURES, ids=[t.__name__ for t in SIGNATURES])
def test_constructor_signatures(cls):
    params = list(inspect.signature(cls).parameters.values())
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    empty = inspect.Parameter.empty
    assert ([(p.name, None if p.default is empty else p.default) for p in params]
            == SIGNATURES[cls])


def test_parity_sequence_caches_its_f_values():
    seq = algebra.ParitySequence.of(even_nbs(P, n_max=8))
    assert seq.f_values is seq.f_values
    assert not seq.f_values.flags.writeable
    np.testing.assert_array_equal(seq.coeffs, even_nbs(P, n_max=8).amplitudes[0::2])
