"""Truncated-vector primitives and the brute-force moment oracle."""
import numpy as np
import pytest

from nbstates.errors import DimensionMismatchError, DomainError
from nbstates.fock_core import (
    FockVector,
    TruncationPolicy,
    apply_annihilate,
    apply_create,
    apply_number,
    inner,
    number_state,
    oracle_stats,
)


def test_fock_vector_is_copied_and_read_only():
    src = np.array([1.0, 2.0, 3.0], dtype=np.complex128)
    v = FockVector(src)
    src[0] = 99.0
    assert v.amplitudes[0] == 1.0
    with pytest.raises(ValueError):
        v.amplitudes[1] = 0.0


def test_fock_vector_rejects_bad_shapes():
    with pytest.raises(DomainError):
        FockVector(np.zeros((2, 2)))
    with pytest.raises(DomainError):
        FockVector(np.array([]))


def test_n_max_and_len():
    v = FockVector(np.ones(7))
    assert v.n_max == 6
    assert len(v) == 7


def test_truncation_policy_validation():
    TruncationPolicy(tail_tolerance=1e-10, hard_cap=100)
    with pytest.raises(DomainError):
        TruncationPolicy(tail_tolerance=0.0)
    with pytest.raises(DomainError):
        TruncationPolicy(tail_tolerance=1.5)
    with pytest.raises(DomainError):
        TruncationPolicy(hard_cap=1)


def test_inner_conjugates_first_argument():
    u = FockVector([1j, 0.0])
    v = FockVector([1.0, 0.0])
    assert inner(u, v) == pytest.approx(-1j)
    with pytest.raises(DimensionMismatchError):
        inner(u, FockVector([1.0, 0.0, 0.0]))


def test_ladder_actions_on_number_states():
    v = apply_annihilate(number_state(3, 6))
    assert v.amplitudes[2] == pytest.approx(np.sqrt(3.0))
    assert np.count_nonzero(v.amplitudes) == 1

    w = apply_create(number_state(3, 6))
    assert w.amplitudes[4] == pytest.approx(2.0)
    assert np.count_nonzero(w.amplitudes) == 1

    # raising the top state pushes all amplitude past the truncation edge
    top = apply_create(number_state(6, 6))
    assert np.all(top.amplitudes == 0.0)


def test_number_operator_matches_ladder_composition():
    rng = np.random.default_rng(7)
    for _ in range(20):
        c = rng.standard_normal(25) + 1j * rng.standard_normal(25)
        v = FockVector(c / np.linalg.norm(c))
        composed = apply_create(apply_annihilate(v)).amplitudes
        direct = apply_number(v).amplitudes
        np.testing.assert_allclose(composed, direct, rtol=0, atol=1e-14)


def test_adjointness_of_truncated_ladders():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        b = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        u, v = FockVector(a), FockVector(b)
        assert inner(u, apply_annihilate(v)) == pytest.approx(inner(apply_create(u), v))


def test_number_state_stats_are_exact():
    st = oracle_stats(number_state(5, 20))
    assert st.mean == 5.0
    assert st.variance == 0.0
    assert st.mandel_q == -1.0


def test_vacuum_mandel_q_is_none_not_nan():
    st = oracle_stats(number_state(0, 4))
    assert st.mean == 0.0
    assert st.mandel_q is None


def test_oracle_stats_normalizes_internally():
    st = oracle_stats(FockVector([0.0, 2.0]))
    assert st.mean == 1.0


def test_oracle_stats_rejects_zero_vector():
    with pytest.raises(DomainError):
        oracle_stats(FockVector(np.zeros(3)))


def test_number_state_bounds():
    with pytest.raises(DomainError):
        number_state(7, 6)
    with pytest.raises(DomainError):
        number_state(-1, 6)
