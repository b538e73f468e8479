import dataclasses
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from eitfwm.params import PhysicalParams, reference_params
from eitfwm.steady_state import (GENERATOR_FIELDS, DegenerateSteadyStateError,
                                 _stationary, bloch_drift, check_states,
                                 dark_state_sigma, solve)

# Reference-point mean values, frozen after the null-space solve was
# cross-checked against long-time Bloch integration.  The ground
# coherence is real and positive in the phase convention used by the
# Hamiltonian; everything downstream (witness sign records) builds on
# that, so a change here is a deliberate convention change, not noise.
FROZEN_POP = (0.49206349914965114, 0.4920634991496509, 0.015873001700698126)
FROZEN_S12 = 0.47619005102078016
FROZEN_S13_IM = 5.9523756377593004e-05


def steady_state_ode_oracle(p, initial=None):
    """Long-time Bloch evolution, an independent check of solve.

    Propagates the 9-component mean equations exactly, with the matrix
    exponential of the drift, from ``initial`` (default: an even
    ground-state mixture) over 60 times the slowest relaxation time and
    returns the final state.
    """
    (a,) = bloch_drift([p])
    if initial is None:
        m0 = np.diag([0.5, 0.5, 0.0]).astype(complex)
    else:
        m0 = np.asarray(initial, dtype=complex).reshape(3, 3)
    slow = min(x for x in (p.gamma0, p.gamma1, p.gamma2) if x > 0)
    t_final = 60.0 / slow
    m = (scipy.linalg.expm(a * t_final) @ m0.reshape(-1)).reshape(3, 3)
    m = 0.5 * (m + m.conj().T)
    m /= np.trace(m).real
    return m


def test_reference_populations_frozen(ss_ref):
    assert ss_ref.real.diagonal() == pytest.approx(FROZEN_POP, abs=1e-12)


def test_reference_ground_coherence_frozen(ss_ref):
    s12 = complex(ss_ref[0, 1])
    assert s12.real == pytest.approx(FROZEN_S12, abs=1e-12)
    assert abs(s12.imag) < 1e-12


def test_reference_optical_coherences_frozen(ss_ref):
    s13 = complex(ss_ref[0, 2])
    s23 = complex(ss_ref[1, 2])
    assert abs(s13.real) < 1e-12 and abs(s23.real) < 1e-12
    assert s13.imag == pytest.approx(FROZEN_S13_IM, abs=1e-12)
    # opposite-sign pair: the drives push the two optical coherences
    # symmetrically in this configuration
    assert s23.imag == pytest.approx(-FROZEN_S13_IM, abs=1e-12)


def test_state_is_physical(ss_ref):
    check_states(ss_ref[None])
    assert np.trace(ss_ref).real == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(ss_ref - ss_ref.conj().T)) < 1e-12
    assert all(0.0 <= x <= 1.0 for x in ss_ref.real.diagonal())


def test_agrees_with_long_time_integration(ref, ss_ref):
    oracle = steady_state_ode_oracle(ref)
    assert np.max(np.abs(oracle - ss_ref)) < 1e-8
    # exact propagation leaves only rounding: 7.9e-15 measured
    assert np.max(np.abs(oracle - ss_ref)) < 1e-12


def test_oracle_agreement_from_biased_start(ref, ss_ref):
    start = np.diag([1.0, 0.0, 0.0]).astype(complex)
    oracle = steady_state_ode_oracle(ref, initial=start)
    assert np.max(np.abs(oracle - ss_ref)) < 1e-8
    assert np.max(np.abs(oracle - ss_ref)) < 1e-12


#: drives of the dark-state tests: symmetric, pump off, unequal
DARK_DRIVES = ({}, {"omega_p": 0.0}, {"omega_p": 200.0})


def test_dark_state_limit():
    # without ground dephasing the drives trap the ground superposition
    # omega_p|1> + omega_c|2> exactly, whatever their ratio
    points = [reference_params().with_(gamma0=0.0, **d) for d in DARK_DRIVES]
    states, _ = solve(points)
    for p, ss in zip(points, states):
        assert np.max(np.abs(ss - dark_state_sigma(p))) < 1e-12


def test_dark_state_sigma_is_pure():
    for d in DARK_DRIVES:
        m = dark_state_sigma(reference_params().with_(**d))
        assert np.trace(m) == pytest.approx(1.0)
        assert np.max(np.abs(m @ m - m)) < 1e-14
    # symmetric drives give (|1> + |2>)/sqrt(2) bit for bit, and the pump
    # alone off gives |2>
    assert dark_state_sigma(reference_params()).tolist() == [
        [0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 0.0]]
    assert dark_state_sigma(reference_params().with_(omega_p=0.0)).tolist() \
        == [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]


def test_states_of_k_points_are_one_complex_stack(ref):
    points = [ref, ref.with_(gamma0=0.5), ref.with_(omega_p=40.0)]
    states, _ = solve(points)
    assert isinstance(states, np.ndarray)
    assert states.dtype == complex and states.shape == (3, 3, 3)
    # each point is its own stack of one, bit for bit
    for p, m in zip(points, states):
        (alone,), _ = solve([p])
        assert m.tobytes() == alone.tobytes()
    assert solve([ref])[0].shape == (1, 3, 3)


@pytest.mark.parametrize("pattern,index", [("ABAC", 1), ("AAB", 2)])
def test_solve_names_the_first_failing_point_in_the_callers_order(
        ref, pattern, index):
    # B has no unique state and C no finite drift; the error names the
    # first of them by its position in the caller's list
    points = {"A": ref, "B": ref.with_(omega_p=0.0, omega_c=0.0),
              "C": ref.with_(gamma1=1.7e308, gamma2=1.7e308)}
    with pytest.raises(DegenerateSteadyStateError,
                       match="^stationary subspace has dimension") as info:
        solve([points[name] for name in pattern])
    assert info.value.index == index


def test_solve_gives_every_point_its_one_point_solve(ref):
    # a repeated generator point, fields outside the generator, and the
    # two signed zeros of gamma0
    points = [ref.with_(gamma0=0.1), ref.with_(gamma0=0.2, alpha1=3.0),
              ref.with_(gamma0=0.1, coupling_scale=2.0),
              ref.with_(gamma0=0.0), ref.with_(gamma0=-0.0)]
    states, tables = solve(points)
    assert states.shape == (5, 3, 3) and tables.shape == (5, 6, 6)
    assert states.tobytes() == _stationary(bloch_drift(points)).tobytes()
    for p, ss, two_d in zip(points, states, tables):
        (alone_ss,), (alone_two_d,) = solve([p])
        assert ss.tobytes() == alone_ss.tobytes()
        assert two_d.tobytes() == alone_two_d.tobytes()


def test_undriven_system_is_degenerate():
    p = reference_params().with_(omega_p=0.0, omega_c=0.0)
    with pytest.raises(DegenerateSteadyStateError):
        solve([p])


def test_single_drive_empties_the_driven_ground_level():
    # with only the 1-3 drive on, everything ends in level 2 and the
    # ground coherence dies
    p = reference_params().with_(omega_p=0.0)
    (ss,), _ = solve([p])
    assert ss.real.diagonal()[1] == pytest.approx(1.0, abs=1e-9)
    assert abs(ss[0, 1]) < 1e-9


@settings(deadline=None, max_examples=25)
@given(gamma0=st.floats(0.0, 10.0),
       drive=st.floats(50.0, 1000.0),
       delta1=st.floats(-3000.0, 3000.0))
def test_solution_stays_physical(gamma0, drive, delta1):
    p = reference_params().with_(gamma0=gamma0, omega_p=drive, delta1=delta1)
    (m,), _ = solve([p])
    assert np.trace(m).real == pytest.approx(1.0, abs=1e-9)
    assert np.max(np.abs(m - m.conj().T)) < 1e-9
    evals = np.linalg.eigvalsh(m)
    assert evals.min() > -1e-9


@pytest.mark.parametrize("name", [
    f.name for f in dataclasses.fields(PhysicalParams)
    if f.name not in GENERATOR_FIELDS])
def test_fields_outside_the_generator_key_leave_the_set_up_unchanged(name):
    # the generator reads only GENERATOR_FIELDS: no other field may
    # change a drift, state or diffusion table
    p = reference_params()
    q = p.with_(**{name: 2.0 * getattr(p, name) + 1.0})
    assert bloch_drift([q]).tobytes() == bloch_drift([p]).tobytes()
    (ss_p, two_d_p), (ss_q, two_d_q) = solve([p]), solve([q])
    assert ss_q.tobytes() == ss_p.tobytes()
    assert two_d_q.tobytes() == two_d_p.tobytes()


def reference_check(m, tol):
    """The one-point state check, as it ran point by point."""
    if abs(np.trace(m) - 1.0) > tol:
        raise ValueError(f"trace {np.trace(m)} != 1")
    if np.max(np.abs(m - m.conj().T)) > tol:
        raise ValueError("not Hermitian")
    ev = np.linalg.eigvalsh(m.T)
    if ev.min() < -1e5 * tol:
        raise ValueError(f"negative eigenvalue {ev.min()}")


_GOOD = np.diag([0.5, 0.3, 0.2]).astype(complex)
_TRACE = _GOOD + np.diag([1e-6, 0.0, 0.0])
_SKEW = _GOOD + 1e-6 * np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
_NEGATIVE = np.diag([0.7, 0.5, -0.2]).astype(complex)


@pytest.mark.parametrize("stack", [
    [_GOOD, _GOOD],
    [_GOOD, _TRACE, _SKEW],
    [_GOOD, _GOOD, _SKEW, _TRACE],
    [_NEGATIVE, _TRACE],
    [_GOOD, _NEGATIVE + _SKEW - _GOOD, _TRACE],
    [_TRACE + _SKEW - _GOOD],
], ids=["physical", "trace", "hermiticity", "eigenvalue_first",
        "hermiticity_before_eigenvalue", "trace_before_hermiticity"])
def test_stacked_state_check_is_the_point_by_point_loop(stack):
    stack = np.array(stack)
    failure = None
    for i, m in enumerate(stack):
        try:
            reference_check(m, 1e-8)
        except ValueError as exc:
            failure = i, str(exc)
            break
    try:
        check_states(stack, tol=1e-8)
    except ValueError as exc:
        assert (exc.index, str(exc)) == failure
    else:
        assert failure is None
    # the one-point check is the stacked check of a stack of one
    for m in stack:
        try:
            reference_check(m, 1e-9)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                check_states(m[None])
        else:
            check_states(m[None])
