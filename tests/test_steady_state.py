import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from eitfwm.params import reference_params
from eitfwm.steady_state import (DegenerateSteadyStateError, DensityMatrix3,
                                 bloch_drift, dark_state_sigma, steady_state)

# Reference-point mean values, frozen after the null-space solve was
# cross-checked against long-time Bloch integration.  The ground
# coherence is real and positive in the phase convention used by the
# Hamiltonian; everything downstream (witness sign records) builds on
# that, so a change here is a deliberate convention change, not noise.
FROZEN_POP = (0.49206349914965114, 0.4920634991496509, 0.015873001700698126)
FROZEN_S12 = 0.47619005102078016
FROZEN_S13_IM = 5.9523756377593004e-05


def steady_state_ode_oracle(p, initial=None):
    """Long-time Bloch evolution, an independent check of steady_state.

    Propagates the 9-component mean equations exactly, with the matrix
    exponential of the drift, from ``initial`` (default: an even
    ground-state mixture) over 60 times the slowest relaxation time and
    returns the final state.
    """
    a = bloch_drift(p)
    if initial is None:
        m0 = np.diag([0.5, 0.5, 0.0]).astype(complex)
    else:
        m0 = np.asarray(initial, dtype=complex).reshape(3, 3)
    slow = min(x for x in (p.gamma0, p.gamma1, p.gamma2) if x > 0)
    t_final = 60.0 / slow
    m = (scipy.linalg.expm(a * t_final) @ m0.reshape(-1)).reshape(3, 3)
    m = 0.5 * (m + m.conj().T)
    m /= np.trace(m).real
    return DensityMatrix3(matrix=m)


def test_reference_populations_frozen(ss_ref):
    assert ss_ref.populations == pytest.approx(FROZEN_POP, abs=1e-12)


def test_reference_ground_coherence_frozen(ss_ref):
    s12 = ss_ref.sigma(1, 2)
    assert s12.real == pytest.approx(FROZEN_S12, abs=1e-12)
    assert abs(s12.imag) < 1e-12


def test_reference_optical_coherences_frozen(ss_ref):
    s13 = ss_ref.sigma(1, 3)
    s23 = ss_ref.sigma(2, 3)
    assert abs(s13.real) < 1e-12 and abs(s23.real) < 1e-12
    assert s13.imag == pytest.approx(FROZEN_S13_IM, abs=1e-12)
    # opposite-sign pair: the drives push the two optical coherences
    # symmetrically in this configuration
    assert s23.imag == pytest.approx(-FROZEN_S13_IM, abs=1e-12)


def test_state_is_physical(ss_ref):
    ss_ref.check()
    m = ss_ref.matrix
    assert np.trace(m).real == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(m - m.conj().T)) < 1e-12
    assert all(0.0 <= x <= 1.0 for x in ss_ref.populations)


def test_agrees_with_long_time_integration(ref, ss_ref):
    oracle = steady_state_ode_oracle(ref)
    assert np.max(np.abs(oracle.matrix - ss_ref.matrix)) < 1e-8
    # exact propagation leaves only rounding: 7.9e-15 measured
    assert np.max(np.abs(oracle.matrix - ss_ref.matrix)) < 1e-12


def test_oracle_agreement_from_biased_start(ref, ss_ref):
    start = np.diag([1.0, 0.0, 0.0]).astype(complex)
    oracle = steady_state_ode_oracle(ref, initial=start)
    assert np.max(np.abs(oracle.matrix - ss_ref.matrix)) < 1e-8
    assert np.max(np.abs(oracle.matrix - ss_ref.matrix)) < 1e-12


def test_dark_state_limit():
    # no ground dephasing and symmetric drives trap the symmetric
    # ground superposition exactly
    p = reference_params().with_(gamma0=0.0)
    ss = steady_state(p)
    assert np.max(np.abs(ss.matrix - dark_state_sigma())) < 1e-12


def test_dark_state_sigma_is_pure():
    m = dark_state_sigma()
    assert np.trace(m) == pytest.approx(1.0)
    assert np.max(np.abs(m @ m - m)) < 1e-14


def test_undriven_system_is_degenerate():
    p = reference_params().with_(omega_p=0.0, omega_c=0.0)
    with pytest.raises(DegenerateSteadyStateError):
        steady_state(p)


def test_single_drive_empties_the_driven_ground_level():
    # with only the 1-3 drive on, everything ends in level 2 and the
    # ground coherence dies
    p = reference_params().with_(omega_p=0.0)
    ss = steady_state(p)
    assert ss.populations[1] == pytest.approx(1.0, abs=1e-9)
    assert abs(ss.sigma(1, 2)) < 1e-9


@settings(deadline=None, max_examples=25)
@given(gamma0=st.floats(0.0, 10.0),
       drive=st.floats(50.0, 1000.0),
       delta1=st.floats(-3000.0, 3000.0))
def test_solution_stays_physical(gamma0, drive, delta1):
    p = reference_params().with_(gamma0=gamma0, omega_p=drive, delta1=delta1)
    ss = steady_state(p)
    m = ss.matrix
    assert np.trace(m).real == pytest.approx(1.0, abs=1e-9)
    assert np.max(np.abs(m - m.conj().T)) < 1e-9
    evals = np.linalg.eigvalsh(m)
    assert evals.min() > -1e-9
