"""Drift assembly and the stacked moment integrals."""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from eitfwm import langevin as lv
from eitfwm import propagation as pr
from eitfwm import verification
from eitfwm.steady_state import steady_state


def test_single_pair_modes(ref):
    modes = pr.single_pair_modes(ref)
    assert [m.name for m in modes] == ["a1", "b1"]
    assert [m.transition for m in modes] == ["13", "23"]
    assert all(m.detuning == ref.delta1 for m in modes)
    assert all(m.pair == 1 for m in modes)


def test_two_pair_modes(ref):
    modes = pr.two_pair_modes(ref)
    assert [m.name for m in modes] == ["a1", "b1", "b2", "a2"]
    assert [m.transition for m in modes] == ["13", "23", "13", "23"]
    assert [m.detuning for m in modes] == [ref.delta1, ref.delta1,
                                           ref.delta2, ref.delta2]
    assert [m.pair for m in modes] == [1, 1, 2, 2]


def test_drift_matrix_rejects_unknown_switches(ref, ss_ref):
    with pytest.raises(ValueError, match="coupling"):
        pr.drift_matrix(0.0, ref, ss_ref, coupling="resonant")
    with pytest.raises(ValueError, match="sideband"):
        pr.drift_matrix(0.0, ref, ss_ref, sideband="upper")


def test_drift_matrix_shapes(ref, ss_ref):
    dm = pr.drift_matrix(-300.0, ref, ss_ref)
    assert dm.m.shape == (4, 4)
    assert dm.q.shape == (4, 4)
    assert dm.channels == lv.field_noise_channels()
    dm2 = pr.drift_matrix(-300.0, ref, ss_ref, modes=pr.two_pair_modes(ref))
    assert dm2.m.shape == (8, 8)
    assert dm2.q.shape == (8, 4)


def test_mirrored_dagger_block_is_conjugate_at_reflected_frequency(ref,
                                                                   ss_ref):
    om = -450.0
    dm = pr.drift_matrix(om, ref, ss_ref, sideband="mirrored")
    dref = pr.drift_matrix(-om, ref, ss_ref, sideband="mirrored")
    n = 2
    assert np.allclose(dm.m[n:, n:], np.conj(dref.m[:n, :n]), atol=1e-14)
    assert np.allclose(dm.m[n:, :n], np.conj(dref.m[:n, n:]), atol=1e-14)


def test_same_sideband_conjugates_in_place(ref, ss_ref):
    om = -450.0
    dm = pr.drift_matrix(om, ref, ss_ref, sideband="same")
    n = 2
    assert np.allclose(dm.m[n:, n:], np.conj(dm.m[:n, :n]), atol=1e-14)
    assert np.allclose(dm.m[n:, :n], np.conj(dm.m[:n, n:]), atol=1e-14)


def test_vacuum_covariance():
    assert np.array_equal(pr.vacuum_covariance(3),
                          0.5 * np.eye(6, dtype=complex))


def test_transfer_matches_expm(ref, ss_ref):
    dm = pr.drift_matrix(-300.0, ref, ss_ref)
    t, _ = pr.second_moment_transfer(dm.m, np.zeros_like(dm.m), ref.length)
    te = sla.expm(dm.m * ref.length)
    dev = np.linalg.norm(t - te) / np.linalg.norm(te)
    assert dev < 1e-8


def test_second_moment_transfer_diagonal_closed_form():
    k, g0, length = 7.0, 2.5, 0.3
    m = -k * np.eye(3, dtype=complex)
    g = g0 * np.eye(3, dtype=complex)
    t, c = pr.second_moment_transfer(m, g, length)
    assert np.max(np.abs(t - np.exp(-k * length) * np.eye(3))) < 1e-12
    expected = g0 * (1.0 - np.exp(-2.0 * k * length)) / (2.0 * k)
    assert np.max(np.abs(c - expected * np.eye(3))) < 1e-12


@pytest.mark.parametrize("omega", [-300.0, 0.0, 400.0])
def test_second_moment_transfer_matches_rk4(ref, ss_ref, two_d_ref, omega):
    dm = pr.drift_matrix(omega, ref, ss_ref)
    g = dm.q @ lv.sym_noise_matrix(two_d_ref, dm.channels) @ dm.q.conj().T
    t_fast, c_fast = pr.second_moment_transfer(dm.m, g, ref.length)
    t_ref, c_ref = pr.transfer_step_oracle(dm.m, g, ref.length, 20000)
    assert np.linalg.norm(t_fast - t_ref) / max(
        1.0, np.linalg.norm(t_ref)) < 1e-7
    assert np.linalg.norm(c_fast - c_ref) / max(
        1.0, np.linalg.norm(c_ref)) < 1e-7


@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.floats(min_value=0.05, max_value=0.5))
def test_second_moment_transfer_random_stable_systems(seed, length):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = a - (np.linalg.norm(a, 2) + 0.5) * np.eye(4)
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    g = b @ b.conj().T
    t_fast, c_fast = pr.second_moment_transfer(m, g, length)
    t_ref, c_ref = pr.transfer_step_oracle(m, g, length, 2000)
    assert np.linalg.norm(t_fast - t_ref) / max(
        1.0, np.linalg.norm(t_ref)) < 1e-6
    assert np.linalg.norm(c_fast - c_ref) / max(
        1.0, np.linalg.norm(c_ref)) < 1e-6


def reference_transfer_step_oracle(m, g, length, n_steps):
    """The RK4 oracle as two separate stage loops for T and C, kept as
    the byte reference of the joint [T | C] form."""
    c = np.zeros(np.shape(m), dtype=complex)
    t = c + np.eye(c.shape[-1])
    h = length / n_steps
    md = pr.dagger(m)
    for _ in range(n_steps):
        k1t = m @ t
        k1c = m @ c + c @ md + g
        t2 = t + 0.5 * h * k1t
        c2 = c + 0.5 * h * k1c
        k2t = m @ t2
        k2c = m @ c2 + c2 @ md + g
        t3 = t + 0.5 * h * k2t
        c3 = c + 0.5 * h * k2c
        k3t = m @ t3
        k3c = m @ c3 + c3 @ md + g
        t4 = t + h * k3t
        c4 = c + h * k3c
        k4t = m @ t4
        k4c = m @ c4 + c4 @ md + g
        t = t + (h / 6.0) * (k1t + 2 * k2t + 2 * k3t + k4t)
        c = c + (h / 6.0) * (k1c + 2 * k2c + 2 * k3c + k4c)
    return t, pr.hermitian_part(c)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_rk4_oracle_is_byte_identical_to_the_separate_loops(ref, ss_ref,
                                                            two_d_ref):
    # the oracle stack of verify at 2000 steps, where the 1000 MHz point
    # overflows to inf and nan
    m, g = verification._drift_stack(
        verification._rows(ref, ss_ref), verification.ORACLE_POINTS,
        two_d_ref, lv.sym_noise_matrix)
    t, c = pr.transfer_step_oracle(m, g, ref.length, 2000)
    t_ref, c_ref = reference_transfer_step_oracle(m, g, ref.length, 2000)
    assert not np.all(np.isfinite(t_ref))
    assert t.tobytes() == t_ref.tobytes()
    assert c.tobytes() == c_ref.tobytes()
    # one matrix, without a stack axis
    t, c = pr.transfer_step_oracle(m[0], g[0], ref.length, 100)
    t_ref, c_ref = reference_transfer_step_oracle(m[0], g[0], ref.length, 100)
    assert t.tobytes() == t_ref.tobytes()
    assert c.tobytes() == c_ref.tobytes()


def _field_moments(p, ss, two_d, omegas, pairing=lv.sym_noise_matrix,
                   **switches):
    """(t, c) of the stacked transfer over ``omegas``, noise taken from
    ``two_d`` by ``pairing``."""
    drifts = [pr.drift_matrix(om, p, ss, **switches) for om in omegas]
    m = np.stack([dm.m for dm in drifts])
    g = np.stack([pr.noise_drive(dm.q, pairing(two_d, dm.channels))
                  for dm in drifts])
    return pr.second_moment_transfer_stack(m, g, p.length)


def _field_covariance(t, c):
    return pr.hermitian_part(pr.output_covariance(
        t, c, pr.vacuum_covariance(t.shape[-1] // 2)))


def test_free_propagation_preserves_commutators(ref):
    p0 = ref.with_(coupling_scale=0.0)
    ss0 = steady_state(p0)
    two_d0 = lv.diffusion_matrix(p0, ss0)
    omegas = (-2000.0, -1000.0, 0.0, 400.0, 900.0)
    j = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
    t, c_comm = _field_moments(p0, ss0, two_d0, omegas,
                               pairing=lv.comm_noise_matrix)
    assert np.max(np.abs(pr.output_covariance(t, c_comm, j) - j)) < 1e-13
    # and the output state stays exactly vacuum
    cov = _field_covariance(*_field_moments(p0, ss0, two_d0, omegas))
    assert np.max(np.abs(cov - 0.5 * np.eye(4))) < 1e-13


def test_output_covariance_hermitian(ref, ss_ref, two_d_ref):
    cov = _field_covariance(*_field_moments(ref, ss_ref, two_d_ref,
                                            [-700.0]))[0]
    assert np.max(np.abs(cov - cov.conj().T)) == 0.0


def test_gain_ceiling_raises(ref, ss_ref, two_d_ref):
    with pytest.raises(pr.NumericalOverflowError, match="ceiling"):
        _field_moments(ref, ss_ref, two_d_ref, [-2000.0],
                       sideband="same", coupling="parametric")


def test_same_sideband_stable_on_resonance(ref, ss_ref, two_d_ref):
    # the runaway gain of the same-frequency bookkeeping is an
    # off-resonance effect; at the pump detuning it stays finite
    t, _ = _field_moments(ref, ss_ref, two_d_ref, [ref.delta1],
                          sideband="same", coupling="parametric")
    assert np.all(np.isfinite(t))


#: doubles of every kind: finite ones over the whole range, subnormals,
#: signed zeros, infinities and nan
_DOUBLE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-2.3e-308, 2.3e-308),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, float("inf"),
                     float("-inf"), float("nan")]))


def _bits(z: np.ndarray) -> bytes:
    """Bytes of a complex array with every nan part made the same nan.

    Which operand's nan a sum of two nans returns depends on the
    operand order the compiler chose, so the sign of a nan is not part
    of the arithmetic; it never reaches an output, which prints "nan".
    """
    parts = np.stack([z.real, z.imag])
    parts[np.isnan(parts)] = np.nan
    return parts.tobytes()


@settings(deadline=None, max_examples=300)
@given(st.lists(st.tuples(_DOUBLE, _DOUBLE, _DOUBLE, _DOUBLE),
                min_size=1, max_size=8))
def test_array_quotient_is_cpython_complex_division(operands):
    # every divisor also with its parts swapped, so that both of Smith's
    # branches, |b.real| >= |b.imag| and <, are taken; a zero divisor is
    # the assembly's error path, not the quotient's
    pairs = [(complex(ar, ai), complex(br, bi))
             for ar, ai, br, bi in operands
             for br, bi in ((br, bi), (bi, br)) if br or bi]
    if not pairs:
        return
    a = np.array([x for x, _ in pairs])
    b = np.array([y for _, y in pairs])
    assert _bits(pr.complex_quotient(a, b)) == \
        _bits(np.array([x / y for x, y in pairs]))
