"""Drift assembly and the stacked moment integrals."""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from eitfwm import entanglement as en
from eitfwm import langevin as lv
from eitfwm import propagation as pr
from eitfwm import sweeps
from eitfwm import verification
from eitfwm.params import derive
from eitfwm.steady_state import solve


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


def _drift(p, ss, omegas, modes=None, **switches):
    """(m, q, channels): the drift and noise-row stacks of ``modes`` (the
    single pair by default) at ``omegas``, from one drift set-up."""
    rows = pr.drift_rows(ss[None], modes or pr.single_pair_modes(p),
                         [derive(p)])
    m, q = pr.drift_block(rows, omegas, **switches)
    return m, q, rows.channels


def test_drift_matrix_rejects_unknown_switches(ref, ss_ref):
    with pytest.raises(ValueError, match="coupling"):
        _drift(ref, ss_ref, [0.0], coupling="resonant")
    with pytest.raises(ValueError, match="sideband"):
        _drift(ref, ss_ref, [0.0], sideband="upper")


def test_drift_matrix_shapes(ref, ss_ref):
    m, q, channels = _drift(ref, ss_ref, [-300.0])
    assert m.shape == (1, 4, 4)
    assert q.shape == (1, 4, 4)
    assert channels == lv.field_noise_channels()
    m2, q2, _ = _drift(ref, ss_ref, [-300.0], modes=pr.two_pair_modes(ref))
    assert m2.shape == (1, 8, 8)
    assert q2.shape == (1, 8, 4)


def test_mirrored_dagger_block_is_conjugate_at_reflected_frequency(ref):
    # M(-omega) = P conj(M(omega)) P^T, where P swaps the direct and
    # daggered halves of the fields (and of their z-integrals and the two
    # coherence-force integrals when z-averaged): bit for bit in the
    # field block, drift_block's output, and by value in the augmented
    # rows, whose constant zeros conjugate to -0
    omegas = np.array(verification.COMMUTATOR_GRID)
    for two_pair in (False, True):
        for spinwave in en.SPINWAVE_DEFINITIONS:
            cfg = sweeps.SweepConfig(two_pair=two_pair,
                                     spinwave_definition=spinwave)
            set_up, _ = sweeps._set_up([ref], cfg)
            m_plus, m_minus = (en.assemble(set_up, w, ref.length,
                                           cfg.coupling, "mirrored",
                                           spinwave)[0]
                               for w in (omegas, -omegas))
            n = len(set_up.modes)
            swap = np.concatenate([np.arange(n, 2 * n), np.arange(n)])
            if spinwave != "endpoint":
                swap = np.concatenate([swap, 2 * n + swap,
                                       [4 * n + 1, 4 * n]])
            mirror = np.conj(m_plus)[:, swap][:, :, swap]
            fields = np.s_[:, :2 * n, :2 * n]
            assert _bits(m_minus[fields]) == _bits(mirror[fields])
            assert np.array_equal(m_minus, mirror)


def test_same_sideband_conjugates_in_place(ref, ss_ref):
    om = -450.0
    (m,), _, _ = _drift(ref, ss_ref, [om], sideband="same")
    n = 2
    assert np.allclose(m[n:, n:], np.conj(m[:n, :n]), atol=1e-14)
    assert np.allclose(m[n:, :n], np.conj(m[:n, n:]), atol=1e-14)


def test_vacuum_covariance():
    assert np.array_equal(pr.vacuum_covariance(3),
                          0.5 * np.eye(6, dtype=complex))


def test_transfer_matches_expm(ref, ss_ref):
    m, _, _ = _drift(ref, ss_ref, [-300.0])
    (t,), _ = pr.second_moment_transfer_stack(m, np.zeros_like(m),
                                              ref.length)
    te = sla.expm(m[0] * ref.length)
    dev = np.linalg.norm(t - te) / np.linalg.norm(te)
    assert dev < 1e-8


def test_second_moment_transfer_diagonal_closed_form():
    k, g0, length = 7.0, 2.5, 0.3
    m = -k * np.eye(3, dtype=complex)
    g = g0 * np.eye(3, dtype=complex)
    (t,), (c,) = pr.second_moment_transfer_stack(m[None], g[None], length)
    assert np.max(np.abs(t - np.exp(-k * length) * np.eye(3))) < 1e-12
    expected = g0 * (1.0 - np.exp(-2.0 * k * length)) / (2.0 * k)
    assert np.max(np.abs(c - expected * np.eye(3))) < 1e-12


@pytest.mark.parametrize("omega", [-300.0, 0.0, 400.0])
def test_second_moment_transfer_matches_rk4(ref, ss_ref, two_d_ref, omega):
    (m,), (q,), channels = _drift(ref, ss_ref, [omega])
    g = q @ lv.sym_noise_matrix(two_d_ref, channels) @ q.conj().T
    (t_fast,), (c_fast,) = pr.second_moment_transfer_stack(
        m[None], g[None], ref.length)
    t_ref, c_ref = pr.transfer_step_oracle(m, g, ref.length, 20000)
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
    (t_fast,), (c_fast,) = pr.second_moment_transfer_stack(m[None], g[None],
                                                          length)
    t_ref, c_ref = pr.transfer_step_oracle(m, g, length, 2000)
    assert np.linalg.norm(t_fast - t_ref) / max(
        1.0, np.linalg.norm(t_ref)) < 1e-6
    assert np.linalg.norm(c_fast - c_ref) / max(
        1.0, np.linalg.norm(c_ref)) < 1e-6


def _taylor_start(mh):
    """The degree-4 Taylor polynomial of exp(mh), with mh^3 and mh^4 as
    two separate products: the reference of the kernel's fused start."""
    mh2 = mh @ mh
    return np.eye(mh.shape[-1], dtype=complex) + mh + mh2 / 2.0 \
        + mh2 @ mh / 6.0 + mh2 @ mh2 / 24.0


def _taylor_moment(m, g, h):
    """The start moment over the numpy float step ``h``, every power of h
    a scalar: the reference of the kernel's per-matrix start steps."""
    md = pr.dagger(m)
    mg = m @ g
    m2g = m @ mg
    c = g + (h / 2.0) * (mg + pr.dagger(mg))
    c += (h * h / 6.0) * (m2g + pr.dagger(m2g) + 2.0 * (mg @ md))
    m2g_md = m2g @ md
    m3g = m @ m2g
    m3g += pr.dagger(m3g)
    m2g_md += pr.dagger(m2g_md)
    c += (h ** 3 / 24.0) * (m3g + 3.0 * m2g_md)
    return h * c


def _stage_counts(m, length):
    """The doubling stage count of every matrix of the stack ``m``."""
    ratio = np.maximum(np.linalg.norm(m, 1, axis=(-2, -1)) * length,
                       1e-300) / pr.DOUBLING_THETA
    return np.maximum(0, np.ceil(np.log2(ratio))).astype(int)


def _three_product_transfer(m, g, length):
    """(T, C) of every matrix of the stacks doubled alone, from an
    unfused Taylor start step over its own step h = length / 2^k, by
    the stage c <- t c t^+ + c, t <- t t: the reference of the kernel's
    fused start and stage and of its sub-stacks of mixed stage counts."""
    t, c = np.empty_like(m), np.empty_like(m)
    for i, k in enumerate(_stage_counts(m, length)):
        h = np.ldexp(np.float64(length), -k)
        ti = _taylor_start(m[i:i + 1] * h)
        ci = _taylor_moment(m[i:i + 1], g[i:i + 1], h)
        for _ in range(k):
            ci = ti @ ci @ pr.dagger(ti) + ci
            ti = ti @ ti
        t[i], c[i] = ti[0], pr.hermitian_part(ci)[0]
    return t, c


@pytest.mark.parametrize("dim", [4, 8, 10, 18])
def test_start_transfer_keeps_the_bits_of_separate_products(dim):
    # at a step norm far above the kernel's 2^-10, where a product of
    # other bits reaches T: the fused product mh2 [mh | mh2] keeps them
    # at dim 4 and 8, and would not at 10 and 18
    rng = np.random.default_rng(dim)
    shape = (16, dim, dim)
    mh = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * (0.5 / dim)
    assert _bits(pr._start_transfer(mh)) == _bits(_taylor_start(mh))


def test_overflow_names_the_frequency_of_its_point():
    exc = pr.NumericalOverflowError("transfer matrix overflowed", index=1)
    named = exc.at_frequency(np.array([0.0, -2000.0]))
    assert type(named) is pr.NumericalOverflowError
    assert str(named) == "transfer matrix overflowed at omega = -2000 MHz"
    assert named.index == 1


def _assert_three_product_bits(m, g, length):
    t, c = pr.second_moment_transfer_stack(m, g, length)
    t_ref, c_ref = _three_product_transfer(m, g, length)
    assert _bits(t) == _bits(t_ref)
    assert _bits(c) == _bits(c_ref)


@pytest.mark.parametrize("two_pair, spinwave, dim", [
    (False, "endpoint", 4), (True, "endpoint", 8),
    (False, "z-averaged", 10), (True, "z-averaged", 18)])
def test_transfer_keeps_the_bits_of_the_three_product_stage(
        ref, two_pair, spinwave, dim):
    # every stack dimension the sweeps build: the fused stage at 4 and
    # 8, the three-product stage at 10 and 18
    cfg = sweeps.SweepConfig(two_pair=two_pair,
                             spinwave_definition=spinwave)
    set_up, _ = sweeps._set_up([ref], cfg)
    m, q, channels, _, _ = en.assemble(
        set_up, verification.COMMUTATOR_GRID, ref.length, cfg.coupling,
        cfg.sideband, spinwave)
    assert m.shape == (len(verification.COMMUTATOR_GRID), dim, dim)
    g = pr.noise_drive(q, lv.sym_noise_matrix(set_up.two_d, channels))
    _assert_three_product_bits(m, g, ref.length)


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.sampled_from([4, 8]),
       st.floats(min_value=0.05, max_value=5.0))
def test_transfer_keeps_the_three_product_bits_on_stable_systems(
        seed, dim, length):
    # three matrices of different norms, so several stage counts
    rng = np.random.default_rng(seed)
    shape = (3, dim, dim)
    a = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) \
        * np.array([0.1, 1.0, 10.0])[:, None, None]
    m = a - (np.linalg.norm(a, 2, axis=(-2, -1))[:, None, None] + 0.5) \
        * np.eye(dim)
    b = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    _assert_three_product_bits(m, b @ pr.dagger(b), length)


def _mixed_stack(seed, dim, length):
    """(m, g): a stack of 5 stable matrices of size ``dim`` in descending
    order of norm, the second one twice and the last one of stage count
    0, with random Hermitian noise drives."""
    rng = np.random.default_rng(seed)
    shape = (3, dim, dim)
    a = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) \
        * np.array([100.0, 10.0, 1.0])[:, None, None]
    m = a - (np.linalg.norm(a, 2, axis=(-2, -1))[:, None, None] + 0.5) \
        * np.eye(dim)
    # ||m||_1 * length = 2^-12, below DOUBLING_THETA
    tiny = m[2] * (2.0 ** -12 / (np.linalg.norm(m[2], 1) * length))
    m = np.stack([m[0], m[1], m[1], m[2], tiny])
    b = rng.normal(size=m.shape) + 1j * rng.normal(size=m.shape)
    return m, b @ pr.dagger(b)


def _chain_stack(dim, length):
    """(m, g): a stack of 5 drifts s (S - I) in the order of _mixed_stack,
    S the shift e_j -> e_(j+1), all driven by g = e_1 e_1^+.  Entry
    (4, 1) of each start moment is then h (h^3 / 24) alone, so its
    bits follow the cube of the start step."""
    shift = np.eye(dim, k=-1) - np.eye(dim)
    scales = np.array([100.0, 10.0, 10.0, 1.0,
                       2.0 ** -13 / length])[:, None, None]
    g = np.zeros((5, dim, dim), dtype=complex)
    g[:, 0, 0] = 1.0
    return scales * shift + 0j, g


def _assert_mixed_stack_bits(m, g, length):
    """The stack, in its order and reversed, whole and in sub-stacks of
    2 matrices, keeps the bits of every matrix doubled alone."""
    dim = m.shape[-1]
    counts = sorted(_stage_counts(m, length).tolist(), reverse=True)
    # at least 3 counts, one of them 0; in sub-stacks of 2 the count of
    # the repeated matrix straddles the first boundary
    assert len(set(counts)) >= 3 and counts[-1] == 0
    assert counts[1] == counts[2]
    for stack in (2, None):
        with pytest.MonkeyPatch.context() as patch:
            if stack:
                patch.setattr(pr, "BLOCK_ENTRIES", stack * dim * dim)
            _assert_three_product_bits(m, g, length)
            _assert_three_product_bits(m[::-1], g[::-1], length)


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.sampled_from([4, 8, 10, 18]),
       st.floats(min_value=0.05, max_value=5.0))
def test_mixed_sub_stacks_keep_the_bits_of_each_matrix_alone(
        seed, dim, length):
    _assert_mixed_stack_bits(*_mixed_stack(seed, dim, length), length)


@pytest.mark.parametrize("dim", [4, 8, 10, 18])
def test_mixed_sub_stacks_take_the_scalar_cube_of_each_step(dim):
    # at this length numpy's array power rounds h^3 apart from the
    # scalar power, at every stage count
    length = 1.4424519675836176
    h = np.ldexp(np.float64(length), -np.arange(30))
    assert np.all(h ** 3 != [np.float64(x) ** 3 for x in h])
    _assert_mixed_stack_bits(*_chain_stack(dim, length), length)


def reference_transfer_step_oracle(m, g, length, n_steps):
    """The RK4 oracle as two separate stage loops for T and C, kept as
    the reference of the marched step maps."""
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


def _relative_error(x, x_ref):
    """max |x - x_ref| / max |x_ref|, matrix by matrix."""
    return (np.max(np.abs(x - x_ref), axis=(-2, -1))
            / np.max(np.abs(x_ref), axis=(-2, -1)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_rk4_oracle_march_matches_the_separate_loops(ref, ss_ref, two_d_ref):
    # the oracle stack of verify, where the 1000 MHz point overflows to
    # nan, and one matrix without a stack axis; 2000 steps are whole
    # blocks of MARCH_BLOCK steps, 2003 blocks plus single steps, 100
    # both, and 7 single steps alone
    m, g = verification._drift_stack(
        verification._rows(ref, ss_ref[None]), verification.ORACLE_POINTS,
        two_d_ref, lv.sym_noise_matrix)
    for n_stack, n_one in ((2000, 100), (2003, 7)):
        t, c = pr.transfer_step_oracle(m, g, ref.length, n_stack)
        t_ref, c_ref = reference_transfer_step_oracle(m, g, ref.length,
                                                      n_stack)
        finite = np.all(np.isfinite(t_ref) & np.isfinite(c_ref),
                        axis=(-2, -1))
        assert (np.array(verification.ORACLE_POINTS)[~finite].tolist()
                == [1000.0])
        assert np.all(np.isnan(t[~finite])) and np.all(np.isnan(c[~finite]))
        assert np.all(np.isfinite(t[finite])) and np.all(
            np.isfinite(c[finite]))
        assert np.max(_relative_error(t[finite], t_ref[finite])) < 1e-10
        assert np.max(_relative_error(c[finite], c_ref[finite])) < 1e-10
        t, c = pr.transfer_step_oracle(m[0], g[0], ref.length, n_one)
        t_ref, c_ref = reference_transfer_step_oracle(m[0], g[0], ref.length,
                                                      n_one)
        assert t.shape == c.shape == m[0].shape
        assert _relative_error(t, t_ref) < 1e-10
        assert _relative_error(c, c_ref) < 1e-10
    assert [divmod(n, pr.MARCH_BLOCK) for n in (2000, 2003, 100, 7)] == [
        (125, 0), (125, 3), (6, 4), (0, 7)]


def _rk4_march_clongdouble(m, g, length, n_steps):
    """The oracle's RK4 step maps, built and marched one step at a time
    in extended precision: an independent reference of its rounding."""
    m = np.asarray(m, dtype=np.clongdouble)
    d = m.shape[-1]
    n = d * d
    eye = np.eye(d, dtype=np.clongdouble)
    b = np.zeros(m.shape[:-2] + (n + 1, n + 1), dtype=np.clongdouble)
    b[..., :n, :n] = (np.einsum("...ik,jl->...ijkl", m, eye)
                      + np.einsum("ik,...jl->...ijkl", eye, m.conj())
                      ).reshape(m.shape[:-2] + (n, n))
    b[..., :n, n] = np.reshape(np.asarray(g, dtype=np.clongdouble),
                               np.shape(g)[:-2] + (n,))
    h = np.longdouble(length) / n_steps
    step_t, step_c = pr._rk4_step_map(m * h), pr._rk4_step_map(b * h)
    assert step_t.dtype == step_c.dtype == np.clongdouble
    t, y = step_t, step_c[..., n:]
    for _ in range(n_steps - 1):
        t = step_t @ t
        y = step_c @ y
    return t, pr.hermitian_part(y[..., :n, 0].reshape(m.shape))


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is no wider than double here")
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_rk4_oracle_matches_an_extended_precision_march(
        ref, ss_ref, two_d_ref):
    m, g = verification._drift_stack(
        verification._rows(ref, ss_ref[None]), verification.ORACLE_POINTS,
        two_d_ref, lv.sym_noise_matrix)
    t, c = pr.transfer_step_oracle(m, g, ref.length, 2000)
    t_ref, c_ref = _rk4_march_clongdouble(m, g, ref.length, 2000)
    finite = np.all(np.isfinite(t) & np.isfinite(c), axis=(-2, -1))
    assert np.array(verification.ORACLE_POINTS)[~finite].tolist() == [1000.0]
    assert np.max(_relative_error(t[finite], t_ref[finite])) < 1e-10
    assert np.max(_relative_error(c[finite], c_ref[finite])) < 1e-10


def test_rk4_oracle_is_rk4_not_the_exponential():
    # m = -k I, g = g0 I at hk = 0.5: one RK4 step scales T by R(-hk) and
    # the distance of C from its fixed point g0 / 2k by R(-2hk), with
    # R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24
    k, g0, n_steps = 2.0, 3.0, 4
    length = n_steps * 0.5 / k
    m = -k * np.eye(3, dtype=complex)
    g = g0 * np.eye(3, dtype=complex)
    (t,), (c,) = pr.transfer_step_oracle(m[None], g[None], length, n_steps)

    def r(z):
        return 1.0 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24

    eye = np.eye(3)
    assert np.max(np.abs(t - r(-0.5) ** n_steps * eye)) < 1e-13
    assert np.max(np.abs(
        c - g0 / (2 * k) * (1.0 - r(-1.0) ** n_steps) * eye)) < 1e-13
    # the exact solution is farther off than any rounding
    assert np.max(np.abs(t - np.exp(-k * length) * eye)) > 1e-6
    assert np.max(np.abs(
        c - g0 / (2 * k) * (1.0 - np.exp(-2 * k * length)) * eye)) > 1e-6


def test_rk4_oracle_blocks_are_rk4_steps_not_the_exponential():
    # the same decaying system over 2 blocks of MARCH_BLOCK steps plus 5
    # single steps, at hk = 0.1 so that T and C stay far from rounding
    k, g0 = 2.0, 3.0
    n_steps = 2 * pr.MARCH_BLOCK + 5
    length = n_steps * 0.1 / k
    m = -k * np.eye(3, dtype=complex)
    g = g0 * np.eye(3, dtype=complex)
    (t,), (c,) = pr.transfer_step_oracle(m[None], g[None], length, n_steps)

    def r(z):
        return 1.0 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24

    eye = np.eye(3)
    t_rk4 = r(-0.1) ** n_steps
    c_rk4 = g0 / (2 * k) * (1.0 - r(-0.2) ** n_steps)
    assert _relative_error(t, t_rk4 * eye) < 1e-13
    assert _relative_error(c, c_rk4 * eye) < 1e-13
    # the exact solution is farther off than any rounding
    t_exp = np.exp(-k * length)
    c_exp = g0 / (2 * k) * (1.0 - np.exp(-2 * k * length))
    assert _relative_error(t, t_exp * eye) > 1e-9
    assert _relative_error(c, c_exp * eye) > 1e-9


def _field_moments(p, ss, two_d, omegas, pairing=lv.sym_noise_matrix,
                   **switches):
    """(t, c) of the stacked transfer over ``omegas``, noise taken from
    ``two_d`` by ``pairing``."""
    m, q, channels = _drift(p, ss, omegas, **switches)
    g = pr.noise_drive(q, pairing(two_d, channels))
    return pr.second_moment_transfer_stack(m, g, p.length)


def _field_covariance(t, c):
    return pr.hermitian_part(pr.output_covariance(
        t, c, pr.vacuum_covariance(t.shape[-1] // 2)))


def test_free_propagation_preserves_commutators(ref):
    p0 = ref.with_(coupling_scale=0.0)
    (ss0,), (two_d0,) = solve([p0])
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
