"""Witness evaluation over the extended field-plus-coherence covariance."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from eitfwm import entanglement as en
from eitfwm import langevin as lv
from eitfwm import propagation as pr
from eitfwm import sweeps
from eitfwm.params import derive
from eitfwm.steady_state import solve

#: mode labels of the single pair's extended covariance
LABELS = ["a1", "b1", "S"]


def _quad(p, ss, two_d, omegas, **switches):
    """Quadrature covariances of the single pair plus S at ``omegas``,
    one witness set-up shared by every frequency."""
    modes = pr.single_pair_modes(p)
    set_up = en.witness_set_up([p], ss[None], two_d[None], modes,
                               [derive(p)])
    return en.extended_quadratures(set_up, omegas, p.length, **switches)


def _values(quad, pair=("a1", "b1")):
    """Witness values of ``pair`` at every matrix of the stack ``quad``."""
    values, _ = en.pair_witness(quad, LABELS, pair)
    return values


@pytest.fixture(scope="module")
def quad_ref(ref, ss_ref, two_d_ref):
    return _quad(ref, ss_ref, two_d_ref, [-300.0])


def test_two_mode_squeezed_witness_exact(squeezed_quadrature):
    for s in (0.1, 0.5, 1.0):
        quad = squeezed_quadrature(s)
        (value,), (signs,) = en.duan_min_stack(quad[None], 0, 1)
        assert value == pytest.approx(4.0 * np.exp(-2.0 * s), abs=1e-9)
        assert signs.tolist() == [-1, 1]
        assert (value < 4.0) == (s > 0)


@given(st.floats(min_value=0.0, max_value=2.0))
def test_two_mode_squeezed_witness_any_squeezing(squeezed_quadrature, s):
    quad = squeezed_quadrature(s)
    (value,), _ = en.duan_min_stack(quad[None], 0, 1)
    assert value == pytest.approx(4.0 * np.exp(-2.0 * s), rel=1e-12,
                                  abs=1e-12)


def test_duan_value_matches_direct_variances(rng):
    # random physical-looking covariance, compare against the literal
    # variance combination
    b = rng.normal(size=(6, 6))
    quad = b @ b.T + np.eye(6)
    i, j, su, sv = 0, 2, 1, -1
    u = quad[i, i] + quad[j, j] + 2 * su * quad[i, j]
    v = quad[3 + i, 3 + i] + quad[3 + j, 3 + j] + 2 * sv * quad[3 + i, 3 + j]
    assert en.duan_values(quad, i, j, su, sv) == pytest.approx(u + v,
                                                               rel=1e-14)


def test_duan_value_rejects_bad_index():
    quad = np.eye(6)
    with pytest.raises(en.UnknownModeError):
        en.duan_values(quad, 0, 3, 1, -1)


def test_duan_min_tie_keeps_preferred_signs():
    quad = np.eye(4)[None]   # uncorrelated, both pairings give exactly 4
    assert en.duan_min_stack(quad, 0, 1)[1].tolist() == [[1, -1]]
    assert en.duan_min_stack(quad, 0, 1, prefer=(-1, 1))[1].tolist() \
        == [[-1, 1]]
    assert en.duan_min_stack(quad, 0, 1)[0][0] == 4.0


def test_pair_witness_keeps_the_pairs_preferred_signs():
    quad = np.eye(6)[None]   # uncorrelated: every pair ties at 4
    for pair in (("a1", "S"), ("S", "a1")):
        assert en.pair_witness(quad, LABELS, pair)[1].tolist() == [[-1, 1]]
    assert en.pair_witness(quad, LABELS, ("a1", "b1"))[1].tolist() \
        == [[1, -1]]


def _rotations(phases: np.ndarray, k: int, m: int) -> np.ndarray:
    """Local phase rotations of mode ``k`` of ``m``, one per phase."""
    r = np.tile(np.eye(2 * m), (len(phases), 1, 1))
    cos, sin = np.cos(phases), np.sin(phases)
    r[:, k, k], r[:, k, m + k] = cos, sin
    r[:, m + k, k], r[:, m + k, m + k] = -sin, cos
    return r


def duan_min_over_phases(quad: np.ndarray, i: int, j: int,
                         n_phases: int = 16) -> float:
    """Witness minimized over local phase rotations of both modes.

    The two discrete sign pairings are the 0/pi points of this family;
    scanning it shows that a minimum hidden from them by a coherence
    phase is recovered.  All n_phases**2 rotated covariances are
    evaluated as one stack; a nan witness is skipped.
    """
    m = quad.shape[0] // 2
    phases = np.arange(n_phases) * (2.0 * np.pi / n_phases)
    ri, rj = _rotations(phases, i, m), _rotations(phases, j, m)
    qi = ri @ quad @ pr.dagger(ri)
    rotated = rj @ qi[:, None] @ pr.dagger(rj)
    values, _ = en.duan_min_stack(rotated.reshape(-1, 2 * m, 2 * m), i, j)
    return float(np.min(values[~np.isnan(values)], initial=np.inf))


def test_phase_scan_never_beats_exact_minimum(squeezed_quadrature):
    s = 0.5
    quad = squeezed_quadrature(s)
    phi = np.pi / 7.0
    r = np.eye(4)
    r[np.ix_([0, 2], [0, 2])] = [[np.cos(phi), np.sin(phi)],
                                 [-np.sin(phi), np.cos(phi)]]
    rotated = r @ quad @ r.T
    (sign_only,), _ = en.duan_min_stack(rotated[None], 0, 1)
    scanned = duan_min_over_phases(rotated, 0, 1)
    exact = 4.0 * np.exp(-2.0 * s)
    # the rotation hides the correlation from the fixed sign pairings
    # but the phase scan recovers it up to grid resolution
    assert sign_only > exact * 1.2
    assert scanned <= sign_only + 1e-12
    assert exact - 1e-9 <= scanned <= exact * 1.02
    assert duan_min_over_phases(rotated, 0, 1, n_phases=64) <= \
        scanned + 1e-12


def reference_duan_min_over_phases(quad, i, j, n_phases=16):
    """The phase scan as a loop over both rotation angles, one witness
    per rotated covariance, kept as the reference of the stacked scan."""
    m = quad.shape[0] // 2
    best = np.inf
    phases = np.arange(n_phases) * (2.0 * np.pi / n_phases)
    for phi in phases:
        ri = np.eye(2 * m)
        ri[np.ix_([i, m + i], [i, m + i])] = \
            [[np.cos(phi), np.sin(phi)], [-np.sin(phi), np.cos(phi)]]
        qi = ri @ quad @ ri.T
        for psi in phases:
            rj = np.eye(2 * m)
            rj[np.ix_([j, m + j], [j, m + j])] = \
                [[np.cos(psi), np.sin(psi)], [-np.sin(psi), np.cos(psi)]]
            (value,), _ = en.duan_min_stack((rj @ qi @ rj.T)[None], i, j)
            best = min(best, float(value))
    return best


@settings(deadline=None, max_examples=40)
@given(st.floats(min_value=0.0, max_value=2.0),
       st.floats(min_value=0.0, max_value=2.0 * np.pi),
       st.sampled_from([16, 64]))
def test_phase_scan_is_the_loop_over_rotations(squeezed_quadrature, s,
                                                phi, n_phases):
    quad = squeezed_quadrature(s)
    r = np.eye(4)
    r[np.ix_([0, 2], [0, 2])] = [[np.cos(phi), np.sin(phi)],
                                 [-np.sin(phi), np.cos(phi)]]
    rotated = r @ quad @ r.T
    assert duan_min_over_phases(rotated, 0, 1, n_phases) == \
        reference_duan_min_over_phases(rotated, 0, 1, n_phases)


def test_phase_scan_is_the_loop_on_three_modes(rng):
    for _ in range(10):
        b = rng.normal(size=(6, 6))
        quad = b @ b.T + np.eye(6)
        for i, j in ((0, 2), (2, 1)):
            assert duan_min_over_phases(quad, i, j) == \
                reference_duan_min_over_phases(quad, i, j)


def test_quadrature_covariance_vacuum(vacuum_covariance):
    quad = en.quadrature_covariance(vacuum_covariance(2))
    assert np.allclose(quad, np.eye(4), atol=1e-14)


def reference_quadrature_covariance(doubled):
    """L X L^+ by matrix products, the rows of L the quadratures
    x_k = a_k + a_k^+ and p_k = -i(a_k - a_k^+): the form that
    entanglement.quadrature_covariance replaces."""
    n = doubled.shape[-1] // 2
    lam = np.zeros((2 * n, 2 * n), dtype=complex)
    for k in range(n):
        lam[k, k] = 1.0
        lam[k, n + k] = 1.0
        lam[n + k, k] = -1j
        lam[n + k, n + k] = 1j
    return (lam @ doubled @ pr.dagger(lam)).real


#: finite parts, exact zeros of both signs in good supply
_PART = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0]))


def _doubled_stacks(n, stack):
    """Stacks of ``stack`` complex (2n, 2n) matrices made of _PART."""
    return arrays(np.float64, (stack, 2 * n, 2 * n, 2), elements=_PART).map(
        lambda parts: parts.view(complex)[..., 0])


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 5).flatmap(
    lambda n: st.integers(1, 3).flatmap(lambda k: _doubled_stacks(n, k))))
def test_quadrature_frame_is_the_product_with_lambda(x):
    # every entry has the bits of the product form, but for the sign of
    # an exact zero: OpenBLAS's zgemm signs the zeros of its sums by its
    # own accumulation order, which no sum of two entries reproduces
    quad = en.quadrature_covariance(x)
    ref = reference_quadrature_covariance(x)
    assert quad.shape == ref.shape
    assert (quad + 0.0).tobytes() == (ref + 0.0).tobytes()


def test_quadrature_frame_and_vacuum_output_keep_every_bit_on_sweeps(
        ref, reference_output, monkeypatch):
    # on the fig2 and two-pair z-averaged stacks, zeros included
    frames, outputs = [], []
    frame, output = en.quadrature_covariance, pr.output_covariance

    def recorded_frame(doubled):
        frames.append((doubled, frame(doubled)))
        return frames[-1][1]

    def recorded_output(t, c, weights):
        outputs.append((t, c, weights, output(t, c, weights)))
        return outputs[-1][-1]

    monkeypatch.setattr(en, "quadrature_covariance", recorded_frame)
    monkeypatch.setattr(pr, "output_covariance", recorded_output)
    p = ref.with_(coupling_scale=1.6462819213179591,
                  spinwave_scale=0.007228895687294551)
    for cfg, grid in [
            (sweeps.SweepConfig(), sweeps.fig_spectrum_grid(p)),
            (sweeps.SweepConfig(two_pair=True,
                                spinwave_definition="z-averaged"),
             sweeps.fig_two_pair_grid(p))]:
        set_up, _ = sweeps._set_up([p], cfg)
        en.extended_quadratures(set_up, grid, p.length,
                                spinwave=cfg.spinwave_definition)
    assert len(frames) == len(outputs) == 2
    for doubled, quad in frames:
        assert quad.tobytes() == \
            reference_quadrature_covariance(doubled).tobytes()
    for t, c, weights, out in outputs:
        assert out.tobytes() == reference_output(t, c, weights).tobytes()


def test_quadrature_covariance_rejects_odd_dimension():
    with pytest.raises(ValueError, match="even"):
        en.quadrature_covariance(np.eye(5))


def test_extended_covariance_labels_and_lookup(ref, quad_ref):
    assert en.extended_labels(pr.single_pair_modes(ref)) == LABELS
    with pytest.raises(en.UnknownModeError):
        en.pair_witness(quad_ref, LABELS, ("a9", "b1"))
    with pytest.raises(en.UnknownModeError):
        en.pair_witness(quad_ref, LABELS, ("a1", "c3"))


def test_field_block_matches_plain_field_covariance(ref, ss_ref, two_d_ref,
                                                    quad_ref,
                                                    reference_output):
    rows = pr.drift_rows(ss_ref[None], pr.single_pair_modes(ref),
                         [derive(ref)])
    m, q = pr.drift_block(rows, [-300.0])
    g = pr.noise_drive(q, lv.sym_noise_matrix(two_d_ref, rows.channels))
    t, c = pr.second_moment_transfer_stack(m, g, ref.length)
    quad_fields = en.quadrature_covariance(pr.hermitian_part(
        reference_output(t[0], c[0], [0.5] * 4)))
    sel = np.ix_([0, 1, 3, 4], [0, 1, 3, 4])
    assert np.max(np.abs(quad_ref[0][sel] - quad_fields)) < 1e-13


def _pair_outcome(quadratures, labels):
    """(values, signs) of the witness of (a1, b1) of the stack that
    ``quadratures()`` returns, or the message of its failure."""
    try:
        return en.pair_witness(quadratures(), labels, ("a1", "b1"))
    except pr.NumericalOverflowError as exc:
        return str(exc)


@settings(deadline=None, max_examples=60)
@given(coupling_scale=st.floats(1e-3, 30.0), gamma0=st.floats(1e-2, 100.0),
       omega_p=st.floats(0.0, 800.0), omega_c=st.floats(1.0, 800.0),
       delta1=st.floats(-3000.0, 3000.0), omega=st.floats(-3000.0, 1000.0))
# so weak a coupling that the z-averaged integral rows lift the drift norm
# across a power of two at 500 MHz: 11 doubling stages, not the fields' 10
@example(coupling_scale=1e-3, gamma0=0.1, omega_p=400.0, omega_c=400.0,
         delta1=-1000.0, omega=500.0)
# on resonance the 10x10 products round the field block apart (1e-14)
@example(coupling_scale=1.0, gamma0=1.0, omega_p=18.0, omega_c=5.0,
         delta1=1.0, omega=0.0)
# the parametric coupling under the same-sideband bookkeeping passes the
# gain ceiling at -2000 MHz: both chains raise there
@example(coupling_scale=1.0, gamma0=0.1, omega_p=400.0, omega_c=400.0,
         delta1=-1000.0, omega=-2000.0)
def test_field_chain_is_the_field_block_of_the_extended_chain(
        ref, coupling_scale, gamma0, omega_p, omega_c, delta1, omega):
    p = ref.with_(coupling_scale=coupling_scale, gamma0=gamma0,
                  omega_p=omega_p, omega_c=omega_c, delta1=delta1)
    states, tables = solve([p])
    modes = pr.single_pair_modes(p)
    set_up = en.witness_set_up([p], states, tables, modes, [derive(p)])
    omegas = [0.0, omega]
    for coupling in pr.COUPLINGS:
        for sideband in pr.SIDEBANDS:
            fields = _pair_outcome(lambda: en.field_quadratures(
                [(p, states, tables, omegas, coupling)], p.length, sideband),
                en.field_labels(modes))
            for spinwave in en.SPINWAVE_DEFINITIONS:
                extended = _pair_outcome(lambda: en.extended_quadratures(
                    set_up, omegas, p.length, coupling, sideband, spinwave),
                    LABELS)
                if isinstance(fields, str) or isinstance(extended, str):
                    assert fields == extended
                elif spinwave == "endpoint":
                    # the same drift, kernel call and output: the bits
                    assert [v.hex() for v in fields[0].tolist()] \
                        == [v.hex() for v in extended[0].tolist()]
                    assert fields[1].tolist() == extended[1].tolist()
                else:
                    # the z-averaged state doubles its own 10x10 drift
                    assert fields[0] == pytest.approx(extended[0], rel=1e-9)


def test_a_field_chain_past_float_range_fails_as_the_extended_chain(ref):
    # so dense a vapour puts the noise moment of the fields, not their
    # transfer, past float range
    p = ref.with_(n0=1e100)
    states, tables = solve([p])
    modes = pr.single_pair_modes(p)
    derived = [derive(p)]
    with pytest.raises(pr.NumericalOverflowError) as fields:
        en.field_quadratures([(p, states, tables, [-500.0, 0.0],
                               "parametric")], p.length)
    with pytest.raises(pr.NumericalOverflowError) as extended:
        en.extended_quadratures(en.witness_set_up([p], states, tables, modes,
                                                  derived),
                                [-500.0, 0.0], p.length)
    assert str(fields.value) == str(extended.value) \
        == "extended covariance is not finite at omega = -500 MHz"


def test_reference_witnesses_frozen(quad_ref):
    (value,), signs = en.pair_witness(quad_ref, LABELS, ("a1", "b1"))
    assert signs.tolist() == [[1, -1]]
    assert value == pytest.approx(2.111497118432327, rel=1e-9)
    assert value < 4.0
    for pair in (("a1", "S"), ("S", "b1")):
        assert en.pair_witness(quad_ref, LABELS, pair)[1].tolist() \
            == [[1, -1]]


def test_witness_even_in_frequency(ref):
    # under the mirrored sideband the assembly at -omega is a swapped
    # conjugate of that at omega, so the witnesses at +-omega differ by
    # the kernel's roundoff alone: at the calibrated scales up to
    # 6.7e-9 over fig2's mirrored grid points, 8.6e-9 over the two-pair
    # z-averaged ones; evaluated directly, not read from a sweep
    p = ref.with_(coupling_scale=1.6462819213179591,
                  spinwave_scale=0.007228895687294551)
    for cfg, grid in [
            (sweeps.SweepConfig(), sweeps.fig_spectrum_grid(p)),
            (sweeps.SweepConfig(two_pair=True,
                                spinwave_definition="z-averaged"),
             sweeps.fig_two_pair_grid(p))]:
        omegas = grid[(grid > 0) & np.isin(-grid, grid)]
        assert len(omegas) >= 500
        set_up, _ = sweeps._set_up([p], cfg)
        labels = en.extended_labels(cfg.modes(p))
        plus, minus = (en.extended_quadratures(
            set_up, w, p.length, spinwave=cfg.spinwave_definition)
            for w in (omegas, -omegas))
        for pair in cfg.pairs():
            v_plus, signs_plus = en.pair_witness(plus, labels, pair)
            v_minus, signs_minus = en.pair_witness(minus, labels, pair)
            assert np.array_equal(signs_minus, signs_plus)
            assert np.max(np.abs(v_minus - v_plus) / v_plus) < 1e-8


def test_uncoupled_medium_gives_vacuum_witness(ref):
    p0 = ref.with_(coupling_scale=0.0)
    (ss0,), (two_d0,) = solve([p0])
    quad = _quad(p0, ss0, two_d0, [0.0])
    assert _values(quad)[0] == pytest.approx(4.0, abs=1e-12)
    # the coherence mode disconnects from the fields entirely
    (quad,) = quad
    m = quad.shape[0] // 2
    i_s = LABELS.index("S")
    for i in (LABELS.index("a1"), LABELS.index("b1")):
        assert abs(quad[i, i_s]) < 1e-14
        assert abs(quad[m + i, m + i_s]) < 1e-14
    # but keeps the positive variance of its own noise lump
    assert quad[i_s, i_s] > 1.0
    assert quad[i_s, i_s] == pytest.approx(quad[m + i_s, m + i_s],
                                           rel=1e-12)


def test_single_drive_pair_stays_vacuum(ref):
    p1 = ref.with_(omega_p=0.0)
    (ss1,), (two_d1,) = solve([p1])
    values = _values(_quad(p1, ss1, two_d1, [-2500.0, -300.0, 400.0]))
    assert values == pytest.approx([4.0] * 3, abs=1e-9)


def test_gauge_flip_leaves_witnesses_unchanged(ref, ss_ref, two_d_ref,
                                               quad_ref):
    # relabel |2> -> -|2>: ground and 2-3 coherences flip sign, as do
    # the matching noise channels; every quadrature witness must agree
    u = np.diag([1.0, -1.0, 1.0])
    flipped = u @ ss_ref @ u
    s = np.diag([-1.0, -1.0, 1.0, 1.0, -1.0, -1.0])
    quad2 = _quad(ref, flipped, s @ two_d_ref @ s, [-300.0])
    for pair in (("a1", "b1"), ("a1", "S"), ("S", "b1")):
        assert _values(quad2, pair)[0] == pytest.approx(
            _values(quad_ref, pair)[0], rel=1e-9)


def test_as_printed_coupling_never_entangles(ref, ss_ref, two_d_ref):
    values = _values(_quad(ref, ss_ref, two_d_ref, [-1000.0, -300.0, 0.0],
                           coupling="as_printed"))
    assert np.all(values >= 4.0 - 1e-9)


def test_z_averaged_definition_smoke(ref, ss_ref, two_d_ref):
    quad = _quad(ref, ss_ref, two_d_ref, [0.0], spinwave="z-averaged")
    for pair in (("a1", "b1"), ("a1", "S"), ("S", "b1")):
        (v,) = _values(quad, pair)
        assert np.isfinite(v) and v > 0.0


def test_unknown_spinwave_definition_rejected(ref, ss_ref, two_d_ref):
    with pytest.raises(ValueError, match="definition"):
        _quad(ref, ss_ref, two_d_ref, [0.0], spinwave="midpoint")


def test_spinwave_scale_override(ref, ss_ref, two_d_ref):
    # doubling the scale multiplies the S-S covariance block by four
    (e1,) = _quad(ref.with_(spinwave_scale=1.0), ss_ref, two_d_ref, [0.0])
    (e2,) = _quad(ref.with_(spinwave_scale=2.0), ss_ref, two_d_ref, [0.0])
    i_s = LABELS.index("S")
    assert e2[i_s, i_s] == pytest.approx(4.0 * e1[i_s, i_s], rel=1e-12)
