"""Witness evaluation over the extended field-plus-coherence covariance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eitfwm import entanglement as en
from eitfwm import langevin as lv
from eitfwm import propagation as pr
from eitfwm.steady_state import DensityMatrix3, steady_state


@pytest.fixture(scope="module")
def ext_ref(ref, ss_ref, two_d_ref):
    return en.covariance_with_spinwave(-300.0, ref, ss_ref, two_d_ref)


def test_two_mode_squeezed_witness_exact():
    for s in (0.1, 0.5, 1.0):
        quad = en.two_mode_squeezed_quadrature(s)
        w = en.duan_min(quad, 0, 1)
        assert w.value == pytest.approx(4.0 * np.exp(-2.0 * s), abs=1e-9)
        assert w.signs == (-1, 1)
        assert w.entangled == (s > 0)


@given(st.floats(min_value=0.0, max_value=2.0))
def test_two_mode_squeezed_witness_any_squeezing(s):
    quad = en.two_mode_squeezed_quadrature(s)
    assert en.duan_min(quad, 0, 1).value == pytest.approx(
        4.0 * np.exp(-2.0 * s), rel=1e-12, abs=1e-12)


def test_duan_value_matches_direct_variances(rng):
    # random physical-looking covariance, compare against the literal
    # variance combination
    b = rng.normal(size=(6, 6))
    quad = b @ b.T + np.eye(6)
    i, j, su, sv = 0, 2, 1, -1
    u = quad[i, i] + quad[j, j] + 2 * su * quad[i, j]
    v = quad[3 + i, 3 + i] + quad[3 + j, 3 + j] + 2 * sv * quad[3 + i, 3 + j]
    assert en.duan_value(quad, i, j, su, sv) == pytest.approx(u + v,
                                                              rel=1e-14)


def test_duan_value_rejects_bad_index():
    quad = np.eye(6)
    with pytest.raises(en.UnknownModeError):
        en.duan_value(quad, 0, 3, 1, -1)


def test_duan_min_tie_keeps_preferred_signs():
    quad = np.eye(4)   # uncorrelated, both pairings give exactly 4
    assert en.duan_min(quad, 0, 1).signs == (1, -1)
    assert en.duan_min(quad, 0, 1, prefer=(-1, 1)).signs == (-1, 1)
    assert en.duan_min(quad, 0, 1).value == 4.0


def test_phase_scan_never_beats_exact_minimum():
    s = 0.5
    quad = en.two_mode_squeezed_quadrature(s)
    phi = np.pi / 7.0
    r = np.eye(4)
    r[np.ix_([0, 2], [0, 2])] = [[np.cos(phi), np.sin(phi)],
                                 [-np.sin(phi), np.cos(phi)]]
    rotated = r @ quad @ r.T
    sign_only = en.duan_min(rotated, 0, 1).value
    scanned = en.duan_min_over_phases(rotated, 0, 1)
    exact = 4.0 * np.exp(-2.0 * s)
    # the rotation hides the correlation from the fixed sign pairings
    # but the phase scan recovers it up to grid resolution
    assert sign_only > exact * 1.2
    assert scanned <= sign_only + 1e-12
    assert exact - 1e-9 <= scanned <= exact * 1.02
    assert en.duan_min_over_phases(rotated, 0, 1, n_phases=64) <= \
        scanned + 1e-12


def test_quadrature_covariance_vacuum():
    quad = en.quadrature_covariance(pr.vacuum_covariance(2))
    assert np.allclose(quad, np.eye(4), atol=1e-14)


def test_quadrature_covariance_rejects_odd_dimension():
    with pytest.raises(ValueError, match="even"):
        en.quadrature_covariance(np.eye(5))


def test_extended_covariance_labels_and_lookup(ext_ref):
    assert ext_ref.labels == ["a1", "b1", "S"]
    assert ext_ref.index("S") == 2
    with pytest.raises(en.UnknownModeError):
        ext_ref.index("a9")
    with pytest.raises(en.UnknownModeError):
        ext_ref.duan("a1", "c3")


def test_field_block_matches_plain_field_covariance(ref, ss_ref, two_d_ref,
                                                    ext_ref):
    dm = pr.drift_matrix(-300.0, ref, ss_ref)
    g = pr.noise_drive(dm.q, lv.sym_noise_matrix(two_d_ref, dm.channels))
    t, c = pr.second_moment_transfer_stack(dm.m[None], g[None], ref.length)
    quad_fields = en.quadrature_covariance(pr.hermitian_part(
        pr.output_covariance(t[0], c[0], pr.vacuum_covariance(2))))
    sel = np.ix_([0, 1, 3, 4], [0, 1, 3, 4])
    assert np.max(np.abs(ext_ref.quad[sel] - quad_fields)) < 1e-13


def test_reference_witnesses_frozen(ext_ref):
    w = ext_ref.duan("a1", "b1")
    assert w.signs == (1, -1)
    assert w.value == pytest.approx(2.111497118432327, rel=1e-9)
    assert w.entangled
    assert ext_ref.duan("a1", "S").signs == (1, -1)
    assert ext_ref.duan("S", "b1").signs == (1, -1)


def test_witness_even_in_frequency(ref, ss_ref, two_d_ref):
    for om in (200.0, 500.0, 900.0):
        up = en.covariance_with_spinwave(om, ref, ss_ref, two_d_ref)
        dn = en.covariance_with_spinwave(-om, ref, ss_ref, two_d_ref)
        vu = up.duan("a1", "b1").value
        vd = dn.duan("a1", "b1").value
        assert vu == pytest.approx(vd, rel=1e-6)


def test_uncoupled_medium_gives_vacuum_witness(ref):
    p0 = ref.with_(coupling_scale=0.0)
    ss0 = steady_state(p0)
    two_d0 = lv.diffusion_matrix(p0, ss0)
    ext = en.covariance_with_spinwave(0.0, p0, ss0, two_d0)
    assert ext.duan("a1", "b1").value == pytest.approx(4.0, abs=1e-12)
    # the coherence mode disconnects from the fields entirely
    m = ext.quad.shape[0] // 2
    i_s = ext.index("S")
    for i in (ext.index("a1"), ext.index("b1")):
        assert abs(ext.quad[i, i_s]) < 1e-14
        assert abs(ext.quad[m + i, m + i_s]) < 1e-14
    # but keeps the positive variance of its own noise lump
    assert ext.quad[i_s, i_s] > 1.0
    assert ext.quad[i_s, i_s] == pytest.approx(ext.quad[m + i_s, m + i_s],
                                               rel=1e-12)


def test_single_drive_pair_stays_vacuum(ref):
    p1 = ref.with_(omega_p=0.0)
    ss1 = steady_state(p1)
    two_d1 = lv.diffusion_matrix(p1, ss1)
    for om in (-2500.0, -300.0, 400.0):
        ext = en.covariance_with_spinwave(om, p1, ss1, two_d1)
        assert ext.duan("a1", "b1").value == pytest.approx(4.0, abs=1e-9)


def test_gauge_flip_leaves_witnesses_unchanged(ref, ss_ref, two_d_ref,
                                               ext_ref):
    # relabel |2> -> -|2>: ground and 2-3 coherences flip sign, as do
    # the matching noise channels; every quadrature witness must agree
    u = np.diag([1.0, -1.0, 1.0])
    flipped = DensityMatrix3(u @ ss_ref.matrix @ u)
    s = np.diag([-1.0, -1.0, 1.0, 1.0, -1.0, -1.0])
    ext2 = en.covariance_with_spinwave(-300.0, ref, flipped,
                                       s @ two_d_ref @ s)
    for pair in (("a1", "b1"), ("a1", "S"), ("S", "b1")):
        assert ext2.duan(*pair).value == pytest.approx(
            ext_ref.duan(*pair).value, rel=1e-9)


def test_as_printed_coupling_never_entangles(ref, ss_ref, two_d_ref):
    for om in (-1000.0, -300.0, 0.0):
        ext = en.covariance_with_spinwave(om, ref, ss_ref, two_d_ref,
                                          coupling="as_printed")
        assert ext.duan("a1", "b1").value >= 4.0 - 1e-9


def test_z_averaged_definition_smoke(ref, ss_ref, two_d_ref):
    ext = en.covariance_with_spinwave(0.0, ref, ss_ref, two_d_ref,
                                      spinwave="z-averaged")
    for pair in (("a1", "b1"), ("a1", "S"), ("S", "b1")):
        v = ext.duan(*pair).value
        assert np.isfinite(v) and v > 0.0


def test_unknown_spinwave_definition_rejected(ref, ss_ref, two_d_ref):
    with pytest.raises(ValueError, match="definition"):
        en.covariance_with_spinwave(0.0, ref, ss_ref, two_d_ref,
                                    spinwave="midpoint")


def test_spinwave_scale_override(ref, ss_ref, two_d_ref):
    # doubling the scale multiplies the S-S covariance block by four
    e1 = en.covariance_with_spinwave(0.0, ref.with_(spinwave_scale=1.0),
                                     ss_ref, two_d_ref)
    e2 = en.covariance_with_spinwave(0.0, ref.with_(spinwave_scale=2.0),
                                     ss_ref, two_d_ref)
    i_s = e1.index("S")
    assert e2.quad[i_s, i_s] == pytest.approx(4.0 * e1.quad[i_s, i_s],
                                              rel=1e-12)
