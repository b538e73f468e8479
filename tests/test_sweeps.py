"""Grid construction, sweep determinism, dip reports, serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eitfwm import entanglement as en
from eitfwm import langevin as lv
from eitfwm import propagation as pr
from eitfwm import sweeps
from eitfwm.steady_state import steady_state


def _synthetic(omegas, values, params):
    pair = ("a1", "b1")
    return sweeps.CorrelationSpectrum(
        omegas=np.asarray(omegas, dtype=float), pairs=[pair],
        values={pair: np.asarray(values, dtype=float)},
        signs={pair: [(1, -1)] * len(omegas)},
        params=params, config=sweeps.SweepConfig())


SMALL_GRID = np.array([-2500.0, -1500.0, -1000.0, -700.0, -300.0,
                       0.0, 200.0, 500.0, 900.0])


@pytest.fixture(scope="module")
def spec_small(ref):
    return sweeps.sweep_omega(ref, SMALL_GRID)


def test_omega_grid_refinement_density(ref):
    grid = sweeps.omega_grid(-3000.0, 1000.0, 101,
                             refine_centers=(ref.delta1,), p=ref)
    assert grid[0] == -3000.0 and grid[-1] == 1000.0
    near = grid[(grid >= ref.delta1 - 29.0) & (grid <= ref.delta1 + 29.0)]
    assert near.size > 3
    assert np.max(np.diff(near)) <= 1.0 + 1e-9


@settings(deadline=None, max_examples=50)
@given(st.floats(min_value=-5000.0, max_value=-1.0),
       st.floats(min_value=1.0, max_value=5000.0),
       st.integers(min_value=2, max_value=400),
       st.floats(min_value=-6000.0, max_value=6000.0))
def test_omega_grid_is_sorted_unique_and_bounded(start, stop, n, center):
    grid = sweeps.omega_grid(start, stop, n, refine_centers=(center,),
                             refine_step=0.7)
    assert np.all(np.diff(grid) > 0)
    assert grid[0] >= start - 1e-9 and grid[-1] <= stop + 1e-9
    assert start in grid and stop in grid


def test_sweep_values_shape_and_pairs(spec_small):
    assert spec_small.pairs == list(sweeps.SINGLE_PAIRS)
    for pair in spec_small.pairs:
        v = spec_small.values[pair]
        assert v.shape == SMALL_GRID.shape
        assert np.all(np.isfinite(v)) and np.all(v > 0)
        assert len(spec_small.signs[pair]) == SMALL_GRID.size


def test_sweep_deterministic(ref, spec_small):
    again = sweeps.sweep_omega(ref, SMALL_GRID)
    for pair in spec_small.pairs:
        assert np.array_equal(spec_small.values[pair], again.values[pair])
        assert spec_small.signs[pair] == again.signs[pair]


def test_sweep_runs_one_transfer_per_point(ref, monkeypatch):
    # every matrix the doubling kernel sees, one-point calls included:
    # one per point, none for the commutator moment
    matrices = []
    real = pr.second_moment_transfer_stack

    def counted(m, *args, **kwargs):
        matrices.extend(m)
        return real(m, *args, **kwargs)

    monkeypatch.setattr(pr, "second_moment_transfer_stack", counted)
    sweeps.sweep_omega(ref, np.array([-1500.0, -1000.0, 0.0]))
    assert len(matrices) == 3


def test_sweeps_set_up_the_drift_once_per_parameter_point(ref, monkeypatch):
    calls = []
    real = pr.drift_rows

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(pr, "drift_rows", counted)
    sweeps.sweep_omega(ref, np.array([-1500.0, -1000.0, 0.0]))
    assert len(calls) == 1
    sweeps.sweep_gamma0(ref, np.array([0.01, 0.1]), omega=0.0)
    assert len(calls) == 3


def test_two_pair_sweep_reports_cross_pairs(ref):
    cfg = sweeps.SweepConfig(two_pair=True)
    spec = sweeps.sweep_omega(ref, np.array([-1000.0, 0.0, 1000.0]), cfg)
    assert spec.pairs == list(sweeps.TWO_PAIR_PAIRS)
    assert ("a1", "a2") in spec.values
    assert np.all(np.isfinite(spec.values[("b1", "b2")]))


#: 13 points from -1000 MHz up: doubling stage counts 18 to 28, and
#: stable under every model switch, including sideband "same"
BLOCK_GRID = np.linspace(-1000.0, 3000.0, 13)


def _drift(p, cfg, omega):
    """The propagated drift of one point of a sweep of ``cfg``."""
    m, *_ = en.assemble(sweeps._set_up(p, cfg), [omega], p.length,
                        cfg.coupling, cfg.sideband, cfg.spinwave_definition)
    return m[0]


def _small_blocks(monkeypatch, cfg, p):
    """Shrink the sweep blocks to 4 points of this configuration."""
    dim = _drift(p, cfg, 0.0).shape[-1]
    monkeypatch.setattr(sweeps, "BLOCK_ENTRIES", 4 * dim * dim)


def _stage_count(m, length):
    """Doubling stage count of a drift, as the kernel chooses it."""
    norm = np.linalg.norm(m, 1) * length
    return max(0, int(np.ceil(np.log2(norm / 2.0 ** -10))))


@pytest.mark.parametrize("cfg", [
    sweeps.SweepConfig(),
    sweeps.SweepConfig(two_pair=True),
    sweeps.SweepConfig(spinwave_definition="z-averaged"),
    sweeps.SweepConfig(spinwave_definition="z-averaged", two_pair=True),
    sweeps.SweepConfig(sideband="same"),
    sweeps.SweepConfig(coupling="as_printed"),
], ids=["endpoint", "two_pair", "z_averaged", "z_averaged_two_pair",
        "same_sideband", "as_printed"])
def test_block_sweep_equals_one_point_calls(ref, monkeypatch, cfg):
    _small_blocks(monkeypatch, cfg, ref)
    spec = sweeps.sweep_omega(ref, BLOCK_GRID, cfg)
    ss = steady_state(ref)
    two_d = lv.diffusion_matrix(ref, ss)
    stages = set()
    for i, om in enumerate(BLOCK_GRID):
        stages.add(_stage_count(_drift(ref, cfg, om), ref.length))
        ext = en.covariance_with_spinwave(
            om, ref, ss, two_d, modes=cfg.modes(ref), coupling=cfg.coupling,
            sideband=cfg.sideband, spinwave=cfg.spinwave_definition)
        for pair in spec.pairs:
            w = ext.duan(*pair)
            assert spec.values[pair][i] == w.value, (om, pair)
            assert spec.signs[pair][i] == w.signs, (om, pair)
    # blocks of 4, 4, 4 and 1 points, mixing stage counts
    assert len(stages) >= 3


def test_block_param_sweep_equals_one_point_calls(ref, monkeypatch):
    _small_blocks(monkeypatch, sweeps.SweepConfig(), ref)
    gamma0s = np.logspace(-2.0, 3.0, 9)
    spec = sweeps.sweep_gamma0(ref, gamma0s, omega=0.0)
    for i, g0 in enumerate(gamma0s):
        q = ref.with_(gamma0=float(g0))
        ss = steady_state(q)
        ext = en.covariance_with_spinwave(0.0, q, ss,
                                          lv.diffusion_matrix(q, ss))
        for pair in spec.pairs:
            w = ext.duan(*pair)
            assert spec.values[pair][i] == w.value, (g0, pair)
            assert spec.signs[pair][i] == w.signs, (g0, pair)


@pytest.mark.parametrize("sweep,where", [
    (lambda p, cfg: sweeps.sweep_omega(p, np.array([-2000.0]), cfg),
     r"at omega = -2000 MHz$"),
    (lambda p, cfg: sweeps.sweep_gamma0(p, [0.1], omega=-2000.0, config=cfg),
     r"at omega = -2000 MHz, gamma0 = 0\.1$"),
], ids=["omega", "gamma0"])
def test_sweep_overflow_names_the_frequency(ref, sweep, where):
    cfg = sweeps.SweepConfig(sideband="same")
    with pytest.raises(pr.NumericalOverflowError, match=where):
        sweep(ref, cfg)


def test_overflow_in_a_later_block_names_the_first_failing_frequency(
        ref, monkeypatch):
    # blocks of 4: the second block holds two failing points, and the
    # later one (-3000 MHz, 19 stages) is doubled before the earlier one
    # (-1250 MHz, 22 stages); the grid order decides which is named
    cfg = sweeps.SweepConfig(sideband="same")
    _small_blocks(monkeypatch, cfg, ref)
    grid = np.array([0.0, 250.0, 500.0, 750.0,
                     1000.0, -1250.0, -3000.0, 1250.0])
    with pytest.raises(pr.NumericalOverflowError,
                       match=r"at omega = -1250 MHz$"):
        sweeps.sweep_omega(ref, grid, cfg)


def test_overflow_precedes_a_later_set_up_failure(ref):
    # gamma0 = -1 fails validation while its set-up is built, after the
    # point before it has already overflowed
    cfg = sweeps.SweepConfig(sideband="same")
    with pytest.raises(pr.NumericalOverflowError, match=r"gamma0 = 0\.1$"):
        sweeps.sweep_gamma0(ref, [0.1, -1.0], omega=-2000.0, config=cfg)


@pytest.mark.parametrize("sweep,where", [
    (lambda p, cfg: sweeps.sweep_omega(p.with_(gamma0=0.0),
                                       np.array([-2000.0, 0.0]), cfg),
     r"^transfer gain .* at omega = -2000 MHz$"),
    (lambda p, cfg: sweeps.sweep_omega(p.with_(gamma0=0.0),
                                       np.array([0.0, -2000.0]), cfg),
     r"^coherence response .* vanishes at omega = 0 MHz$"),
    (lambda p, cfg: sweeps.sweep_gamma0(p, [0.1, 0.0, -1.0], omega=0.0),
     r"^coherence response .* vanishes at omega = 0 MHz, gamma0 = 0$"),
], ids=["overflow_first", "vanishing_first", "gamma0"])
def test_vanishing_coherence_response_is_reported_in_grid_order(ref, sweep,
                                                                where):
    # without dephasing the coherence response gamma0 + i*omega is zero
    # at omega = 0; an overflow at an earlier point of the same block
    # ("same" sideband at -2000 MHz) is reported instead, and a set-up
    # failure at a later point (gamma0 = -1) is never reached
    cfg = sweeps.SweepConfig(sideband="same")
    with pytest.raises(pr.NumericalOverflowError, match=where):
        sweep(ref, cfg)


def test_find_dip_interior_minimum(ref):
    om = np.linspace(-1500.0, -500.0, 2001)
    vals = 2.0 - 1.5 * np.exp(-(((om + 1000.0) / 50.0) ** 2))
    spec = _synthetic(om, vals, ref)
    rep = sweeps.find_dip(spec, ("a1", "b1"), (-1300.0, -700.0))
    assert rep.degenerate is None
    assert rep.omega_star == pytest.approx(-1000.0, abs=0.5)
    assert rep.v_min == pytest.approx(0.5, abs=1e-6)
    assert rep.plateau_median == pytest.approx(2.0, abs=1e-3)
    # full width at half depth of a gaussian dip
    assert rep.width == pytest.approx(100.0 * np.sqrt(np.log(2.0)),
                                      rel=1e-2)


def test_find_dip_monotone_window_is_edge(ref):
    om = np.linspace(-2000.0, 0.0, 101)
    spec = _synthetic(om, 2.0 + 0.001 * om, ref)
    rep = sweeps.find_dip(spec, ("a1", "b1"), (-1500.0, -500.0))
    assert rep.degenerate == "edge"
    assert rep.omega_star == -1500.0
    assert np.isnan(rep.width)


def test_find_dip_flat_window(ref):
    om = np.linspace(-2000.0, 0.0, 101)
    spec = _synthetic(om, np.full(om.size, 2.5), ref)
    rep = sweeps.find_dip(spec, ("a1", "b1"), (-1500.0, -500.0))
    assert rep.degenerate == "flat"
    assert rep.v_min == rep.plateau_median == 2.5
    assert np.isnan(rep.width)


def test_find_dip_empty_window(ref):
    spec = _synthetic([0.0, 1.0], [2.0, 2.0], ref)
    with pytest.raises(ValueError, match="no grid points"):
        sweeps.find_dip(spec, ("a1", "b1"), (100.0, 200.0))


def test_plateau_median_respects_exclusions(ref):
    om = np.linspace(-2000.0, 0.0, 201)
    vals = np.full(om.size, 3.0)
    vals[(om >= -1100.0) & (om <= -900.0)] = 0.5
    spec = _synthetic(om, vals, ref)
    raw = sweeps.plateau_median(spec, ("a1", "b1"), band=(-2000.0, 0.0))
    cleaned = sweeps.plateau_median(spec, ("a1", "b1"),
                                    band=(-2000.0, 0.0),
                                    exclude=[(-1100.0, -900.0)])
    assert raw == 3.0       # dip region is a minority of the band
    assert cleaned == 3.0
    empty = sweeps.plateau_median(spec, ("a1", "b1"),
                                  band=(-2000.0, 0.0),
                                  exclude=[(-2000.0, 0.0)])
    assert np.isnan(empty)


def test_params_hash_reference_frozen(ref):
    assert sweeps.params_hash(ref, sweeps.SweepConfig()) == "e6561fedd3ef"


def test_params_hash_tracks_inputs(ref):
    base = sweeps.params_hash(ref, sweeps.SweepConfig())
    assert sweeps.params_hash(ref.with_(gamma0=0.2),
                              sweeps.SweepConfig()) != base
    assert sweeps.params_hash(ref, sweeps.SweepConfig(
        sideband="same")) != base
    assert sweeps.params_hash(ref, sweeps.SweepConfig(
        two_pair=True)) != base


def test_csv_lines_structure_and_round_trip(spec_small):
    lines = sweeps.csv_lines(spec_small, extra_meta={"note": "x"})
    assert lines == sweeps.csv_lines(spec_small, extra_meta={"note": "x"})
    meta = [l for l in lines if l.startswith("# ")]
    assert any(l.startswith("# params_hash = ") for l in meta)
    assert "# note = x" in meta
    header = lines[len(meta)]
    assert header.split(",")[0] == "omega"
    assert "V_a1_b1" in header and "su_a1_b1" in header
    rows = lines[len(meta) + 1:]
    assert len(rows) == spec_small.omegas.size
    # 17 significant digits round-trip exactly
    first = rows[0].split(",")
    assert float(first[0]) == spec_small.omegas[0]
    assert float(first[1]) == spec_small.values[("a1", "b1")][0]


def test_write_csv_file(tmp_path, spec_small):
    path = tmp_path / "spec.csv"
    sweeps.write_csv(spec_small, str(path))
    text = path.read_text()
    assert text.endswith("\n")
    assert text == "\n".join(sweeps.csv_lines(spec_small)) + "\n"


def test_summary_payload_keys(spec_small):
    payload = sweeps.summary_payload(spec_small)
    assert set(payload) == {"version", "params", "derived", "config",
                            "axis", "dips", "signs", "calibration",
                            "curves"}
    assert payload["config"]["params_hash"] == spec_small.params_hash
    assert payload["axis"] == "omega"
    assert len(payload["curves"]["omega"]) == spec_small.omegas.size
    assert len(payload["curves"]["a1_b1"]) == spec_small.omegas.size
    assert tuple(payload["signs"]["a1_b1"]) == (1, -1)


def test_write_json_round_trip(tmp_path, spec_small):
    import json
    path = tmp_path / "spec.json"
    sweeps.write_json(sweeps.summary_payload(spec_small), str(path))
    loaded = json.loads(path.read_text())
    assert loaded["config"]["coupling"] == "parametric"
    assert loaded["curves"]["a1_b1"][0] == pytest.approx(
        spec_small.values[("a1", "b1")][0], rel=1e-15)


def test_sweep_gamma0_axis(ref):
    spec = sweeps.sweep_gamma0(ref, [0.01, 0.1, 1.0], omega=0.0)
    assert spec.axis == "gamma0"
    v = spec.values[("a1", "b1")]
    assert v.shape == (3,)
    assert np.all(np.isfinite(v)) and np.all(v > 0)


def test_sweep_alpha_values_do_not_move(ref):
    spec = sweeps.sweep_alpha(ref, [0.0, 250.0, 1000.0], omega=ref.delta1)
    assert spec.axis == "alpha"
    for pair in spec.pairs:
        v = spec.values[pair]
        assert np.max(v) - np.min(v) == 0.0
