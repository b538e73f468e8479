"""Grid construction, sweep determinism, dip reports, serialization."""

import dataclasses
import importlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eitfwm import entanglement as en
from eitfwm import propagation as pr
from eitfwm import sweeps
from eitfwm import verification
from eitfwm.params import ValidationError, derive
from eitfwm.steady_state import DegenerateSteadyStateError, solve

# the package exports a function of the same name as the module
ss_mod = importlib.import_module("eitfwm.steady_state")


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


def test_sweeps_set_up_the_drift_once_per_block(ref, monkeypatch):
    # a frequency sweep shares one set-up; a parameter block stacks the
    # set-ups of its points
    calls = []
    real = pr.drift_rows

    def counted(states, *args, **kwargs):
        calls.append(len(states))
        return real(states, *args, **kwargs)

    monkeypatch.setattr(pr, "drift_rows", counted)
    sweeps.sweep_omega(ref, np.array([-1500.0, -1000.0, 0.0]))
    assert calls == [1]
    sweeps.sweep_gamma0(ref, np.array([0.01, 0.1]), omega=0.0)
    assert calls == [1, 2]


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
    set_up, _ = sweeps._set_up([p], cfg)
    m, *_ = en.assemble(set_up, [omega], p.length, cfg.coupling,
                        cfg.sideband, cfg.spinwave_definition)
    return m[0]


def _alone(p, ss, two_d, cfg, omega):
    """(values, signs) of every pair of ``cfg`` at one point evaluated
    alone: a block of one point with its own set-up, from its steady
    state ``ss`` and diffusion table ``two_d``, stacks of one."""
    modes = cfg.modes(p)
    set_up = en.witness_set_up([p], ss, two_d, modes, [derive(p)])
    quad = en.extended_quadratures(set_up, [omega], p.length, cfg.coupling,
                                   cfg.sideband, cfg.spinwave_definition)
    return {pair: en.pair_witness(quad, en.extended_labels(modes), pair)
            for pair in cfg.pairs()}


def _small_blocks(monkeypatch, cfg, p, points=4, stack=None):
    """Shrink the sweep blocks of this configuration to ``points``
    points, doubled in kernel sub-stacks of at most ``stack`` matrices
    (default: the whole block)."""
    dim = _drift(p, cfg, 0.0).shape[-1]
    monkeypatch.setattr(sweeps, "MIN_BLOCK_POINTS", points)
    monkeypatch.setattr(pr, "BLOCK_ENTRIES", (stack or points) * dim * dim)


def _stage_count(m, length):
    """Doubling stage count of a drift, as the kernel chooses it."""
    norm = np.linalg.norm(m, 1) * length
    return max(0, int(np.ceil(np.log2(norm / 2.0 ** -10))))


#: every model switch the block sweeps are checked under
BLOCK_CONFIGS = pytest.mark.parametrize("cfg", [
    sweeps.SweepConfig(),
    sweeps.SweepConfig(two_pair=True),
    sweeps.SweepConfig(spinwave_definition="z-averaged"),
    sweeps.SweepConfig(spinwave_definition="z-averaged", two_pair=True),
    sweeps.SweepConfig(sideband="same"),
    sweeps.SweepConfig(coupling="as_printed"),
], ids=["endpoint", "two_pair", "z_averaged", "z_averaged_two_pair",
        "same_sideband", "as_printed"])


def _recorded_sub_stacks(monkeypatch):
    """The list that records, for every transfer, the list of its kernel
    sub-stacks, each as the list of its matrices' stage counts."""
    transfers = []
    real_transfer, real_doubling = pr.second_moment_transfer_stack, \
        pr._doubling

    def transfer(m, *args, **kwargs):
        transfers.append([])
        return real_transfer(m, *args, **kwargs)

    def doubling(m, g, length, ks):
        transfers[-1].append(ks.tolist())
        return real_doubling(m, g, length, ks)

    monkeypatch.setattr(pr, "second_moment_transfer_stack", transfer)
    monkeypatch.setattr(pr, "_doubling", doubling)
    return transfers


@BLOCK_CONFIGS
def test_block_sweep_equals_one_point_calls(ref, monkeypatch, cfg):
    ss, two_d = solve([ref])
    alone = [_alone(ref, ss, two_d, cfg, om) for om in BLOCK_GRID]
    stages = {_stage_count(_drift(ref, cfg, om), ref.length)
              for om in BLOCK_GRID}
    # blocks of 4, 4, 4 and 1 points, each doubled whole, then blocks of
    # 8 and 5 points, each doubled in several sub-stacks of at most 2;
    # the blocks mix stage counts
    assert len(stages) >= 3
    for points, stack, n_blocks in [(4, None, 4), (8, 2, 2)]:
        with monkeypatch.context() as patch:
            _small_blocks(patch, cfg, ref, points, stack)
            blocks = _recorded_sub_stacks(patch)
            spec = sweeps.sweep_omega(ref, BLOCK_GRID, cfg)
        assert len(blocks) == n_blocks
        assert sum(len(ks) for subs in blocks for ks in subs) \
            == len(BLOCK_GRID)
        # sorted by stage count, descending, through all sub-stacks of
        # a block; some sub-stack mixes stage counts
        assert all(sum(subs, []) == sorted(sum(subs, []), reverse=True)
                   for subs in blocks)
        assert any(len(set(ks)) > 1 for subs in blocks for ks in subs)
        if stack:
            assert all(len(ks) <= stack for subs in blocks for ks in subs)
        for i, om in enumerate(BLOCK_GRID):
            for pair in spec.pairs:
                (value,), (signs,) = alone[i][pair]
                assert spec.values[pair][i] == value, (om, pair, points)
                assert spec.signs[pair][i] == signs, (om, pair, points)


@BLOCK_CONFIGS
def test_block_param_sweep_equals_one_point_calls(ref, monkeypatch, cfg):
    # blocks of 4, 4 and 1 points, each with one stacked set-up
    _small_blocks(monkeypatch, cfg, ref)
    gamma0s = np.logspace(-2.0, 3.0, 9)
    spec = sweeps.sweep_gamma0(ref, gamma0s, omega=0.0, config=cfg)
    for i, g0 in enumerate(gamma0s):
        q = ref.with_(gamma0=float(g0))
        alone = _alone(q, *solve([q]), cfg, 0.0)
        for pair in spec.pairs:
            (value,), (signs,) = alone[pair]
            assert spec.values[pair][i] == value, (g0, pair)
            assert spec.signs[pair][i] == signs, (g0, pair)


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


#: the z-averaged two-pair configuration under each sideband convention
Z_TWO_PAIR = sweeps.SweepConfig(spinwave_definition="z-averaged",
                                two_pair=True)
Z_TWO_PAIR_SAME = dataclasses.replace(Z_TWO_PAIR, sideband="same")


def test_overflow_in_a_second_sub_stack_names_its_frequency_and_index(
        ref, monkeypatch):
    # one block of 8 points in sub-stacks of 2.  The stage counts are
    # 20, 22, 22, 22, 19, 20, 21, 22, doubled by count, descending:
    # 1250 MHz (index 3) overflows in the second sub-stack, with index 7,
    # and -3000 MHz (index 4, stage 19) in the last one, with index 0;
    # grid order decides
    _small_blocks(monkeypatch, Z_TWO_PAIR_SAME, ref, 8, 2)
    transfers = _recorded_sub_stacks(monkeypatch)
    grid = np.array([0.0, 700.0, 800.0, 1250.0, -3000.0, 250.0, 500.0,
                     750.0])
    with pytest.raises(pr.NumericalOverflowError,
                       match=r"^transfer gain .* at omega = 1250 MHz$") as exc:
        sweeps.sweep_omega(ref, grid, Z_TWO_PAIR_SAME)
    assert exc.value.index == 3
    assert transfers == [[[22, 22], [22, 22], [21, 20], [20, 19]]]


def test_vanishing_response_after_several_sub_stacks_names_its_index(
        ref, monkeypatch):
    # one block of 8 points in sub-stacks of 2: the response vanishes at
    # 0 MHz (index 5), so the block is cut there and its first 5 points,
    # all of stage count 20, are doubled in 3 sub-stacks before it
    _small_blocks(monkeypatch, Z_TWO_PAIR, ref, 8, 2)
    transfers = _recorded_sub_stacks(monkeypatch)
    grid = np.array([-500.0, -400.0, -300.0, -200.0, -100.0, 0.0, 100.0,
                     200.0])
    with pytest.raises(pr.NumericalOverflowError,
                       match=r"^coherence response .* vanishes at "
                             r"omega = 0 MHz$") as exc:
        sweeps.sweep_omega(ref.with_(gamma0=0.0), grid, Z_TWO_PAIR)
    assert exc.value.index == 5
    assert transfers == [[[20, 20], [20, 20], [20]]]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_verify_pass_doubles_each_transfer_in_one_sub_stack(
        ref, monkeypatch):
    # the checks of a verify pass, with the 2000 oracle steps of the
    # benchmark (RK4 overflows at 1000 MHz): 8 transfers of at most 64
    # matrices, each one kernel call, some of them mixing stage counts
    transfers = _recorded_sub_stacks(monkeypatch)
    (verification.check_commutators(ref)
     + verification.check_oracle_equivalence(ref, n_steps=2000)
     + verification.check_limits(ref))
    assert [len(subs) for subs in transfers] == [1] * 8
    assert any(len(set(ks)) > 1 for (ks,) in transfers)


#: traced peak of one full two-pair z-averaged block, 48 points of 18x18
#: doubled in sub-stacks of 12, as measured with numpy 2.4 (a block of
#: 12 points, doubled whole, peaked at 1.31 MB before the sub-stacks)
Z_TWO_PAIR_BLOCK_PEAK = 1_727_000


def test_a_z_averaged_two_pair_block_keeps_its_working_memory(ref):
    dim = en.state_dim(4, "z-averaged")
    size = max(sweeps.MIN_BLOCK_POINTS, pr.BLOCK_ENTRIES // dim ** 2)
    grid = sweeps.fig_two_pair_grid(ref)[:size]
    # the first call pays one-off allocations of numpy's linear algebra
    sweeps.sweep_omega(ref, grid, Z_TWO_PAIR)
    tracemalloc.start()
    try:
        sweeps.sweep_omega(ref, grid, Z_TWO_PAIR)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * Z_TWO_PAIR_BLOCK_PEAK, peak


def test_overflow_precedes_a_later_set_up_failure(ref):
    # gamma0 = -1 fails validation, which runs before any steady state is
    # solved; the point before it overflows in the kernel and is reported
    cfg = sweeps.SweepConfig(sideband="same")
    with pytest.raises(pr.NumericalOverflowError, match=r"gamma0 = 0\.1$"):
        sweeps.sweep_gamma0(ref, [0.1, -1.0], omega=-2000.0, config=cfg)


@pytest.mark.parametrize("gamma0s,error,where", [
    ([0.1, -1.0], ValidationError, r"^non-physical parameter\(s\): gamma0, "
                                   r"gamma0 = -1$"),
    ([0.1, float("nan")], ValidationError, r"gamma0, gamma0 = nan$"),
    # a dephasing of 1e300 leaves every other singular value of the drift
    # below the null-space cut
    ([0.1, 0.2, 1e300], DegenerateSteadyStateError,
     r"^stationary subspace has dimension 7, gamma0 = 1e\+300$"),
    ([1e300, -1.0], DegenerateSteadyStateError, r"gamma0 = 1e\+300$"),
    # the point after the failing one shares the first point's solve
    ([0.1, 1e300, 0.1, -1.0], DegenerateSteadyStateError,
     r"^stationary subspace has dimension 7, gamma0 = 1e\+300$"),
], ids=["negative", "nan", "degenerate", "degenerate_before_invalid",
        "degenerate_between_repeats"])
def test_set_up_failure_names_the_swept_value(ref, gamma0s, error, where):
    with pytest.raises(error, match=where):
        sweeps.sweep_gamma0(ref, gamma0s, omega=0.0)


def test_set_up_failure_in_a_later_block_is_reported_in_grid_order(
        ref, monkeypatch):
    # blocks of 2 points: the degenerate point is the second of the
    # second block, the invalid one opens the third
    _small_blocks(monkeypatch, sweeps.SweepConfig(), ref, 2)
    gamma0s = [0.1, 0.2, 0.3, 1e300, -1.0]
    with pytest.raises(DegenerateSteadyStateError,
                       match=r"gamma0 = 1e\+300$"):
        sweeps.sweep_gamma0(ref, gamma0s, omega=0.0)
    # the kernel overflows at the first point, before either failure
    with pytest.raises(pr.NumericalOverflowError, match=r"gamma0 = 0\.1$"):
        sweeps.sweep_gamma0(ref, gamma0s, omega=-2000.0,
                            config=sweeps.SweepConfig(sideband="same"))


def _evaluated(monkeypatch):
    """The list that records the point count of every witness
    evaluation."""
    evaluated = []
    real = en.extended_quadratures

    def recorded(set_up, omegas, *args, **kwargs):
        evaluated.append(len(omegas))
        return real(set_up, omegas, *args, **kwargs)

    monkeypatch.setattr(en, "extended_quadratures", recorded)
    return evaluated


def test_repeated_failing_point_in_a_later_block_is_reported_in_grid_order(
        ref, monkeypatch):
    # blocks of 4 distinct points: the first block holds 0.1, 0.2, 0.5
    # and the first degenerate point, so it evaluates 3 points and fails;
    # the repeats are never evaluated again, and the later degenerate
    # point, whose generator key has the lower bytes, is not named
    _small_blocks(monkeypatch, sweeps.SweepConfig(), ref)
    evaluated = _evaluated(monkeypatch)
    gamma0s = [0.1, 0.2, 0.1, 0.2, 0.5, 1e299, 0.5, 1e300, 1e299, -1.0]
    with pytest.raises(DegenerateSteadyStateError,
                       match=r"^stationary subspace has dimension 7, "
                             r"gamma0 = 1e\+299$"):
        sweeps.sweep_gamma0(ref, gamma0s, omega=0.0)
    assert evaluated == [3]


def test_a_parameter_sweep_evaluates_each_distinct_point_once(
        ref, monkeypatch):
    # the amplitude never reaches a witness: fig5's 101 points are one
    # evaluation, while fig4's 101 dephasings are 101
    evaluated = _evaluated(monkeypatch)
    sweeps.sweep_alpha(ref, sweeps.fig_alpha_grid(), omega=ref.delta1)
    assert evaluated == [1]
    sweeps.sweep_gamma0(ref, sweeps.fig_gamma0_grid(), omega=0.0)
    assert evaluated == [1, 101]


@BLOCK_CONFIGS
def test_repeated_points_take_the_one_point_result(ref, monkeypatch, cfg):
    # blocks of 2 distinct points: 0.1, 0.2 and then 0.3
    _small_blocks(monkeypatch, cfg, ref, 2)
    evaluated = _evaluated(monkeypatch)
    gamma0s = [0.1, 0.2, 0.1, 0.3, 0.2]
    spec = sweeps.sweep_gamma0(ref, gamma0s, omega=-800.0, config=cfg)
    assert evaluated == [2, 1]
    assert spec.omegas.tolist() == gamma0s
    for i, g0 in enumerate(gamma0s):
        q = ref.with_(gamma0=g0)
        alone = _alone(q, *solve([q]), cfg, -800.0)
        for pair in spec.pairs:
            (value,), (signs,) = alone[pair]
            assert spec.values[pair][i].tobytes() == value.tobytes(), \
                (g0, pair)
            assert spec.signs[pair][i] == signs, (g0, pair)


@pytest.mark.parametrize("sweep,error,where", [
    # the degenerate key first occurs in the second block of 2 distinct
    # points and again in the last 2 points of the grid
    (lambda p, cfg: sweeps.sweep_gamma0(
        p, [0.1, 0.2, 0.1, 1e299, 0.3, 0.2, 1e300, 1e299], omega=0.0),
     DegenerateSteadyStateError,
     r"^stationary subspace has dimension 7, gamma0 = 1e\+299$"),
    # every amplitude shares the one failing key: the first one is named
    (lambda p, cfg: sweeps.sweep_alpha(p.with_(gamma0=1e300),
                                       [5.0, 7.0, 5.0, 9.0], omega=0.0),
     DegenerateSteadyStateError, r"dimension 7, alpha = 5$"),
    (lambda p, cfg: sweeps.sweep_alpha(p, [3.0, 4.0, 3.0], omega=-2000.0,
                                       config=cfg),
     pr.NumericalOverflowError, r"at omega = -2000 MHz, alpha = 3$"),
    (lambda p, cfg: sweeps.sweep_alpha(p.with_(gamma0=0.0),
                                       [-0.0, 2.0, -1.0, 0.0], omega=0.0),
     pr.NumericalOverflowError,
     r"^coherence response .* vanishes at omega = 0 MHz, alpha = -0$"),
], ids=["gamma0", "alpha_set_up", "alpha_overflow", "alpha_vanishing"])
def test_a_failing_key_is_named_at_its_first_point(ref, monkeypatch, sweep,
                                                   error, where):
    _small_blocks(monkeypatch, sweeps.SweepConfig(), ref, 2)
    cfg = sweeps.SweepConfig(sideband="same")
    with pytest.raises(error, match=where):
        sweep(ref, cfg)


@pytest.mark.parametrize("points", [2, None], ids=["blocks_of_2", "default"])
def test_an_overflow_before_a_repeated_set_up_failure_wins(ref, monkeypatch,
                                                           points):
    # the invalid and the degenerate key both come after the first
    # overflowing point, and the overflowing key recurs after them
    if points:
        _small_blocks(monkeypatch, sweeps.SweepConfig(sideband="same"), ref,
                      points)
    cfg = sweeps.SweepConfig(sideband="same")
    with pytest.raises(pr.NumericalOverflowError,
                       match=r"at omega = -2000 MHz, gamma0 = 0\.2$"):
        sweeps.sweep_gamma0(ref, [0.2, 1e300, 0.2, -1.0, 0.2],
                            omega=-2000.0, config=cfg)


def test_witness_keys_hold_bits_and_leave_out_the_amplitudes(ref):
    # 0.0 == -0.0, but a key holds bits, in a field as in the frequency
    assert sweeps.witness_key(ref, 0.0) != sweeps.witness_key(ref, -0.0)
    assert sweeps.witness_key(ref.with_(gamma0=0.0), 0.0) \
        != sweeps.witness_key(ref.with_(gamma0=-0.0), 0.0)
    assert sweeps.witness_key(ref.with_(alpha1=-0.0, alpha2=1e300), 5.0) \
        == sweeps.witness_key(ref, 5.0)
    for name in sweeps.WITNESS_FIELDS:
        moved = ref.with_(**{name: getattr(ref, name) * 2.0 + 1.0})
        assert sweeps.witness_key(moved, 5.0) \
            != sweeps.witness_key(ref, 5.0), name
    assert set(sweeps.WITNESS_FIELDS) == {
        f.name for f in dataclasses.fields(ref)} - {"alpha1", "alpha2"}


def test_signed_zero_dephasings_are_evaluated_apart(ref, monkeypatch):
    evaluated = _evaluated(monkeypatch)
    spec = sweeps.sweep_gamma0(ref, [0.0, -0.0, 0.0], omega=-800.0)
    assert evaluated == [2]
    assert [np.copysign(1.0, g) for g in spec.omegas] == [1.0, -1.0, 1.0]


def _generator_calls(monkeypatch):
    """The list that records the point count of every generator call."""
    calls = []
    real = ss_mod.apply_generator

    def counted(p, op):
        calls.append(len(p))
        return real(p, op)

    monkeypatch.setattr(ss_mod, "apply_generator", counted)
    return calls


def test_parameter_sweep_builds_its_set_ups_in_blocks(ref, monkeypatch):
    # one block of 101 points (of 4x4 matrices): one generator call gives
    # the Bloch drifts, and with them the diffusion tables
    calls = _generator_calls(monkeypatch)
    sweeps.sweep_gamma0(ref, sweeps.fig_gamma0_grid(), omega=0.0)
    assert calls == [101]


def test_a_block_solves_each_generator_point_once(ref, monkeypatch):
    # the coherent amplitude never reaches the generator: the 101 points
    # of the amplitude sweep share one steady state and diffusion table
    calls = _generator_calls(monkeypatch)
    sweeps.sweep_alpha(ref, sweeps.fig_alpha_grid(), omega=ref.delta1)
    assert calls == [1]


def _assert_set_ups_equal_one_point_set_ups(points, cfg, alone_points=None):
    """The set-up of ``points`` against the one-point set-up of each
    point, or of the same place of ``alone_points``, field by field, by
    bytes."""
    block, error = sweeps._set_up(points, cfg)
    assert error is None
    for i, q in enumerate(alone_points or points):
        alone, _ = sweeps._set_up([q], cfg)
        for field in dataclasses.fields(alone):
            ref_value = getattr(alone, field.name)
            value = getattr(block, field.name)
            if isinstance(ref_value, np.ndarray):
                value = value[i:i + 1]
                assert value.dtype == ref_value.dtype, field.name
                assert value.shape == ref_value.shape, field.name
                assert value.tobytes() == ref_value.tobytes(), field.name
            else:
                assert value == ref_value, field.name


@pytest.mark.parametrize("cfg", [sweeps.SweepConfig(),
                                 sweeps.SweepConfig(two_pair=True)],
                         ids=["single_pair", "two_pair"])
def test_repeated_generator_points_share_a_solve(ref, monkeypatch, cfg):
    points = [ref.with_(gamma0=g0, alpha1=a1, coupling_scale=eta)
              for g0, a1, eta in [(0.1, 0.0, 1.0), (0.2, 5.0, 0.5),
                                  (0.1, 7.0, 2.0), (0.3, 1.0, 1.0),
                                  (0.2, 1.0, 3.0)]]
    calls = _generator_calls(monkeypatch)
    sweeps._set_up(points, cfg)
    assert calls == [3]
    _assert_set_ups_equal_one_point_set_ups(points, cfg)


@pytest.mark.parametrize("cfg", [
    sweeps.SweepConfig(),
    sweeps.SweepConfig(two_pair=True),
    sweeps.SweepConfig(spinwave_definition="z-averaged"),
    Z_TWO_PAIR,
], ids=["endpoint", "two_pair", "z_averaged", "z_averaged_two_pair"])
@settings(deadline=None, max_examples=20)
@given(amplitudes=st.lists(
    st.tuples(st.floats(allow_nan=False, allow_infinity=False),
              st.floats(allow_nan=False, allow_infinity=False)),
    min_size=1, max_size=3))
def test_amplitudes_never_reach_a_set_up(ref, cfg, amplitudes):
    # the premise of witness_key: whatever the coherent amplitudes, the
    # set-up, which is all a witness point reads besides its frequency
    # and the sweep's cell length, has the bytes of the reference point's
    points = [ref.with_(alpha1=a1, alpha2=a2) for a1, a2 in amplitudes]
    _assert_set_ups_equal_one_point_set_ups(points, cfg,
                                            [ref] * len(points))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_verify_propagates_each_coherent_amplitude(ref, monkeypatch):
    # the checks keep their own stacks: the amplitude check still sends
    # its three amplitudes to the kernel, between the pump-off limit's 3
    # frequencies and the symplectic check's 64
    sizes = []
    real = pr.second_moment_transfer_stack

    def counted(m, *args, **kwargs):
        sizes.append(len(m))
        return real(m, *args, **kwargs)

    monkeypatch.setattr(pr, "second_moment_transfer_stack", counted)
    reports = verification.check_limits(ref)
    assert sizes == [3, 3, 64]
    (amplitude,) = [r for r in reports
                    if r.name == "limit_input_amplitude_independence"]
    assert amplitude.residual == 0.0


def test_signed_zero_dephasings_are_solved_apart(ref, monkeypatch):
    # 0.0 == -0.0, but the generator key holds bits
    points = [ref.with_(gamma0=0.0), ref.with_(gamma0=-0.0)]
    calls = _generator_calls(monkeypatch)
    sweeps._set_up(points, sweeps.SweepConfig())
    assert calls == [2]
    _assert_set_ups_equal_one_point_set_ups(points, sweeps.SweepConfig())


@pytest.mark.parametrize("sweep,where", [
    (lambda p, cfg: sweeps.sweep_omega(p.with_(gamma0=0.0),
                                       np.array([-2000.0, 0.0]), cfg),
     r"^transfer gain .* at omega = -2000 MHz$"),
    (lambda p, cfg: sweeps.sweep_omega(p.with_(gamma0=0.0),
                                       np.array([0.0, -2000.0]), cfg),
     r"^coherence response .* vanishes at omega = 0 MHz$"),
    (lambda p, cfg: sweeps.sweep_gamma0(p, [0.1, 0.0, -1.0], omega=0.0),
     r"^coherence response .* vanishes at omega = 0 MHz, gamma0 = 0$"),
    # a response of 1e-300 leaves the extended covariance non-finite
    (lambda p, cfg: sweeps.sweep_gamma0(p, [0.1, 1e-300, 0.0], omega=0.0),
     r"^extended covariance is not finite at omega = 0 MHz, "
     r"gamma0 = 1e-300$"),
], ids=["overflow_first", "vanishing_first", "gamma0", "not_finite_first"])
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


#: doubles whose text is easy to get wrong: signed zeros, infinities, nan,
#: the subnormal and normal extremes, and 17-digit round-trip cases
SPECIAL_DOUBLES = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                   2.225073858507201e-308, 2.2250738585072014e-308,
                   np.finfo(float).max, -np.finfo(float).max, 0.1, 1e16,
                   1e17, 123456789012345680.0, 1.0000000000000002, -1.0,
                   9007199254740993.0, 1e-7, 1e21, 1e22]


def test_row_format_is_the_metadata_format():
    # csv_lines formats a whole row with one "%" string
    rng = np.random.default_rng(7)
    doubles = SPECIAL_DOUBLES + rng.standard_normal(500).tolist() + (
        rng.integers(0, 2 ** 64, 500, dtype=np.uint64)
        .view(np.float64).tolist())
    for x in doubles:
        assert "%.17g" % x == sweeps.fmt_float(x), x
    for sign in (1, -1, True):
        assert "%d" % sign == str(int(sign))


def test_csv_rows_format_every_cell_as_before(ref):
    # a row is the 17-digit text of each value and the integer text of
    # each sign, joined by commas, for special values too
    pair = ("a1", "b1")
    spec = _synthetic(SPECIAL_DOUBLES, SPECIAL_DOUBLES[::-1], ref)
    spec.signs[pair] = [(1, -1), (-1, 1)] * (len(SPECIAL_DOUBLES) // 2) \
        + [(1, -1)]
    rows = sweeps.csv_lines(spec)[-len(SPECIAL_DOUBLES):]
    expected = [",".join([sweeps.fmt_float(om), sweeps.fmt_float(v),
                          str(int(su)), str(int(sv))])
                for om, v, (su, sv) in zip(spec.omegas, spec.values[pair],
                                           spec.signs[pair])]
    assert rows == expected


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
