"""The stacked single-atom generator against its per-operator form.

The reference functions below are the operator-by-operator loops and
the one-point scipy null-space solve the stacked code replaced, kept
verbatim as the oracle.  Every product in the set-up involves a matrix
unit and is exact, and numpy's stacked SVD runs the same LAPACK routine
point by point as scipy's, so the stacked Bloch drift, steady state and
diffusion table must match them byte for byte, for one parameter point
and for a stack of them, failures included.
"""

import dataclasses
import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import null_space

from eitfwm import cli, entanglement, langevin, sweeps
from eitfwm.params import derive, reference_params
from eitfwm.steady_state import BASIS, _unit, hamiltonian

# the package exports a function of the same name as the module
ss_mod = importlib.import_module("eitfwm.steady_state")


def reference_apply_generator(p, op):
    h = hamiltonian(p)
    out = 1j * (h @ op - op @ h)
    for rate, lower in ((p.gamma1, 1), (p.gamma2, 2)):
        l_op = _unit(lower, 3)
        ldag_l = _unit(3, 3)
        out += rate * (l_op.conj().T @ op @ l_op
                       - 0.5 * (ldag_l @ op + op @ ldag_l))
    deph = np.zeros((3, 3), dtype=complex)
    deph[0, 1] = op[0, 1]
    deph[1, 0] = op[1, 0]
    out -= p.gamma0 * deph
    return out


def reference_bloch_drift(p):
    a = np.zeros((9, 9), dtype=complex)
    for row, (c, d) in enumerate(BASIS):
        img = reference_apply_generator(p, _unit(c, d))
        a[row, :] = img.reshape(-1)
    return a


def reference_stationary(a):
    # a drift beyond float range is a numerical failure of its point;
    # null_space's own finiteness check would raise a bare ValueError
    if not np.all(np.isfinite(a)):
        raise ss_mod.DegenerateSteadyStateError("Bloch drift is not finite")
    ns = null_space(a, rcond=1e-10)
    if ns.shape[1] == 0:
        raise ss_mod.DegenerateSteadyStateError("no stationary state found")
    if ns.shape[1] > 1:
        raise ss_mod.DegenerateSteadyStateError(
            f"stationary subspace has dimension {ns.shape[1]}")
    vec = ns[:, 0]
    m = vec.reshape(3, 3)
    tr = np.trace(m)
    if abs(tr) < 1e-12:
        raise ss_mod.DegenerateSteadyStateError("traceless null vector")
    m = m / tr
    m = 0.5 * (m + m.conj().T)  # enforce Hermiticity of <sigma_ab>
    dm = ss_mod.DensityMatrix3(matrix=m)
    dm.check(tol=1e-8)
    return dm


def reference_steady_state(p):
    return reference_stationary(reference_bloch_drift(p))


def _reference_states(points):
    """The reference states up to the first point that has none, and the
    failure of that point (None if every point has a state)."""
    states = []
    for p in points:
        try:
            states.append(reference_steady_state(p))
        except (ss_mod.DegenerateSteadyStateError, ValueError) as exc:
            return states, exc
    return states, None


def _expval(op, ss):
    return complex(np.sum(op * ss.matrix))


def reference_diffusion_matrix(p, ss):
    ops = [_unit(a, b) for (a, b) in langevin.CHANNELS]
    drifts = [reference_apply_generator(p, op) for op in ops]
    d = np.zeros((6, 6), dtype=complex)
    for i, (op_i, dr_i) in enumerate(zip(ops, drifts)):
        for j, (op_j, dr_j) in enumerate(zip(ops, drifts)):
            prod = op_i @ op_j
            val = _expval(reference_apply_generator(p, prod), ss)
            val -= _expval(dr_i @ op_j, ss)
            val -= _expval(op_i @ dr_j, ss)
            d[i, j] = val
    return d


#: rates and drives from 1e-3 to 1e3 MHz, log-uniform
_RATE = st.floats(-3.0, 3.0).map(lambda x: 10.0 ** x)


@settings(deadline=None, max_examples=150)
@given(gamma1=_RATE, gamma2=_RATE,
       gamma0=st.one_of(st.just(0.0), _RATE),
       omega_p=_RATE, omega_c=_RATE)
def test_set_up_is_byte_identical_to_the_per_operator_loops(
        gamma1, gamma2, gamma0, omega_p, omega_c):
    p = reference_params().with_(gamma1=gamma1, gamma2=gamma2,
                                 gamma0=gamma0, omega_p=omega_p,
                                 omega_c=omega_c)
    assert ss_mod.bloch_drift(p).tobytes() == \
        reference_bloch_drift(p).tobytes()
    try:
        ref_ss = reference_steady_state(p)
    except (ss_mod.DegenerateSteadyStateError, ValueError) as exc:
        ref_ss = exc
    if isinstance(ref_ss, Exception):
        try:
            ss_mod.steady_state(p)
        except type(ref_ss):
            return
        raise AssertionError(f"reference raised {ref_ss!r}, stacked did not")
    ss = ss_mod.steady_state(p)
    assert ss.matrix.tobytes() == ref_ss.matrix.tobytes()
    assert langevin.diffusion_matrix(p, ss).tobytes() == \
        reference_diffusion_matrix(p, ss).tobytes()


@settings(deadline=None, max_examples=50)
@given(seed=st.integers(0, 2 ** 32 - 1),
       shape=st.sampled_from([(1,), (4,), (2, 3), (6, 6)]),
       gamma0=st.one_of(st.just(0.0), _RATE), omega_p=_RATE, omega_c=_RATE)
def test_stacked_generator_equals_per_operator_calls(seed, shape, gamma0,
                                                     omega_p, omega_c):
    p = reference_params().with_(gamma0=gamma0, omega_p=omega_p,
                                 omega_c=omega_c)
    rng = np.random.default_rng(seed)
    ops = (rng.standard_normal(shape + (3, 3))
           + 1j * rng.standard_normal(shape + (3, 3)))
    stacked = ss_mod.apply_generator(p, ops)
    assert stacked.shape == ops.shape
    for idx in np.ndindex(*shape):
        assert stacked[idx].tobytes() == \
            ss_mod.apply_generator(p, ops[idx]).tobytes()
        assert stacked[idx].tobytes() == \
            reference_apply_generator(p, ops[idx]).tobytes()


_POINT = st.fixed_dictionaries({
    "gamma1": _RATE, "gamma2": _RATE,
    "gamma0": st.one_of(st.just(0.0), _RATE),
    "omega_p": _RATE, "omega_c": _RATE})


@settings(deadline=None, max_examples=100)
@given(changes=st.lists(_POINT, min_size=1, max_size=40),
       config=st.sampled_from([sweeps.SweepConfig(),
                               sweeps.SweepConfig(two_pair=True)]))
def test_stacked_set_ups_are_byte_identical_to_the_per_operator_loops(
        changes, config):
    points = [reference_params().with_(**c) for c in changes]
    drifts = ss_mod.bloch_drift(points)
    assert drifts.shape == (len(points), 9, 9)
    for a, p in zip(drifts, points):
        assert a.tobytes() == reference_bloch_drift(p).tobytes()
    ref_states, failure = _reference_states(points)
    # the block set-up covers the points before the failing one, and
    # reports its failure
    block, error = sweeps._set_up(points, config)
    if failure is None:
        assert error is None
    else:
        assert type(error) is type(failure)
        assert str(error) == str(failure)
        try:
            ss_mod.steady_state(points)
        except type(failure) as exc:
            assert str(exc) == str(failure)
            assert exc.index == len(ref_states)
        else:
            raise AssertionError(f"reference raised {failure!r}, "
                                 "stacked did not")
        points = points[:len(ref_states)]
        if not points:
            assert block is None
            return
    states = ss_mod.steady_state(points)
    tables = langevin.diffusion_matrix(points, states)
    assert tables.shape == (len(points), 6, 6)
    ref_tables = [reference_diffusion_matrix(p, ss)
                  for p, ss in zip(points, ref_states)]
    for ss, ref_ss, two_d, ref_two_d in zip(states, ref_states, tables,
                                           ref_tables):
        assert ss.matrix.tobytes() == ref_ss.matrix.tobytes()
        assert two_d.tobytes() == ref_two_d.tobytes()
    # each point's slice of the block set-up against a one-point set-up
    # of the reference state and table
    for i, (p, ss, two_d) in enumerate(zip(points, ref_states, ref_tables)):
        reference = entanglement.witness_set_up(
            [p], [ss], two_d[None], config.modes(p), [derive(p)])
        for field in dataclasses.fields(reference):
            ref_value = getattr(reference, field.name)
            value = getattr(block, field.name)
            if isinstance(ref_value, np.ndarray):
                value = value[i:i + 1]
                assert value.dtype == ref_value.dtype, field.name
                assert value.shape == ref_value.shape, field.name
                assert value.tobytes() == ref_value.tobytes(), field.name
            else:
                assert value == ref_value, field.name


def _assert_stack_matches_reference(points):
    """The stacked solve of ``points`` against the one-point reference
    solves in turn: the same bytes up to the first failing point, and
    there the same error type, message and position."""
    ref_states, failure = _reference_states(points)
    try:
        states = ss_mod.steady_state(points)
    except (ss_mod.DegenerateSteadyStateError, ValueError) as exc:
        assert failure is not None, f"stacked raised {exc!r}"
        assert type(exc) is type(failure)
        assert str(exc) == str(failure)
        assert exc.index == len(ref_states)
        states = ss_mod.steady_state(points[:exc.index])
    else:
        assert failure is None, f"reference raised {failure!r}"
    assert len(states) == len(ref_states)
    for ss, ref_ss in zip(states, ref_states):
        assert ss.matrix.tobytes() == ref_ss.matrix.tobytes()


_REF = reference_params()
_DEGENERATE = _REF.with_(omega_p=0.0, omega_c=0.0)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("points", [
    [_REF.with_(gamma0=float(g)) for g in sweeps.fig_gamma0_grid()],
    [_REF.with_(alpha1=float(a)) for a in sweeps.fig_alpha_grid()],
    [_REF] * 3 + [_DEGENERATE] + [_REF] * 3,
    [_DEGENERATE, _REF],
    [_REF, _REF.with_(omega_c=1.7e308), _REF],
    # population decay beyond float range: a drift that is not finite
    [_REF, _REF.with_(gamma1=1.7e308, gamma2=1.7e308), _DEGENERATE],
    [_REF, _DEGENERATE, _REF.with_(gamma1=1.7e308, gamma2=1.7e308)],
    # weak drives put the pumping singular value at 9.1e-10, 2.3e-10
    # and 8.2e-11 of the largest: across the 1e-10 rank cut
    [_REF.with_(omega_p=w, omega_c=w) for w in (1e-4, 5e-5, 3e-5)],
], ids=["fig4_gamma0", "fig5_alpha", "degenerate_mid_list",
        "degenerate_first", "omega_c_1.7e308", "non_finite_drift",
        "degenerate_before_non_finite", "weak_drives_at_the_rank_cut"])
def test_stacked_svd_equals_the_one_point_null_space_on_grids(points):
    _assert_stack_matches_reference(points)


def test_calibrate_artifact_is_byte_identical_under_the_one_point_solve(
        tmp_path, monkeypatch):
    stacked, reference = tmp_path / "stacked.json", tmp_path / "ref.json"
    assert cli.main(["--experiment", "calibrate", "--out", str(stacked)]) == 0
    monkeypatch.setattr(cli, "steady_state", reference_steady_state)
    assert cli.main(["--experiment", "calibrate",
                     "--out", str(reference)]) == 0
    assert stacked.read_bytes() == reference.read_bytes()
