"""The stacked single-atom generator against its per-operator form.

The reference functions below are the operator-by-operator loops the
stacked code replaced, kept verbatim as the oracle.  Every product in
the set-up involves a matrix unit and is exact, so the stacked Bloch
drift, steady state and diffusion table must match them byte for byte,
for one parameter point and for a stack of them.
"""

import dataclasses
import importlib
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from eitfwm import entanglement, langevin, sweeps
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
    with mock.patch.object(ss_mod, "bloch_drift", reference_bloch_drift):
        try:
            ref_ss = ss_mod.steady_state(p)
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


def _reference_steady_state(p):
    with mock.patch.object(ss_mod, "bloch_drift", reference_bloch_drift):
        return ss_mod.steady_state(p)


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
    # the reference states up to the first point that has none
    ref_states, failure = [], None
    for p in points:
        try:
            ref_states.append(_reference_steady_state(p))
        except (ss_mod.DegenerateSteadyStateError, ValueError) as exc:
            failure = exc
            break
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
