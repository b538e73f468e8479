"""Self-check reports, exit-code semantics, and the negative controls."""

import warnings

import numpy as np
import pytest

from eitfwm import entanglement as en
from eitfwm import langevin, propagation as pr, verification as vf
from eitfwm.params import derive
from eitfwm.steady_state import dark_state_sigma, solve


def _report(residual, tolerance, expected_pass=True, name="demo"):
    return vf.CheckReport(name=name, scope="synthetic", residual=residual,
                          tolerance=tolerance, expected_pass=expected_pass)


def test_check_report_pass_fail_logic():
    assert _report(1e-10, 1e-8).passed
    assert not _report(1e-6, 1e-8).passed
    assert not _report(1e-10, 1e-8).surprising
    assert _report(1e-6, 1e-8).surprising
    assert not _report(1e-6, 1e-8, expected_pass=False).surprising
    assert _report(1e-10, 1e-8, expected_pass=False).surprising


def test_check_report_line_format():
    line = _report(3.2e-9, 1e-8, name="limit_demo").line()
    assert line.startswith("CHECK limit_demo residual=3.200000e-09")
    assert "PASS (expected PASS)" in line
    assert line.endswith("[synthetic]")
    assert "UNEXPECTED" not in line
    odd = _report(0.5, 1e-8, expected_pass=False, name="x")
    fine = odd.line()
    assert "FAIL (expected FAIL)" in fine
    assert "UNEXPECTED" not in fine
    bad = _report(1e-12, 1e-8, expected_pass=False, name="x").line()
    assert "PASS (expected FAIL) UNEXPECTED" in bad


def test_verify_exit_code_semantics():
    expected_all = [_report(1e-10, 1e-8),
                    _report(0.5, 1e-8, expected_pass=False)]
    assert vf.verify_exit_code(expected_all) == 0
    surprising = expected_all + [_report(1e-6, 1e-8)]
    assert vf.verify_exit_code(surprising) == 3
    assert vf.format_lines(expected_all) == [r.line() for r in expected_all]


def test_commutator_controls(ref):
    reports = {r.name: r for r in vf.check_commutators(ref)}
    assert set(reports) == {"commutators_free_propagation",
                            "commutators_undriven_balance",
                            "commutators_fault_injection",
                            "commutators_reference"}
    # controls: exact with the coupling off, balanced without dephasing
    assert reports["commutators_free_propagation"].passed
    assert reports["commutators_free_propagation"].residual < 1e-13
    assert reports["commutators_undriven_balance"].passed
    assert reports["commutators_undriven_balance"].residual < 1e-6
    # the fault injection must be caught, or the audit proves nothing
    fault = reports["commutators_fault_injection"]
    assert not fault.passed and not fault.expected_pass
    assert fault.residual > 0.1
    # at the working point the imbalance is real and documented
    working = reports["commutators_reference"]
    assert not working.passed and not working.expected_pass
    assert working.residual > 1.0
    assert not any(r.surprising for r in reports.values())


@pytest.mark.parametrize("coupling,gamma0", [
    ("as_printed", 0.1),     # dephasing alone (64-point grid: 6.5e3)
    ("parametric", 0.0),     # anomalous coupling alone (32.6)
])
def test_each_condition_alone_breaks_commutators(ref, coupling, gamma0):
    # the two controls check_commutators leaves out: commutators balance
    # only with the direct coupling and no dephasing together
    p = ref.with_(gamma0=gamma0)
    ss, two_d = solve([p])
    (worst,) = vf._worst_commutator_devs(
        [(p, ss, two_d, vf.COMMUTATOR_GRID, coupling)], p.length)
    assert worst > 1.0


def test_checks_propagate_each_frequency_set_as_one_stack(ref,
                                                         kernel_stacks):
    vf.check_commutators(ref)
    # one stack of the four controls' 5 + 5 + 3 + 64 frequencies, the
    # commutator moment only
    assert kernel_stacks == [77]
    kernel_stacks.clear()
    with warnings.catch_warnings():
        # RK4 overflows at 1000 MHz with this step
        warnings.simplefilter("ignore", RuntimeWarning)
        vf.check_oracle_equivalence(ref, n_steps=2000)
    # the oracle's 16 frequencies, the kernel's side of the cross-check
    assert kernel_stacks == [len(vf.ORACLE_POINTS)]
    kernel_stacks.clear()
    vf.check_limits(ref)
    # the three pump-off frequencies, the three stacked amplitudes and
    # the symplectic grid
    assert kernel_stacks == [6 + len(vf.COMMUTATOR_GRID)]


@pytest.mark.parametrize("check", [vf.check_oracle_equivalence,
                                   vf.check_limits])
def test_a_failing_check_names_its_frequency(ref, check):
    # the drift norm times the cell length passes float range only at
    # the last frequency of either grid
    with pytest.raises(pr.NumericalOverflowError,
                       match=r"^drift norm times length 1\.799e\+306 is past "
                             r"the range of the interval doubling "
                             r"at omega = 1000 MHz$"):
        check(ref.with_(length=1e300))


def test_oracle_check_counts_zero_over_zero_as_agreement(ref):
    # a detuning of 1e300 keeps the noise off the fields: both
    # integrators give C = 0 at every oracle frequency, and the residual
    # comes from T alone, with no 0 / 0 along the way
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        (report,) = vf.check_oracle_equivalence(ref.with_(delta1=1e300))
    assert report.line().startswith(
        "CHECK oracle_equivalence residual=4.893995e-12 tol=1.0e-08 PASS")


def test_oracle_check_reports_an_underflowing_oracle_without_a_warning(ref):
    # over a cell of 5e-324 the oracle's C underflows to 0 at most
    # frequencies where the kernel's is about 1e-315: the deviation
    # from a reference of 0 is inf, and the check fails unexpectedly
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        (report,) = vf.check_oracle_equivalence(ref.with_(length=5e-324),
                                                n_steps=2000)
    assert report.residual == np.inf
    assert report.line().startswith("CHECK oracle_equivalence residual=inf ")
    assert report.line().endswith(" FAIL (expected PASS) UNEXPECTED "
                                  "[16 frequencies, 2000 oracle steps]")


def test_limit_checks(ref):
    reports = {r.name: r for r in vf.check_limits(ref)}
    assert set(reports) == {"limit_uncoupled_pair_vacuum",
                            "limit_dark_state",
                            "limit_input_amplitude_independence",
                            "symplectic_positivity"}
    assert reports["limit_uncoupled_pair_vacuum"].passed
    assert reports["limit_dark_state"].passed
    amp = reports["limit_input_amplitude_independence"]
    assert amp.passed and amp.residual == 0.0
    symplectic = reports["symplectic_positivity"]
    assert not symplectic.passed and not symplectic.expected_pass
    assert not any(r.surprising for r in reports.values())


def test_convention_comparison_table(ref):
    table = vf.convention_comparison(ref)
    assert set(table) == {"parametric/mirrored", "parametric/same",
                          "as_printed/mirrored", "as_printed/same"}
    executed = table["parametric/mirrored"]
    assert all(isinstance(v, float) for v in executed.values())
    assert executed[-1000.0] < 4.0
    # the same-frequency bookkeeping blows past the gain ceiling away
    # from the pump detunings
    assert table["parametric/same"][-2000.0] == "overflow"
    for key in ("as_printed/mirrored", "as_printed/same"):
        for v in table[key].values():
            if isinstance(v, float):
                assert v >= 4.0 - 1e-9
    # every cell, bit for bit
    assert {key: {om: v.hex() if isinstance(v, float) else v
                  for om, v in row.items()} for key, row in table.items()} \
        == CONVENTION_TABLE


#: convention_comparison at the reference point, float.hex of each cell
CONVENTION_TABLE = {
    "as_printed/mirrored": {-2000.0: "0x1.0a9d694689c92p+2",
                            -1000.0: "0x1.96b94788d64d2p+13",
                            0.0: "0x1.12a4b0602605bp+2"},
    "as_printed/same": {-2000.0: "0x1.12a4b05ff09ecp+2",
                        -1000.0: "0x1.96a8f01fd25f2p+14",
                        0.0: "0x1.12a4b0602605bp+2"},
    "parametric/mirrored": {-2000.0: "0x1.28f9628dc1afcp+1",
                            -1000.0: "0x1.0ccccc037fdb2p+1",
                            0.0: "0x1.06525aba20000p+1"},
    "parametric/same": {-2000.0: "overflow",
                        -1000.0: "0x1.0cccda3310000p+1",
                        0.0: "0x1.06525aba20000p+1"},
}


# --- the merged stacks against the per-control evaluation -----------------

def _per_control_commutators(p):
    """check_commutators' residuals with one transfer per control, each
    control solved on its own point."""
    free, nodeph = p.with_(coupling_scale=0.0), p.with_(gamma0=0.0)
    states, tables = solve([free, nodeph, p])

    def worst(q, ss, two_d, omegas, coupling):
        _, _, t, c = en.field_moments([(q, ss, two_d, omegas, coupling)],
                                      q.length, langevin.comm_noise_matrix)
        n = t.shape[-1] // 2
        j0 = np.diag([1.0] * n + [-1.0] * n)
        # the product form, not propagation.output_covariance
        out = t @ j0.astype(complex) @ pr.dagger(t) + c
        return float(np.max(np.abs(out - j0)))

    return [
        worst(free, states[[0]], tables[[0]],
              (-2000.0, -1000.0, -500.0, 0.0, 500.0), "as_printed"),
        worst(nodeph, states[[1]], tables[[1]],
              (-2000.0, -1031.7, -1000.0, 0.0, 500.0), "as_printed"),
        worst(nodeph, states[[1]], 2.0 * tables[[1]],
              (-2000.0, -1000.0, 0.0), "as_printed"),
        worst(p, states[[2]], tables[[2]], vf.COMMUTATOR_GRID, "parametric"),
    ]


def _extended_pair_witness(points, states, tables, omegas):
    """Witness values of the pair (a1, b1) at ``omegas`` through the
    extended chain: the set-up of the parameter sets ``points`` (one, or
    one per frequency), the spin-wave readout and the 6x6 extension."""
    modes = pr.single_pair_modes(points[0])
    set_up = en.witness_set_up(points, states, tables, modes,
                               [derive(q) for q in points])
    quad = en.extended_quadratures(set_up, omegas, points[0].length)
    values, _ = en.pair_witness(quad, en.extended_labels(modes),
                                ("a1", "b1"))
    return values


def _per_control_limits(p):
    """check_limits' residuals with one witness call per control, the
    two witness limits through the extended chain."""
    pz, nodeph = p.with_(omega_p=0.0), p.with_(gamma0=0.0)
    states, tables = solve([pz, nodeph, p])
    vacuum = _extended_pair_witness([pz], states[[0]], tables[[0]],
                                    [-2500.0, -300.0, 400.0])
    vals = _extended_pair_witness([p.with_(alpha1=a, alpha2=a)
                                   for a in (0.0, 1.0, 1000.0)],
                                  states[[2] * 3], tables[[2] * 3],
                                  [-800.0] * 3)
    quad = en.field_quadratures(
        [(p, states[[2]], tables[[2]], vf.COMMUTATOR_GRID, "parametric")],
        p.length)
    m = quad.shape[-1] // 2
    form = np.zeros((2 * m, 2 * m))
    form[:m, m:] = 2.0 * np.eye(m)
    form[m:, :m] = -2.0 * np.eye(m)
    worst = float(np.linalg.eigvals(quad + 1j * form).real.min())
    return [float(np.max(np.abs(vacuum - 4.0))),
            float(np.max(np.abs(states[1] - dark_state_sigma()))),
            float((np.max(vals) - np.min(vals)) / abs(vals[0])),
            max(0.0, -worst)]


MERGED_CHECKS = pytest.mark.parametrize("check,reference", [
    (vf.check_commutators, _per_control_commutators),
    (vf.check_limits, _per_control_limits),
], ids=["commutators", "limits"])


@MERGED_CHECKS
@pytest.mark.parametrize("changes", [
    {},
    {"coupling_scale": 1.6462819213179591,
     "spinwave_scale": 0.007228895687294551},
    {"gamma0": 0.0},
    {"coupling_scale": 1e5},
    {"delta1": 1e300},
], ids=["reference", "calibrated", "no_dephasing", "strong", "far_detuned"])
def test_merged_stacks_keep_every_residuals_bits(ref, check, reference,
                                                  changes):
    p = ref.with_(**changes)
    assert [float(r.residual).hex() for r in check(p)] \
        == [x.hex() for x in reference(p)]


@MERGED_CHECKS
@pytest.mark.parametrize("changes", [{"length": 1e300},
                                     {"coupling_scale": 1e308}],
                         ids=["length", "coupling"])
def test_merged_stacks_keep_every_failure_message(ref, check, reference,
                                                  changes):
    p = ref.with_(**changes)
    with pytest.raises(pr.NumericalOverflowError) as merged:
        check(p)
    with pytest.raises(pr.NumericalOverflowError) as alone:
        reference(p)
    assert str(merged.value) == str(alone.value)


@pytest.mark.parametrize("check,index,omega", [
    (vf.check_commutators, 5, "-2000"),    # undriven balance, first
    (vf.check_commutators, 13, "-3000"),   # the reference grid, first
    (vf.check_limits, 3, "-800"),          # the first coherent amplitude
])
def test_a_merged_stack_names_each_controls_own_frequency(
        ref, monkeypatch, check, index, omega):
    # a kernel that fails at the first matrix of a control's block: the
    # message names that control's frequency, not the first control's
    def failing(m, g, length):
        raise pr.NumericalOverflowError("injected", index=index)

    monkeypatch.setattr(pr, "second_moment_transfer_stack", failing)
    with pytest.raises(pr.NumericalOverflowError,
                       match=rf"^injected at omega = {omega} MHz$"):
        check(ref)
