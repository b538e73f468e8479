"""Self-check reports, exit-code semantics, and the negative controls."""

import numpy as np
import pytest

from eitfwm import propagation as pr, verification as vf


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
    ss, two_d = vf._solve([p])
    assert vf._worst_commutator_dev(p, ss, two_d, vf.COMMUTATOR_GRID,
                                    coupling) > 1.0


def test_checks_propagate_each_frequency_set_as_one_stack(ref, monkeypatch):
    sizes = []
    real = pr.second_moment_transfer_stack

    def counted(m, *args, **kwargs):
        sizes.append(len(m))
        return real(m, *args, **kwargs)

    monkeypatch.setattr(pr, "second_moment_transfer_stack", counted)
    vf.check_commutators(ref)
    # one stack per control, the commutator moment only
    assert sizes == [5, 5, 3, 64]
    sizes.clear()
    vf.check_limits(ref)
    # the three pump-off frequencies, the three stacked amplitudes, then
    # the symplectic grid
    assert sizes == [3, 3, len(vf.COMMUTATOR_GRID)]


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
