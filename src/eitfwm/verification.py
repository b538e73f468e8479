"""Built-in self-checks with machine-parseable reports.

Every check measures one residual against one tolerance and also
declares the outcome it is *expected* to produce at the reference
working point.  Some expectations are deliberately FAIL: the executed
model is known to break commutator preservation and symplectic
positivity once either the anomalous ground-coherence coupling or the
ground-state dephasing is switched on, each being enough on its own
(VALIDATION.md gives the full account), and the verification suite
asserts that this documented state of affairs still holds.  A check
whose outcome differs from its expectation is a genuine verification
failure either way: an expected-FAIL check that suddenly passes means
the model changed underneath us.

The checks isolate the mechanism with controls:

* with the coupling off, propagation is a pure phase and commutators
  are exact to rounding;
* with the direct (as-printed) coupling and no dephasing, the diffusion
  table balances the damping exactly (residual ~1e-9 across the band);
* doubling the diffusion table must break that balance (fault
  injection);
* at the reference point with the anomalous coupling, the imbalance is
  amplified by the phase-matched gain around zero frequency.

Like the sweeps, the checks run on stacks: every set of points of a
check is assembled from one set-up, shared by its frequencies or stacked
over its parameter sets, and propagated by one call of the stacked
doubling kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import PhysicalParams, derive, reference_params
from .steady_state import dark_state_sigma, solve
from . import langevin
from . import propagation
from . import entanglement


@dataclass(frozen=True)
class CheckReport:
    name: str
    scope: str
    residual: float
    tolerance: float
    expected_pass: bool = True

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance

    @property
    def surprising(self) -> bool:
        return self.passed != self.expected_pass

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        note = "" if not self.surprising else " UNEXPECTED"
        return (f"CHECK {self.name} residual={self.residual:.6e} "
                f"tol={self.tolerance:.1e} {status}"
                f" (expected {'PASS' if self.expected_pass else 'FAIL'})"
                f"{note} [{self.scope}]")


#: frequencies for the integrator cross-check, chosen away from the
#: optical resonances of both the direct and the mirrored sector so the
#: fixed-step oracle is itself accurate there
ORACLE_POINTS = tuple(np.concatenate([np.linspace(-3000.0, -1700.0, 8),
                                      np.linspace(-300.0, 1000.0, 8)]))

COMMUTATOR_GRID = tuple(np.linspace(-3000.0, 1000.0, 64))


def _drift_stack(rows, omegas, two_d, pairing, coupling="parametric",
                 sideband="mirrored"):
    """(m, g): the drift and noise-drive stacks of the drift set-up
    ``rows`` at every frequency of ``omegas``, the channel covariance
    taken from ``two_d`` by ``pairing`` (langevin.sym_noise_matrix or
    langevin.comm_noise_matrix)."""
    m, q = propagation.drift_block(rows, omegas, coupling, sideband)
    return m, propagation.noise_drive(q, pairing(two_d, rows.channels))


def _transfer(m, g, length, omegas):
    """propagation.second_moment_transfer_stack of the drift stack ``m``
    at the frequencies ``omegas``; a failing matrix is named by its
    frequency."""
    try:
        return propagation.second_moment_transfer_stack(m, g, length)
    except propagation.NumericalOverflowError as exc:
        raise exc.at_frequency(omegas) from exc


def _field_quadratures(m, g, length, omegas) -> np.ndarray:
    """Quadrature covariances of the output fields for vacuum inputs, one
    per matrix of the drift stack ``m`` at ``omegas``."""
    t, c = _transfer(m, g, length, omegas)
    out = propagation.output_covariance(
        t, c, propagation.vacuum_covariance(t.shape[-1] // 2))
    return entanglement.quadrature_covariance(
        propagation.hermitian_part(out))


def _rows(p, states):
    """Drift set-up of the single field pair at the steady state
    ``states``, a stack of one."""
    return propagation.drift_rows(states, propagation.single_pair_modes(p),
                                  [derive(p)])


def _pair_witness(points, states, tables, omegas) -> np.ndarray:
    """Witness values of the pair (a1, b1) at ``omegas``, from the set-up
    of the parameter sets ``points`` (one, or one per frequency) with
    their stacks of steady states and diffusion tables."""
    modes = propagation.single_pair_modes(points[0])
    set_up = entanglement.witness_set_up(points, states, tables, modes,
                                         [derive(q) for q in points])
    quad = entanglement.extended_quadratures(set_up, omegas,
                                             points[0].length)
    values, _ = entanglement.pair_witness(
        quad, entanglement.extended_labels(modes), ("a1", "b1"))
    return values


def _worst_commutator_dev(p, ss, two_d, omegas, coupling) -> float:
    """Worst |[a_out, a_out^+] - J| over ``omegas``: the input commutators
    J carried through the transfer plus the commutator moment of the
    noise."""
    m, g = _drift_stack(_rows(p, ss), omegas, two_d,
                        langevin.comm_noise_matrix, coupling)
    t, c = _transfer(m, g, p.length, omegas)
    n = m.shape[-1] // 2
    j0 = np.diag([1.0] * n + [-1.0] * n)
    out = propagation.output_covariance(t, c, j0.astype(complex))
    return float(np.max(np.abs(out - j0)))


def check_commutators(p: PhysicalParams | None = None) -> list[CheckReport]:
    if p is None:
        p = reference_params()
    reports = []

    free, nodeph = p.with_(coupling_scale=0.0), p.with_(gamma0=0.0)
    states, tables = solve([free, nodeph, p])
    reports.append(CheckReport(
        name="commutators_free_propagation",
        scope="coupling off, 5 frequencies",
        residual=_worst_commutator_dev(free, states[[0]], tables[[0]],
                                       (-2000.0, -1000.0, -500.0, 0.0, 500.0),
                                       "as_printed"),
        tolerance=1e-13))

    reports.append(CheckReport(
        name="commutators_undriven_balance",
        scope="direct coupling, no dephasing, 5 frequencies",
        residual=_worst_commutator_dev(nodeph, states[[1]], tables[[1]],
                                       (-2000.0, -1031.7, -1000.0, 0.0, 500.0),
                                       "as_printed"),
        tolerance=1e-6))

    reports.append(CheckReport(
        name="commutators_fault_injection",
        scope="same limit with the diffusion table doubled",
        residual=_worst_commutator_dev(nodeph, states[[1]],
                                       2.0 * tables[[1]],
                                       (-2000.0, -1000.0, 0.0),
                                       "as_printed"),
        tolerance=1e-6,
        expected_pass=False))

    reports.append(CheckReport(
        name="commutators_reference",
        scope="anomalous coupling, reference point, 64-point grid",
        residual=_worst_commutator_dev(p, states[[2]], tables[[2]],
                                       COMMUTATOR_GRID,
                                       "parametric"),
        tolerance=1e-6,
        expected_pass=False))
    return reports


def _relative_deviation(x: np.ndarray, ref: np.ndarray) -> float:
    """max|x - ref| / max|ref|; a deviation of 0 counts as agreement,
    also from a reference of 0 (a frequency the noise does not reach)."""
    deviation = np.max(np.abs(x - ref))
    return 0.0 if deviation == 0 else float(deviation / np.max(np.abs(ref)))


def check_oracle_equivalence(p: PhysicalParams | None = None,
                             n_steps: int = 100000) -> list[CheckReport]:
    """Doubling integrator against the naive fixed-step one."""
    if p is None:
        p = reference_params()
    ss, two_d = solve([p])
    m, g = _drift_stack(_rows(p, ss), ORACLE_POINTS, two_d,
                        langevin.sym_noise_matrix)
    # both integrators run once over the stack of all frequencies
    t1, c1 = _transfer(m, g, p.length, ORACLE_POINTS)
    t2, c2 = propagation.transfer_step_oracle(m, g, p.length, n_steps)
    worst = 0.0
    for tk1, ck1, tk2, ck2 in zip(t1, c1, t2, c2):
        worst = max(worst, _relative_deviation(tk1, tk2),
                    _relative_deviation(ck1, ck2))
    return [CheckReport(
        name="oracle_equivalence",
        scope=f"{len(ORACLE_POINTS)} frequencies, {n_steps} oracle steps",
        residual=worst,
        tolerance=1e-8)]


def check_limits(p: PhysicalParams | None = None) -> list[CheckReport]:
    if p is None:
        p = reference_params()
    reports = []

    pz, nodeph = p.with_(omega_p=0.0), p.with_(gamma0=0.0)
    states, tables = solve([pz, nodeph, p])

    # pump off: the ground coherence vanishes, the pair decouples, and
    # the witness must sit at the vacuum benchmark
    vals = _pair_witness([pz], states[[0]], tables[[0]],
                         [-2500.0, -300.0, 400.0])
    reports.append(CheckReport(
        name="limit_uncoupled_pair_vacuum",
        scope="pump drive off, 3 benign frequencies",
        residual=float(np.max(np.abs(vals - 4.0))), tolerance=1e-9))

    reports.append(CheckReport(
        name="limit_dark_state",
        scope="no dephasing, symmetric drives",
        residual=float(np.max(np.abs(states[1] - dark_state_sigma()))),
        tolerance=1e-6))

    # one set-up per amplitude, stacked over the three points
    amplitudes = (0.0, 1.0, 1000.0)
    vals = _pair_witness([p.with_(alpha1=a, alpha2=a) for a in amplitudes],
                         states[[2] * 3], tables[[2] * 3], [-800.0] * 3)
    reports.append(CheckReport(
        name="limit_input_amplitude_independence",
        scope="coherent amplitudes 0, 1, 1000",
        residual=float((np.max(vals) - np.min(vals)) / abs(vals[0])),
        tolerance=1e-9))

    quad = _field_quadratures(*_drift_stack(
        _rows(p, states[[2]]), COMMUTATOR_GRID, tables[[2]],
        langevin.sym_noise_matrix), p.length, COMMUTATOR_GRID)
    m = quad.shape[-1] // 2
    form = np.zeros((2 * m, 2 * m))
    form[:m, m:] = 2.0 * np.eye(m)
    form[m:, :m] = -2.0 * np.eye(m)
    worst = float(np.linalg.eigvals(quad + 1j * form).real.min())
    reports.append(CheckReport(
        name="symplectic_positivity",
        scope="field quadrature covariance, 64-point grid",
        residual=max(0.0, -worst),
        tolerance=1e-8,
        expected_pass=False))
    return reports


def run_all(p: PhysicalParams | None = None) -> list[CheckReport]:
    if p is None:
        p = reference_params()
    return (check_commutators(p) + check_oracle_equivalence(p)
            + check_limits(p))


def format_lines(reports) -> list[str]:
    return [r.line() for r in reports]


def verify_exit_code(reports) -> int:
    return 3 if any(r.surprising for r in reports) else 0


def convention_comparison(p: PhysicalParams | None = None) -> dict:
    """Witness values for every coupling/sideband combination.

    Feeds the comparison table of the validation notes; "overflow"
    marks combinations where the drift develops broadband exponential
    gain beyond the trust ceiling.
    """
    if p is None:
        p = reference_params()
    ss, two_d = solve([p])
    rows = _rows(p, ss)
    table = {}
    for coupling in propagation.COUPLINGS:
        for sideband in propagation.SIDEBANDS:
            key = f"{coupling}/{sideband}"
            row = {}
            for om in (-2000.0, -1000.0, 0.0):
                # a stack of one, so that each cell overflows on its own
                try:
                    quad = _field_quadratures(*_drift_stack(
                        rows, [om], two_d, langevin.sym_noise_matrix,
                        coupling, sideband), p.length, [om])
                    row[om] = float(
                        entanglement.duan_min_stack(quad, 0, 1)[0][0])
                except propagation.NumericalOverflowError:
                    row[om] = "overflow"
            table[key] = row
    return table
