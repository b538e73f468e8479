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

Like the sweeps, the checks run on stacks: every control keeps its own
set-up, and the points of all the controls of a check take one kernel
call, which gives every matrix the bits it gets alone.  Every check
reads only the field pair, so each runs the chain's one field step,
entanglement.field_moments; the commutator audit carries J through the
output step of the spectra, and ``check_limits`` stacks its five
controls, 70 points, through entanglement.field_quadratures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import PhysicalParams
from .steady_state import DegenerateSteadyStateError, dark_state_sigma, solve
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


def _worst_commutator_devs(controls, length) -> list[float]:
    """Worst |[a_out, a_out^+] - J| of each control (p, ss, two_d, omegas,
    coupling): the input commutators J carried through the transfer plus
    the commutator moment of the noise, the controls propagated as one
    stack (entanglement.field_moments)."""
    _, _, t, c = entanglement.field_moments(controls, length,
                                            langevin.comm_noise_matrix)
    n = t.shape[-1] // 2
    j = np.array([1.0] * n + [-1.0] * n)
    dev = np.abs(propagation.output_covariance(t, c, j) - np.diag(j))
    ends = np.cumsum([len(control[3]) for control in controls])[:-1]
    return [float(np.max(part)) for part in np.split(dev, ends)]


def _solve(points, names):
    """solve(points); a point without a steady state is named by its
    entry in ``names``."""
    try:
        return solve(points)
    except DegenerateSteadyStateError as exc:
        raise type(exc)(f"{exc} at the {names[exc.index]}") from exc


def check_commutators(p: PhysicalParams) -> list[CheckReport]:
    free, nodeph = p.with_(coupling_scale=0.0), p.with_(gamma0=0.0)
    # the coupling is no generator field: the coupling-off control takes
    # the reference point's steady state
    states, tables = _solve([p, nodeph], ("reference point",
                                          "no-dephasing control (gamma0 = 0)"))
    free_dev, balance_dev, fault_dev, reference_dev = _worst_commutator_devs([
        (free, states[[0]], tables[[0]],
         (-2000.0, -1000.0, -500.0, 0.0, 500.0), "as_printed"),
        (nodeph, states[[1]], tables[[1]],
         (-2000.0, -1031.7, -1000.0, 0.0, 500.0), "as_printed"),
        (nodeph, states[[1]], 2.0 * tables[[1]], (-2000.0, -1000.0, 0.0),
         "as_printed"),
        (p, states[[0]], tables[[0]], COMMUTATOR_GRID, "parametric"),
    ], p.length)
    return [
        CheckReport("commutators_free_propagation",
                    "coupling off, 5 frequencies", free_dev, 1e-13),
        CheckReport("commutators_undriven_balance",
                    "direct coupling, no dephasing, 5 frequencies",
                    balance_dev, 1e-6),
        CheckReport("commutators_fault_injection",
                    "same limit with the diffusion table doubled",
                    fault_dev, 1e-6, expected_pass=False),
        CheckReport("commutators_reference",
                    "anomalous coupling, reference point, 64-point grid",
                    reference_dev, 1e-6, expected_pass=False),
    ]


def _relative_deviation(x: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """max|x - ref| / max|ref| of every matrix of the stacks; a deviation
    of 0 counts as agreement, also from a reference of 0 (a frequency the
    noise does not reach)."""
    deviation = np.max(np.abs(x - ref), axis=(-2, -1))
    # a deviation from a reference of 0 is inf, without a warning: an
    # oracle moment that underflows where the kernel's does not
    with np.errstate(divide="ignore"):
        return np.divide(deviation, np.max(np.abs(ref), axis=(-2, -1)),
                         out=np.zeros_like(deviation), where=deviation != 0)


def check_oracle_equivalence(p: PhysicalParams,
                             n_steps: int = 100000) -> list[CheckReport]:
    """Doubling integrator against the naive fixed-step one."""
    ss, two_d = solve([p])
    # both integrators run once over the stack of all frequencies
    m, g, t1, c1 = entanglement.field_moments(
        [(p, ss, two_d, ORACLE_POINTS, "parametric")], p.length)
    t2, c2 = propagation.transfer_step_oracle(m, g, p.length, n_steps)
    # the worst deviation; fmax skips a nan, the false PASS of ROADMAP 1b
    worst = np.fmax.reduce(np.concatenate([_relative_deviation(t1, t2),
                                           _relative_deviation(c1, c2)]),
                           initial=0.0)
    return [CheckReport(
        name="oracle_equivalence",
        scope=f"{len(ORACLE_POINTS)} frequencies, {n_steps} oracle steps",
        residual=float(worst),
        tolerance=1e-8)]


def check_limits(p: PhysicalParams) -> list[CheckReport]:
    reports = []

    pz, nodeph = p.with_(omega_p=0.0), p.with_(gamma0=0.0)
    states, tables = _solve([p, pz, nodeph], (
        "reference point", "pump-off control (omega_p = 0)",
        "no-dephasing control (gamma0 = 0)"))

    # pump off: the ground coherence vanishes, the pair decouples, and
    # the witness must sit at the vacuum benchmark; then one control per
    # coherent amplitude, then the symplectic grid: the 6 + 64 points
    # are one stack of the field pair
    quad = entanglement.field_quadratures(
        [(pz, states[[1]], tables[[1]], (-2500.0, -300.0, 400.0),
          "parametric")]
        + [(p.with_(alpha1=a, alpha2=a), states[[0]], tables[[0]], (-800.0,),
            "parametric") for a in (0.0, 1.0, 1000.0)]
        + [(p, states[[0]], tables[[0]], COMMUTATOR_GRID, "parametric")],
        p.length)
    (vacuum, vals), _ = entanglement.pair_witness(
        quad[:6].reshape((2, 3) + quad.shape[1:]),
        entanglement.field_labels(propagation.single_pair_modes(p)),
        ("a1", "b1"))
    reports.append(CheckReport(
        name="limit_uncoupled_pair_vacuum",
        scope="pump drive off, 3 benign frequencies",
        residual=float(np.max(np.abs(vacuum - 4.0))), tolerance=1e-9))

    reports.append(CheckReport(
        name="limit_dark_state",
        scope="no dephasing, symmetric drives",
        residual=float(np.max(np.abs(states[2] - dark_state_sigma()))),
        tolerance=1e-6))

    reports.append(CheckReport(
        name="limit_input_amplitude_independence",
        scope="coherent amplitudes 0, 1, 1000",
        residual=float((np.max(vals) - np.min(vals)) / abs(vals[0])),
        tolerance=1e-9))

    grid = quad[6:]
    m = grid.shape[-1] // 2
    form = np.zeros((2 * m, 2 * m))
    form[:m, m:] = 2.0 * np.eye(m)
    form[m:, :m] = -2.0 * np.eye(m)
    worst = float(np.linalg.eigvals(grid + 1j * form).real.min())
    reports.append(CheckReport(
        name="symplectic_positivity",
        scope="field quadrature covariance, 64-point grid",
        residual=max(0.0, -worst),
        tolerance=1e-8,
        expected_pass=False))
    return reports


def run_all(p: PhysicalParams) -> list[CheckReport]:
    return (check_commutators(p) + check_oracle_equivalence(p)
            + check_limits(p))


def format_lines(reports) -> list[str]:
    return [r.line() for r in reports]


def verify_exit_code(reports) -> int:
    return 3 if any(r.surprising for r in reports) else 0


def convention_comparison(p: PhysicalParams) -> dict:
    """Witness values for every coupling/sideband combination.

    Feeds the comparison table of the validation notes; "overflow"
    marks combinations where the drift develops broadband exponential
    gain beyond the trust ceiling.
    """
    ss, two_d = solve([p])
    table = {}
    for coupling in propagation.COUPLINGS:
        for sideband in propagation.SIDEBANDS:
            key = f"{coupling}/{sideband}"
            row = {}
            for om in (-2000.0, -1000.0, 0.0):
                # a stack of one, so that each cell overflows on its own
                try:
                    quad = entanglement.field_quadratures(
                        [(p, ss, two_d, [om], coupling)], p.length, sideband)
                    row[om] = float(
                        entanglement.duan_min_stack(quad, 0, 1)[0][0])
                except propagation.NumericalOverflowError:
                    row[om] = "overflow"
            table[key] = row
    return table
