"""Zeroth-order steady state of the driven three-level atom.

Levels 1 and 2 are ground states, level 3 the excited state.  The
coupling field (Rabi frequency omega_c) drives 1-3 on resonance and the
probe (omega_p) drives 2-3 on resonance.  Spontaneous decay 3->1 and
3->2 proceeds at gamma1, gamma2, and the ground-state coherence sigma_12
dephases at gamma0 without population exchange, so the optical
coherences decay at exactly (gamma1+gamma2)/2.

Operator convention: sigma_ab denotes |a><b| and expectation values are
stored as the matrix S[a, b] = <sigma_ab> (the transpose of the usual
density matrix).  Operators are represented by their coefficient arrays
in the matrix-unit basis; products of coefficient arrays are then plain
matrix products.

The single-atom adjoint generator implemented by :func:`apply_generator`
acts on stacks of operators and of parameter points: one call gives the
Bloch drifts of a whole block of points.  It is shared with the Langevin
diffusion module, which evaluates Einstein relations with the same
dissipators.  Only the null-space solve and the checks of a steady state
run point by point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import null_space

from .params import PhysicalParams

# fixed ordering of the nine matrix units |a><b|, row-major in (a, b)
BASIS = [(a, b) for a in (1, 2, 3) for b in (1, 2, 3)]


class DegenerateSteadyStateError(RuntimeError):
    """The Bloch generator has more than one stationary state."""


@dataclass
class DensityMatrix3:
    """Steady-state expectation values of the nine matrix units."""

    matrix: np.ndarray  # 3x3 complex, matrix[a-1, b-1] = <sigma_ab>

    def sigma(self, a: int, b: int) -> complex:
        return complex(self.matrix[a - 1, b - 1])

    @property
    def populations(self) -> np.ndarray:
        return self.matrix.real.diagonal().copy()

    def check(self, tol: float = 1e-9) -> None:
        m = self.matrix
        if abs(np.trace(m) - 1.0) > tol:
            raise ValueError(f"trace {np.trace(m)} != 1")
        if np.max(np.abs(m - m.conj().T)) > tol:
            raise ValueError("not Hermitian")
        # <sigma_ab> = rho_ba, so eigenvalues of the transpose are the
        # physical populations of rho
        ev = np.linalg.eigvalsh(m.T)
        if ev.min() < -1e5 * tol:
            raise ValueError(f"negative eigenvalue {ev.min()}")


def _unit(a: int, b: int) -> np.ndarray:
    e = np.zeros((3, 3), dtype=complex)
    e[a - 1, b - 1] = 1.0
    return e


def _fields(p, names, ndim: int) -> list:
    """The fields ``names`` of one parameter set ``p``, or of a list of
    them, as arrays with a leading point axis (of length one for one set)
    followed by ``ndim`` unit axes."""
    points = [p] if isinstance(p, PhysicalParams) else p
    shape = (len(points),) + (1,) * ndim
    return [np.array([getattr(q, name) for q in points],
                     dtype=float).reshape(shape) for name in names]


def hamiltonian(p) -> np.ndarray:
    """Rotating-frame drive Hamiltonian (coefficient array, MHz).

    ``p`` is one parameter set, or a list of them for a stack of
    Hamiltonians along a leading point axis.

    The relative phase of the two drives is a gauge choice (a phase of
    level |2>): it moves the overall phase of the ground coherence around
    without changing any witness value, because the witness is minimized
    over its sign pairings.  The gauge here makes <sigma_12> real and
    positive at the symmetric working point, which is the choice that
    reproduces the recorded sign conventions of the field-pair and
    coherence-b1 witnesses; the dark state for omega_p = omega_c is then
    (|1> + |2>)/sqrt(2).
    """
    omega_c, omega_p = _fields(p, ("omega_c", "omega_p"), 2)
    h = -omega_c * (_unit(3, 1) + _unit(1, 3)) \
        + omega_p * (_unit(3, 2) + _unit(2, 3))
    return h[0] if isinstance(p, PhysicalParams) else h


def apply_generator(p, op: np.ndarray) -> np.ndarray:
    """Adjoint (Heisenberg-picture) generator applied to a stack of operators.

    ``op`` holds coefficient arrays in the matrix-unit basis, shape
    (..., 3, 3): one operator or any stack of them.  ``p`` is one
    parameter set, and the result has the shape of ``op``; or a list of
    k of them, and the result gains a leading point axis, shape
    (k, ..., 3, 3).  Returns the coefficient arrays of d(op)/dt,
    operator by operator: the commutator with the drive Hamiltonian, the
    two radiative dissipators, and the pure-dephasing damping of the 1-2
    coherence components.  The coefficients broadcast against the
    operators, the dissipator brackets are formed once for every point,
    and each product rounds as with scalar coefficients: every point is
    bit for bit its one-point result.
    """
    op = np.asarray(op)
    gamma1, gamma2, gamma0 = _fields(p, ("gamma1", "gamma2", "gamma0"),
                                     op.ndim)
    h = hamiltonian(p).reshape((-1,) + (1,) * (op.ndim - 2) + (3, 3))
    out = 1j * (h @ op - op @ h)
    # adjoint dissipator for decay channel L: L+ op L - (L+ L op + op L+ L)/2
    ldag_l = _unit(3, 3)
    for rate, lower in ((gamma1, 1), (gamma2, 2)):
        l_op = _unit(lower, 3)
        out += rate * (l_op.conj().T @ op @ l_op
                       - 0.5 * (ldag_l @ op + op @ ldag_l))
    # phenomenological pure dephasing: damps only the 1-2 coherences, so
    # the optical coherences keep their purely radiative width
    deph = np.zeros(op.shape, dtype=complex)
    deph[..., 0, 1] = op[..., 0, 1]
    deph[..., 1, 0] = op[..., 1, 0]
    out -= gamma0 * deph
    return out[0] if isinstance(p, PhysicalParams) else out


def bloch_drift(p) -> np.ndarray:
    """9x9 drift matrix A with d<sigma>/dt = A <sigma> over BASIS order.

    One generator call on the stack of the nine matrix units E_cd:
    d<sigma_cd>/dt = <L(E_cd)>, so row (c, d) of A is L(E_cd) reshaped
    in BASIS (row-major) order.  A list of parameter sets gives a stack
    of drifts, shape (k, 9, 9), from the same single call.
    """
    units = np.eye(9, dtype=complex).reshape(9, 3, 3)
    a = apply_generator(p, units)
    return a.reshape(a.shape[:-3] + (9, 9))


def _stationary(a: np.ndarray) -> DensityMatrix3:
    """The unique normalised null vector of the drift ``a``, checked."""
    ns = null_space(a, rcond=1e-10)
    if ns.shape[1] == 0:
        raise DegenerateSteadyStateError("no stationary state found")
    if ns.shape[1] > 1:
        raise DegenerateSteadyStateError(
            f"stationary subspace has dimension {ns.shape[1]}")
    vec = ns[:, 0]
    m = vec.reshape(3, 3)
    tr = np.trace(m)
    if abs(tr) < 1e-12:
        raise DegenerateSteadyStateError("traceless null vector")
    m = m / tr
    m = 0.5 * (m + m.conj().T)  # enforce Hermiticity of <sigma_ab>
    dm = DensityMatrix3(matrix=m)
    dm.check(tol=1e-8)
    return dm


def steady_state(p):
    """Unique stationary state of the Bloch generator.

    Solves the null space of the drift matrix and normalises the trace.
    With both drives off (or other degenerate configurations) the ground
    manifold supports a family of stationary states and
    DegenerateSteadyStateError is raised instead of picking one.

    ``p`` is one parameter set, giving one state, or a list of them,
    giving the list of their states: one generator call builds every
    drift, then each is solved in turn.  In a list, the first point
    without a valid state raises, with its position in the list as the
    error's ``index``.
    """
    drifts = bloch_drift(p)
    if isinstance(p, PhysicalParams):
        return _stationary(drifts)
    states = []
    for a in drifts:
        try:
            states.append(_stationary(a))
        except (DegenerateSteadyStateError, ValueError) as exc:
            exc.index = len(states)
            raise
    return states


def steady_state_ode_oracle(p: PhysicalParams,
                            initial: np.ndarray | None = None
                            ) -> DensityMatrix3:
    """Long-time Bloch integration, an independent check of steady_state.

    Integrates the 9-component mean equations from ``initial`` (default:
    an even ground-state mixture) for 60 times the slowest relaxation
    time and returns the final state.
    """
    a = bloch_drift(p)
    if initial is None:
        m0 = np.diag([0.5, 0.5, 0.0]).astype(complex)
    else:
        m0 = np.asarray(initial, dtype=complex).reshape(3, 3)
    slow = min(x for x in (p.gamma0, p.gamma1, p.gamma2) if x > 0)
    t_final = 60.0 / slow
    y0 = np.concatenate([m0.reshape(-1).real, m0.reshape(-1).imag])
    big_a = np.block([[a.real, -a.imag], [a.imag, a.real]])

    def rhs(_t, y):
        return big_a @ y

    sol = solve_ivp(rhs, (0.0, t_final), y0, method="LSODA",
                    rtol=1e-11, atol=1e-13)
    if not sol.success:
        raise RuntimeError(f"Bloch integration failed: {sol.message}")
    y = sol.y[:, -1]
    m = (y[:9] + 1j * y[9:]).reshape(3, 3)
    m = 0.5 * (m + m.conj().T)
    m /= np.trace(m).real
    return DensityMatrix3(matrix=m)


def dark_state_sigma() -> np.ndarray:
    """<sigma_ab> matrix of the ideal dark state (|1> + |2>)/sqrt(2)."""
    m = np.zeros((3, 3), dtype=complex)
    m[0, 0] = m[1, 1] = 0.5
    m[0, 1] = m[1, 0] = 0.5
    return m
