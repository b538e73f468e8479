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

:func:`solve` is the one entry point: it takes a list of k parameter
points, one point being a list of one, and returns their steady states,
one complex array S of shape (k, 3, 3), with their Langevin diffusion
tables.

The single-atom adjoint generator implemented by :func:`apply_generator`
acts on stacks of operators and of parameter points: one call gives the
Bloch drifts of a whole block of points, whose rows are also the images
the Langevin Einstein relations need.  The generator reads only the
fields GENERATOR_FIELDS of a parameter set.  One SVD call solves the
null spaces of a whole block of drifts, and one pass checks all states.
"""

from __future__ import annotations

import numpy as np

from . import langevin

# fixed ordering of the nine matrix units |a><b|, row-major in (a, b)
BASIS = [(a, b) for a in (1, 2, 3) for b in (1, 2, 3)]

#: every field of a parameter set that the Bloch generator reads
GENERATOR_FIELDS = ("omega_c", "omega_p", "gamma1", "gamma2", "gamma0")


class DegenerateSteadyStateError(RuntimeError):
    """The Bloch generator has no unique, normalisable stationary state,
    or its drift is not finite."""


def check_states(m: np.ndarray, tol: float = 1e-9) -> None:
    """Check a stack of <sigma_ab> matrices, shape (k, 3, 3), in one
    pass: unit trace, Hermiticity, and no eigenvalue below -1e5 * tol.
    The first failing matrix raises ValueError, naming the first check
    it fails, with its position in the stack as the error's ``index``."""
    tr = np.trace(m, axis1=1, axis2=2)
    bad_trace = np.abs(tr - 1.0) > tol
    bad_hermitian = np.amax(np.abs(m - m.conj().transpose(0, 2, 1)),
                            axis=(1, 2)) > tol
    # <sigma_ab> = rho_ba, so eigenvalues of the transpose are the
    # physical populations of rho
    low = np.amin(np.linalg.eigvalsh(m.transpose(0, 2, 1)), axis=1)
    bad = bad_trace | bad_hermitian | (low < -1e5 * tol)
    if not bad.any():
        return
    i = int(np.argmax(bad))
    if bad_trace[i]:
        exc = ValueError(f"trace {tr[i]} != 1")
    elif bad_hermitian[i]:
        exc = ValueError("not Hermitian")
    else:
        exc = ValueError(f"negative eigenvalue {low[i]}")
    exc.index = i
    raise exc


def _unit(a: int, b: int) -> np.ndarray:
    e = np.zeros((3, 3), dtype=complex)
    e[a - 1, b - 1] = 1.0
    return e


def _fields(points: list, ndim: int) -> dict:
    """The GENERATOR_FIELDS of the parameter sets ``points``, by name, as
    arrays with a leading point axis followed by ``ndim`` unit axes.  The
    generator reads its parameters only from here."""
    values = np.array([[getattr(q, name) for name in GENERATOR_FIELDS]
                       for q in points],
                      dtype=float).reshape(len(points), len(GENERATOR_FIELDS))
    shape = (len(points),) + (1,) * ndim
    return {name: values[:, k].reshape(shape)
            for k, name in enumerate(GENERATOR_FIELDS)}


def hamiltonian(points: list) -> np.ndarray:
    """Rotating-frame drive Hamiltonians (coefficient arrays, MHz) of the
    parameter sets ``points``, shape (k, 3, 3).

    The relative phase of the two drives is a gauge choice (a phase of
    level |2>): it moves the overall phase of the ground coherence around
    without changing any witness value, because the witness is minimized
    over its sign pairings.  The gauge here makes <sigma_12> real and
    positive at the symmetric working point, which is the choice that
    reproduces the recorded sign conventions of the field-pair and
    coherence-b1 witnesses; the dark state for omega_p = omega_c is then
    (|1> + |2>)/sqrt(2).
    """
    f = _fields(points, 2)
    return -f["omega_c"] * (_unit(3, 1) + _unit(1, 3)) \
        + f["omega_p"] * (_unit(3, 2) + _unit(2, 3))


def apply_generator(points: list, op: np.ndarray) -> np.ndarray:
    """Adjoint (Heisenberg-picture) generator applied to a stack of operators.

    ``op`` holds coefficient arrays in the matrix-unit basis, shape
    (..., 3, 3): one operator or any stack of them.  The result gains a
    leading axis over the k parameter sets ``points``, shape
    (k, ..., 3, 3).  Returns the coefficient arrays of d(op)/dt,
    operator by operator: the commutator with the drive Hamiltonian, the
    two radiative dissipators, and the pure-dephasing damping of the 1-2
    coherence components.  The coefficients broadcast against the
    operators, the dissipator brackets are formed once for every point,
    and each product rounds as with scalar coefficients: every point is
    bit for bit its one-point result.
    """
    op = np.asarray(op)
    f = _fields(points, op.ndim)
    h = hamiltonian(points).reshape((-1,) + (1,) * (op.ndim - 2) + (3, 3))
    out = 1j * (h @ op - op @ h)
    # adjoint dissipator for decay channel L: L+ op L - (L+ L op + op L+ L)/2
    ldag_l = _unit(3, 3)
    for rate, lower in ((f["gamma1"], 1), (f["gamma2"], 2)):
        l_op = _unit(lower, 3)
        out += rate * (l_op.conj().T @ op @ l_op
                       - 0.5 * (ldag_l @ op + op @ ldag_l))
    # phenomenological pure dephasing: damps only the 1-2 coherences, so
    # the optical coherences keep their purely radiative width
    deph = np.zeros(op.shape, dtype=complex)
    deph[..., 0, 1] = op[..., 0, 1]
    deph[..., 1, 0] = op[..., 1, 0]
    out -= f["gamma0"] * deph
    return out


def bloch_drift(points: list) -> np.ndarray:
    """9x9 drift matrices A with d<sigma>/dt = A <sigma> over BASIS order,
    one per parameter set of ``points``, shape (k, 9, 9).

    One generator call on the stack of the nine matrix units E_cd:
    d<sigma_cd>/dt = <L(E_cd)>, so row (c, d) of A is L(E_cd) reshaped
    in BASIS (row-major) order.
    """
    units = np.eye(9, dtype=complex).reshape(9, 3, 3)
    # rates beyond float range give a drift that is not finite, which
    # the steady-state solve reports as a failure of its point
    with np.errstate(over="ignore", invalid="ignore"):
        a = apply_generator(points, units)
    return a.reshape(len(points), 9, 9)


def _stationary(drifts: np.ndarray) -> np.ndarray:
    """The normalised null vectors of a stack of drifts, checked, as a
    stack of <sigma_ab> matrices.

    One SVD of the whole finite prefix of the stack gives every null
    space; the rank counts the singular values above 1e-10 of the
    largest, point by point, and one pass checks every state.  The first
    point whose drift is not finite or that has no unique, normalisable,
    physical state raises, with its position in the stack as the error's
    ``index``.
    """
    finite = np.isfinite(drifts).all(axis=(1, 2))
    n = len(drifts) if finite.all() else int(np.argmin(finite))
    _, sv, vh = np.linalg.svd(drifts[:n])
    rank = np.sum(sv > np.amax(sv, axis=1, keepdims=True) * 1e-10, axis=1)
    m = vh[np.arange(n), np.minimum(rank, 8)].conj().reshape(n, 3, 3)
    tr = np.trace(m, axis1=1, axis2=2)
    # the points before the first one without a normalisable state
    good = (rank == 8) & ~(np.abs(tr) < 1e-12)
    stop = n if good.all() else int(np.argmin(good))
    m = m[:stop] / tr[:stop, None, None]
    m = 0.5 * (m + m.conj().transpose(0, 2, 1))  # enforce Hermiticity
    check_states(m, tol=1e-8)
    if stop == len(drifts):
        return m
    if stop == n:
        exc = DegenerateSteadyStateError("Bloch drift is not finite")
    elif rank[stop] == 9:
        exc = DegenerateSteadyStateError("no stationary state found")
    elif rank[stop] < 8:
        exc = DegenerateSteadyStateError(
            f"stationary subspace has dimension {9 - rank[stop]}")
    else:
        exc = DegenerateSteadyStateError("traceless null vector")
    exc.index = stop
    raise exc


def solve(points: list) -> tuple[np.ndarray, np.ndarray]:
    """(states, tables): the steady states and the Langevin diffusion
    tables of the parameter sets ``points``, shapes (k, 3, 3) and
    (k, 6, 6), from one generator call.

    With both drives off (or other degenerate configurations) the ground
    manifold holds a family of stationary states, and
    DegenerateSteadyStateError is raised instead of picking one.

    Every point is solved, and bit for bit as it would be alone.  The
    first point without a valid state raises, with its position in
    ``points`` as the error's ``index``.
    """
    drifts = bloch_drift(points)
    states = _stationary(drifts)
    return states, langevin.diffusion_matrix(drifts, states)


def dark_state_sigma(p) -> np.ndarray:
    """<sigma_ab> matrix of the dark state of the drives of ``p``.

    In the gauge of :func:`hamiltonian` the ground superposition
    omega_p|1> + omega_c|2> has no coupling to |3>, so the matrix is
    d d^T / (omega_p^2 + omega_c^2) with d = (omega_p, omega_c, 0): the
    state a driven atom without ground dephasing is trapped in.  At
    omega_p = omega_c it is (|1> + |2>)/sqrt(2); with the pump off, |2>.
    """
    d = np.array([p.omega_p, p.omega_c, 0.0])
    return np.outer(d, d).astype(complex) / (p.omega_p ** 2 + p.omega_c ** 2)
