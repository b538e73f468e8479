"""Collective-coherence output mode and the Duan inseparability witness.

The propagation stage delivers the symmetrised second moments of the
scattered fields in the doubled operator basis.  Here that matrix is
(optionally) extended with the collective ground-state coherence, read
out either at the cell exit or averaged along the cell, and converted
to quadratures x = a + a^+, p = -i(a - a^+).  A mode pair is flagged
inseparable when

    V = Var(x_i +/- x_j) + Var(p_i -/+ p_j) < 4,

the vacuum benchmark being exactly 4.  Both sign pairings are always
evaluated and the achieving one is recorded, so the witness does not
depend on the unobservable global phase of the ground-state coherence.

Every function here works on stacks: blocks of points are evaluated as
stacked arrays, from the assembly of the drift, noise and readout rows
(``assemble``) to the quadrature covariances (``extended_quadratures``,
or ``field_quadratures`` of the fields alone, on ``field_moments``, the
one field-pair step that calibrate's fit and verify share) and the
witness of a named mode pair (``pair_witness``) or of two mode indices
(``duan_min_stack``).  One point is a block of one; the points of a
block share a mode set, and each has its own parameters.

The coherence mode S is not bosonic: [S, S^+] is proportional to the
ground-state population difference, which vanishes at the symmetric
working point, so its normalization is a free scale (``spinwave_scale``)
fixed by calibration rather than by a commutator argument.  S rows are
therefore excluded from symplectic-form checks, which apply to the
canonical field sector only.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .params import C, derive
from . import langevin
from . import propagation


class UnknownModeError(KeyError):
    """A witness was requested for a mode label not in the covariance."""


SPINWAVE_DEFINITIONS = ("endpoint", "z-averaged")

#: sign conventions (sign in u, sign in v) preferred on exact ties for
#: the named pairs; minimization decides everywhere else.
PREFERRED_SIGNS = {
    ("a1", "b1"): (1, -1),
    ("S", "b1"): (1, -1),
    ("a1", "S"): (-1, 1),
}


def quadrature_covariance(doubled: np.ndarray) -> np.ndarray:
    """Doubled-basis symmetrised covariance -> quadrature covariance.

    Input ordering is (modes..., daggered modes...); output ordering is
    (x of every mode..., p of every mode...).  The result is real for
    any Hermitian input.  A stack of matrices is transformed matrix by
    matrix.

    The frame is L X L^+ with x_k = a_k + a_k^+ and
    p_k = i(a_k^+ - a_k) as the rows of L; its entries are 0, 1 and
    +-i, so the products are sums and differences of rows, then of
    columns.  Every nonzero entry has the bits of the matrix products;
    only the sign of an exact zero can differ from OpenBLAS's zgemm,
    and no sweep stack has one that does.
    """
    dim = doubled.shape[-1]
    if dim % 2:
        raise ValueError("doubled-basis matrix must have even dimension")
    n = dim // 2
    a, a_dag = doubled[..., :n, :], doubled[..., n:, :]
    rows = np.concatenate([a + a_dag, 1j * (a_dag - a)], axis=-2)
    a, a_dag = rows[..., :n], rows[..., n:]
    out = np.concatenate([a + a_dag, 1j * (a - a_dag)], axis=-1)
    return out.real


@dataclass
class WitnessSetUp(propagation.DriftRows):
    """Everything a witness point needs that no frequency changes: the
    drift set-up of one mode set, each point at its own linewidths and
    detunings, plus the spin-wave and noise parts, arrays with the same
    leading axis over points.

    S and S^+ are rows over the doubled field basis: fields on the 1-3
    transition enter S directly, the 2-3 ones daggered, with steady-state
    coefficients ``num`` (``num_dag``) divided by the coherence response
    gamma0 + i*omega, which S^+ shares under the mirrored sideband
    convention and conjugates under the same-frequency one.  The
    normalization is spinwave_scale * sqrt(N).
    """

    two_d: np.ndarray           # (k, 6, 6) diffusion tables
    gamma0: np.ndarray          # (k,) ground-coherence dephasing
    scale: np.ndarray           # (k,) spin-wave normalization
    num: np.ndarray             # (k, 2n)
    num_dag: np.ndarray         # (k, 2n)
    atom_number: np.ndarray     # (k,)


def witness_set_up(points: list, states: np.ndarray, tables: np.ndarray,
                   modes: list, derived: list) -> WitnessSetUp:
    """The set-up of the witness points of the parameter sets ``points``,
    stacked over them, from their steady states (k, 3, 3), diffusion
    tables (k, 6, 6) and derived parameters; the points share the field
    ``modes``.  Every product has a factor with a zero real or imaginary
    part, so each point is bit for bit a scalar evaluation."""
    rows = propagation.drift_rows(points, states, modes, derived)
    scale, gamma0 = np.array([(p.spinwave_scale, p.gamma0)
                              for p in points]).reshape(-1, 2).T
    atom_number, g1sq_n, g2sq_n = np.array(
        [(dp.atom_number, dp.g1sq_n, dp.g2sq_n)
         for dp in derived]).reshape(-1, 3).T
    num = np.zeros((len(points), 2 * len(modes)), dtype=complex)
    # couplings beyond float range are reported by the transfer
    with np.errstate(over="ignore", invalid="ignore"):
        num[:, rows.index.spinwave] = np.array([
            -1j * scale * np.sqrt(g1sq_n) * np.conj(states[:, 1, 2]),
            1j * scale * np.sqrt(g2sq_n) * states[:, 0, 2],
        ]).T[:, rows.index.transition]
    # daggered row: conjugate numerator with direct/daggered blocks swapped
    return WitnessSetUp(
        **vars(rows), two_d=tables, gamma0=gamma0, scale=scale, num=num,
        num_dag=np.conj(num)[:, rows.index.swap], atom_number=atom_number)


def state_dim(n_modes: int, spinwave: str) -> int:
    """Dimension of the propagated state: the doubled fields, plus their
    z-integrals and those of two coherence forces when z-averaged."""
    return 2 * n_modes if spinwave == "endpoint" else 4 * n_modes + 2


def field_labels(modes: list) -> list:
    """Mode labels of a field covariance."""
    return [m.name for m in modes]


def extended_labels(modes: list) -> list:
    """Mode labels of an extended covariance: the fields, then S."""
    return field_labels(modes) + ["S"]


@functools.lru_cache(maxsize=None)
def _readout_frame(n: int, dim: int) -> np.ndarray:
    """The readout of ``n`` modes from a state of dimension ``dim``
    before its S rows: the identity on the doubled fields, zero S and
    S^+ rows; a read-only view, built once per mode set."""
    return np.broadcast_to(np.insert(np.eye(2 * n, dim, dtype=complex),
                                     [n, 2 * n], 0, axis=0), (2 * n + 2, dim))


def assemble(set_up: WitnessSetUp, omegas, length: float,
             coupling: str = "parametric", sideband: str = "mirrored",
             spinwave: str = "endpoint"):
    """(m, q, channels, r, lump) of the witness points at ``omegas``,
    each with a leading axis over the points.

    The state obeys the drifts ``m`` with noise rows ``q`` over the
    Langevin ``channels``; ``r`` reads the extended doubled vector
    (fields..., S, fields^+..., S^+) off the output state.  The endpoint
    readout adds the collective noise of S, rows ``lump`` over the
    ground-coherence channels, uncorrelated with the optical noises.
    The z-averaged one builds S from the fields averaged along the cell
    of ``length``: the z-integrals of the fields and of the coherence
    forces are extra state rows (an exact quadrature), so every
    cross-correlation is kept, and ``lump`` is None.  Each entry is bit
    for bit that of a one-point assembly: ``scale / response`` runs as
    CPython's quotient, the other divisions as numpy's.
    """
    if spinwave not in SPINWAVE_DEFINITIONS:
        raise ValueError(f"unknown spin-wave definition {spinwave!r}")
    omegas = np.asarray(omegas, dtype=float)
    m, q = propagation.drift_block(set_up, omegas, coupling, sideband)
    with np.errstate(all="ignore"):
        den = set_up.gamma0 + 1j * omegas
        den_dag = den if sideband == "mirrored" else np.conj(den)
        row_s = set_up.num / den[:, None]
        row_sdag = set_up.num_dag / den_dag[:, None]
        lump_s = propagation.complex_quotient(set_up.scale, den)
        lump_sdag = (lump_s if sideband == "mirrored"
                     else set_up.scale / den_dag)
        if spinwave != "endpoint":
            # S from the fields averaged along the cell; the N of the
            # force rows' sqrt(c/N) footing cancels against sqrt(N)
            row_s, row_sdag = row_s / length, row_sdag / length
            root_n = np.sqrt(set_up.atom_number)
            lump_s = lump_s * root_n / length
            lump_sdag = lump_sdag * root_n / length
    n = len(set_up.index.transition)
    size = len(omegas)
    dim = state_dim(n, spinwave)
    r = _readout_frame(n, dim)[None].repeat(size, axis=0)
    s = slice(0, 2 * n) if spinwave == "endpoint" else slice(2 * n, 4 * n)
    r[:, n, s] = row_s
    r[:, 2 * n + 1, s] = row_sdag
    if spinwave == "endpoint":
        lump = np.zeros((size, 2 * n + 2, 2), dtype=complex)
        lump[:, n, 0] = lump_s
        lump[:, 2 * n + 1, 1] = lump_sdag
        return m, q, langevin.FIELD_CHANNELS, r, lump
    channels = langevin.CHANNELS
    m_aug = np.zeros((size, dim, dim), dtype=complex)
    m_aug[:, :2 * n, :2 * n] = m
    m_aug[:, 2 * n:4 * n, :2 * n] = np.eye(2 * n)
    q_aug = np.zeros((size, dim, len(channels)), dtype=complex)
    q_aug[:, :2 * n, [channels.index(ch)
                      for ch in langevin.FIELD_CHANNELS]] = q
    # z-integrals of the coherence forces, on the same raw-diffusion-table
    # footing as the optical rows
    root_cn = np.sqrt(C / set_up.atom_number)
    q_aug[:, 4 * n, channels.index((1, 2))] = root_cn
    q_aug[:, 4 * n + 1, channels.index((2, 1))] = root_cn
    r[:, n, 4 * n] = lump_s
    r[:, 2 * n + 1, 4 * n + 1] = lump_sdag
    return m_aug, q_aug, channels, r, None


def field_moments(controls, length: float,
                  pairing=langevin.sym_noise_matrix,
                  sideband: str = "mirrored"):
    """(m, g, t, c) of the field pair at the frequencies of every control
    (q, states, tables, omegas, coupling): the drift rows of q's single
    pair, the drift and noise-drive stacks, each table taken by
    ``pairing`` (langevin.sym_noise_matrix or comm_noise_matrix), then
    the transfer and noise moment of the whole stack from one kernel
    call; a failing matrix is named by its frequency in that stack."""
    stacks = []
    for q, states, tables, omegas, coupling in controls:
        rows = propagation.drift_rows(
            [q], states, propagation.SINGLE_PAIR_MODES, [derive(q)])
        m, noise = propagation.drift_block(rows, omegas, coupling, sideband)
        stacks.append((m, propagation.noise_drive(
            noise, pairing(tables, langevin.FIELD_CHANNELS))))
    m, g = (np.concatenate(part) for part in zip(*stacks))
    try:
        return (m, g) + propagation.second_moment_transfer_stack(m, g, length)
    except propagation.NumericalOverflowError as exc:
        raise exc.at_frequency(_frequencies(controls)) from exc


def _frequencies(controls) -> list:
    """The frequencies of the stack of ``controls``."""
    return [om for control in controls for om in control[3]]


def _quadratures(x: np.ndarray, omegas) -> np.ndarray:
    """Quadrature covariances of the Hermitian parts of the covariances
    ``x`` at ``omegas``, under the caller's errstate; NumericalOverflowError
    names the first that is not finite by its frequency."""
    quad = quadrature_covariance(propagation.hermitian_part(x))
    finite = np.isfinite(quad)
    if not finite.all():
        raise propagation.NumericalOverflowError(
            "extended covariance is not finite",
            index=int(np.argmin(finite.all(axis=(-2, -1))))
        ).at_frequency(omegas)
    return quad


def field_quadratures(controls, length: float,
                      sideband: str = "mirrored") -> np.ndarray:
    """Quadrature covariances of the output fields for vacuum inputs at
    the frequencies of every control (field_moments), shape
    (N, 2n, 2n): the field pair's moments, the vacuum output and its
    quadratures.

    Under the endpoint definition this is the field block of
    extended_quadratures bit for bit: the same drift and kernel call,
    readout rows that are the identity on the fields, no lump noise
    there and an idempotent Hermitian part.  The z-averaged state
    doubles its own larger drift, whose field block agrees to roundoff.

    NumericalOverflowError names the first failing point by its
    frequency: a failed transfer, or a covariance that is not finite (a
    noise moment past float range), with extended_quadratures' message.
    """
    # a covariance that is not finite is reported below, not left to
    # floating-point warnings
    with np.errstate(over="ignore", invalid="ignore"):
        _, _, t, c = field_moments(controls, length, sideband=sideband)
        return _quadratures(
            propagation.output_covariance(t, c, [0.5] * t.shape[-1]),
            _frequencies(controls))


def extended_quadratures(set_up: WitnessSetUp, omegas, length: float,
                         coupling: str = "parametric",
                         sideband: str = "mirrored",
                         spinwave: str = "endpoint") -> np.ndarray:
    """Quadrature covariances of the witness points at ``omegas``, shape
    (N, 2m, 2m).

    The points share one spin-wave definition, one mode set and the
    cell ``length``; ``set_up`` is shared by them or stacked over them.
    Every step runs on the whole block: the assembly, the output
    covariance, the extension R C R^+ and the quadratures; the doubling
    runs in the kernel's sub-stacks of propagation.BLOCK_ENTRIES
    entries, so a large block costs little more working memory.

    NumericalOverflowError names the first failing point by its
    frequency and its ``index``: a failed transfer, an extended
    covariance that is not finite (a coherence response too small for
    the S rows to stay in float range), or a coherence response
    gamma0 + i*omega that vanishes (no dephasing at omega = 0), where S
    has no finite row.
    """
    m, q, channels, r, lump = assemble(set_up, omegas, length, coupling,
                                       sideband, spinwave)
    omegas = np.asarray(omegas, dtype=float)
    (vanishing,) = ((set_up.gamma0 == 0) & (omegas == 0)).nonzero()
    stop = int(vanishing[0]) if vanishing.size else len(omegas)
    # a covariance that is not finite is reported below, not left to
    # floating-point warnings
    with np.errstate(over="ignore", invalid="ignore"):
        g = propagation.noise_drive(
            q, langevin.sym_noise_matrix(set_up.two_d, channels))
        if lump is not None:
            lump_noise = propagation.noise_drive(
                lump, langevin.sym_noise_matrix(
                    set_up.two_d, langevin.SPINWAVE_CHANNELS))
        try:
            # the points before a vanishing response are evaluated
            # first, so that the first failing point is the one reported
            t, c = propagation.second_moment_transfer_stack(
                m[:stop], g[:stop], length)
        except propagation.NumericalOverflowError as exc:
            raise exc.at_frequency(omegas) from exc
        # the block's drift and noise drive are done with: freeing them
        # keeps the readout's working memory off the peak
        del m, q, g
        # the 2n field rows start in vacuum, any augmented rows at zero
        out = propagation.output_covariance(t, c, [0.5] * (r.shape[-2] - 2))
        if lump is not None:
            out = propagation.hermitian_part(out)
        ext = r[:stop] @ out @ propagation.dagger(r[:stop])
        if lump is not None:
            ext += lump_noise[:stop]
        quad = _quadratures(ext, omegas)
    if stop < len(omegas):
        raise propagation.NumericalOverflowError(
            "coherence response gamma0 + i*omega vanishes",
            index=stop).at_frequency(omegas)
    return quad


def _pair_terms(quad: np.ndarray, i: int, j: int) -> tuple:
    """(Var x_i + Var x_j, 2 Cov(x_i, x_j), the same of p) from a
    quadrature cov, for one matrix or every matrix of a stack."""
    m = quad.shape[-1] // 2
    if not (0 <= i < m and 0 <= j < m):
        raise UnknownModeError(f"mode index out of range: {(i, j)}")
    return (quad[..., i, i] + quad[..., j, j], 2.0 * quad[..., i, j],
            quad[..., m + i, m + i] + quad[..., m + j, m + j],
            2.0 * quad[..., m + i, m + j])


def duan_values(quad: np.ndarray, i: int, j: int, sign_u: int,
                sign_v: int) -> np.ndarray:
    """V = Var(x_i + su*x_j) + Var(p_i + sv*p_j) from a quadrature cov,
    for one matrix or every matrix of a stack; the signs are +-1."""
    x, x_cross, p, p_cross = _pair_terms(quad, i, j)
    return (x + sign_u * x_cross) + (p + sign_v * p_cross)


def duan_min_stack(quad: np.ndarray, i: int, j: int,
                   prefer: tuple | None = None):
    """(values, signs): the smaller of the two sign pairings at every
    matrix of a stack, and its (sign_u, sign_v) as an (N, 2) integer
    array; ties and nan keep the preferred pairing.  The pairings share
    their terms, each value bit for bit duan_values'."""
    first, second = (1, -1), (-1, 1)
    x, x_cross, p, p_cross = _pair_terms(quad, i, j)
    v_first = (x + x_cross) + (p - p_cross)
    v_second = (x - x_cross) + (p + p_cross)
    if prefer is not None and tuple(prefer) == second:
        first, second = second, first
        v_first, v_second = v_second, v_first
    take = v_second < v_first
    return (np.where(take, v_second, v_first),
            np.where(take[..., None], second, first))


def pair_witness(quad: np.ndarray, labels: list, pair: tuple):
    """(values, signs) of the witness of the mode ``pair``, named by
    ``labels``, at every matrix of the stack ``quad``; ties keep the
    pair's PREFERRED_SIGNS."""

    def index(name):
        try:
            return labels.index(name)
        except ValueError:
            raise UnknownModeError(name) from None

    name_i, name_j = pair
    prefer = PREFERRED_SIGNS.get((name_i, name_j)) \
        or PREFERRED_SIGNS.get((name_j, name_i))
    return duan_min_stack(quad, index(name_i), index(name_j), prefer)
