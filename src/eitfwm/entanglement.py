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

Each point is assembled on its own (``readout``); from the transfer to
the witness, blocks of points are evaluated as stacked arrays
(``extended_quadratures``, ``duan_min_stack``).  The one-point
functions ``covariance_with_spinwave`` and ``duan_min`` are calls of
the same code with a block of one.

The coherence mode S is not bosonic: [S, S^+] is proportional to the
ground-state population difference, which vanishes at the symmetric
working point, so its normalization is a free scale (``spinwave_scale``)
fixed by calibration rather than by a commutator argument.  S rows are
therefore excluded from symplectic-form checks, which apply to the
canonical field sector only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import PhysicalParams, DerivedParams, C, derive
from .steady_state import DensityMatrix3
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


@dataclass(frozen=True)
class DuanWitness:
    pair: tuple
    signs: tuple           # (sign in u, sign in v)
    value: float
    entangled: bool


def quadrature_covariance(doubled: np.ndarray) -> np.ndarray:
    """Doubled-basis symmetrised covariance -> quadrature covariance.

    Input ordering is (modes..., daggered modes...); output ordering is
    (x of every mode..., p of every mode...).  The result is real for
    any Hermitian input.  A stack of matrices is transformed matrix by
    matrix.
    """
    dim = doubled.shape[-1]
    if dim % 2:
        raise ValueError("doubled-basis matrix must have even dimension")
    n = dim // 2
    lam = np.zeros((dim, dim), dtype=complex)
    for k in range(n):
        lam[k, k] = 1.0
        lam[k, n + k] = 1.0
        lam[n + k, k] = -1j
        lam[n + k, n + k] = 1j
    out = lam @ doubled @ propagation.dagger(lam)
    return out.real


def spinwave_rows(omega: float, p: PhysicalParams, ss: DensityMatrix3,
                  modes: list, dp: DerivedParams, sideband: str = "mirrored"):
    """Coefficient rows of S and S^+ over the doubled field basis.

    Returns (row_s, row_sdag, lump_s, lump_sdag, channels): the field
    rows have length 2n, the lump rows run over the ground-coherence
    noise channels.  Fields on the 1-3 transition enter S directly, the
    2-3 ones enter daggered; coefficients are steady-state quantities
    divided by the coherence response gamma0 + i*omega.  The daggered
    mode S^+ carries the same response denominator under the mirrored
    sideband convention (conjugation composed with omega -> -omega) and
    the conjugate denominator under the literal same-frequency one.
    The normalization is p.spinwave_scale * sqrt(N).  Like the drift
    assembly, this runs at one frequency: ``scale / den`` is a CPython
    complex quotient, which numpy's array division would not reproduce
    bit for bit.
    """
    scale = p.spinwave_scale
    n = len(modes)
    s13 = ss.sigma(1, 3)
    s23 = ss.sigma(2, 3)
    den = p.gamma0 + 1j * omega
    den_dag = den if sideband == "mirrored" else np.conj(den)

    num = np.zeros(2 * n, dtype=complex)
    for k, mode in enumerate(modes):
        if mode.transition == "13":
            num[k] = -1j * scale * np.sqrt(dp.g1sq_n) * np.conj(s23)
        else:
            num[n + k] = 1j * scale * np.sqrt(dp.g2sq_n) * s13
    row_s = num / den
    # daggered row: conjugate numerator with direct/daggered blocks swapped
    num_dag = np.concatenate([np.conj(num[n:]), np.conj(num[:n])])
    row_sdag = num_dag / den_dag

    channels = langevin.spinwave_noise_channels()
    lump_s = np.zeros(len(channels), dtype=complex)
    lump_sdag = np.zeros(len(channels), dtype=complex)
    lump_s[channels.index((1, 2))] = scale / den
    lump_sdag[channels.index((2, 1))] = scale / den_dag
    return row_s, row_sdag, lump_s, lump_sdag, channels


@dataclass
class ExtendedCovariance:
    """Quadrature covariance over the fields plus the coherence mode.

    ``quad`` is one matrix, or a stack of them along a leading axis for
    ``duan_stack``.
    """

    labels: list
    quad: np.ndarray

    def index(self, name: str) -> int:
        try:
            return self.labels.index(name)
        except ValueError:
            raise UnknownModeError(name) from None

    def _pair(self, name_i: str, name_j: str):
        prefer = PREFERRED_SIGNS.get((name_i, name_j)) \
            or PREFERRED_SIGNS.get((name_j, name_i))
        return self.index(name_i), self.index(name_j), prefer

    def duan(self, name_i: str, name_j: str) -> DuanWitness:
        w = duan_min(self.quad, *self._pair(name_i, name_j))
        return DuanWitness(pair=(name_i, name_j), signs=w.signs,
                           value=w.value, entangled=w.entangled)

    def duan_stack(self, name_i: str, name_j: str):
        """(values, signs) of the pair witness at every matrix of a stack."""
        return duan_min_stack(self.quad, *self._pair(name_i, name_j))


@dataclass
class Readout:
    """One witness point, assembled and ready for stacked evaluation.

    The propagated state obeys the drift ``m`` with noise rows ``q`` over
    the Langevin ``channels`` of the diffusion table ``two_d``.  ``r``
    reads the extended doubled vector (fields..., S, fields^+..., S^+)
    off the output state.  The endpoint readout adds the collective
    noise of S, rows ``lump`` over ``lump_channels``, taken uncorrelated
    with the optical noises; the z-averaged readout carries that noise
    in the propagated state and has ``lump`` None.
    """

    m: np.ndarray
    q: np.ndarray
    channels: list
    r: np.ndarray
    two_d: np.ndarray
    lump: np.ndarray | None = None
    lump_channels: list | None = None


def _endpoint_readout(omega, p, ss, two_d, rows, coupling, dp, sideband):
    dm = rows.at(omega, coupling, sideband)
    modes = rows.modes
    n = len(modes)
    row_s, row_sdag, lump_s, lump_sdag, spin_ch = spinwave_rows(
        omega, p, ss, modes, dp=dp, sideband=sideband)

    r = np.zeros((2 * n + 2, 2 * n), dtype=complex)
    r[:n, :n] = np.eye(n)
    r[n + 1:2 * n + 1, n:] = np.eye(n)
    r[n, :] = row_s
    r[2 * n + 1, :] = row_sdag

    lump = np.zeros((2 * n + 2, len(spin_ch)), dtype=complex)
    lump[n, :] = lump_s
    lump[2 * n + 1, :] = lump_sdag
    return Readout(m=dm.m, q=dm.q, channels=dm.channels, r=r, two_d=two_d,
                   lump=lump, lump_channels=spin_ch)


def _z_averaged_readout(omega, p, ss, two_d, rows, coupling, dp, sideband):
    """S built from fields averaged along z.

    The z-integrals of the fields and of the ground-coherence forces are
    carried as extra state rows of the propagation (an exact quadrature,
    no stored z-grids), so every cross-correlation between the averaged
    coherence and the output fields is kept.
    """
    dm = rows.at(omega, coupling, sideband)
    modes = rows.modes
    n = len(modes)
    all_ch = list(langevin.CHANNELS)
    dim = 4 * n + 2
    m_aug = np.zeros((dim, dim), dtype=complex)
    m_aug[:2 * n, :2 * n] = dm.m
    m_aug[2 * n:4 * n, :2 * n] = np.eye(2 * n)
    q_aug = np.zeros((dim, len(all_ch)), dtype=complex)
    for k, ch in enumerate(dm.channels):
        q_aug[:2 * n, all_ch.index(ch)] = dm.q[:, k]
    # z-integrals of the coherence forces; sqrt(c/N) puts them on the
    # same raw-diffusion-table footing as the optical rows, the N
    # reappears in the readout normalization below and cancels.
    root_cn = np.sqrt(C / dp.atom_number)
    q_aug[4 * n, all_ch.index((1, 2))] = root_cn
    q_aug[4 * n + 1, all_ch.index((2, 1))] = root_cn

    row_s, row_sdag, lump_s, lump_sdag, spin_ch = spinwave_rows(
        omega, p, ss, modes, dp=dp, sideband=sideband)
    r = np.zeros((2 * n + 2, dim), dtype=complex)
    r[:n, :n] = np.eye(n)
    r[n + 1:2 * n + 1, n:2 * n] = np.eye(n)
    r[n, 2 * n:4 * n] = row_s / p.length
    r[2 * n + 1, 2 * n:4 * n] = row_sdag / p.length
    root_n = np.sqrt(dp.atom_number)
    r[n, 4 * n] = lump_s[spin_ch.index((1, 2))] * root_n / p.length
    r[2 * n + 1, 4 * n + 1] = \
        lump_sdag[spin_ch.index((2, 1))] * root_n / p.length
    return Readout(m=m_aug, q=q_aug, channels=all_ch, r=r, two_d=two_d)


def readout(omega: float, p: PhysicalParams, ss: DensityMatrix3,
            two_d: np.ndarray, rows: propagation.DriftRows, coupling: str,
            sideband: str, spinwave: str, dp: DerivedParams) -> Readout:
    """Assemble one witness point for the spin-wave definition
    ``spinwave`` from the drift set-up ``rows`` of the point's steady
    state, modes and derived parameters; every division runs at this one
    frequency."""
    if spinwave not in SPINWAVE_DEFINITIONS:
        raise ValueError(f"unknown spin-wave definition {spinwave!r}")
    assemble = (_endpoint_readout if spinwave == "endpoint"
                else _z_averaged_readout)
    return assemble(omega, p, ss, two_d, rows, coupling, dp, sideband)


def extended_quadratures(points: list, length: float) -> np.ndarray:
    """Quadrature covariances of a block of readouts, shape (N, 2m, 2m).

    The points share one spin-wave definition, one mode set and the
    cell ``length``.  Every step runs on the whole block as stacked
    arrays: the interval doubling, the output covariance T c_in T^+ + C,
    the extension R C R^+ and the quadrature transform.
    """
    def stack(field):
        return np.stack([getattr(pt, field) for pt in points])

    first = points[0]
    two_d = stack("two_d")
    s = langevin.sym_noise_matrix(two_d, first.channels)
    t, c = propagation.second_moment_transfer_stack(
        stack("m"), propagation.noise_drive(stack("q"), s), length)
    # the fields start in vacuum, any augmented rows at zero
    n = first.r.shape[0] // 2 - 1
    c_in = np.zeros(t.shape[-2:], dtype=complex)
    c_in[:2 * n, :2 * n] = propagation.vacuum_covariance(n)
    out = propagation.output_covariance(t, c, c_in)
    endpoint = first.lump is not None
    if endpoint:
        out = propagation.hermitian_part(out)
    r = stack("r")
    ext = r @ out @ propagation.dagger(r)
    if endpoint:
        ext = ext + propagation.noise_drive(
            stack("lump"), langevin.sym_noise_matrix(two_d,
                                                     first.lump_channels))
    return quadrature_covariance(propagation.hermitian_part(ext))


def covariance_with_spinwave(omega: float, p: PhysicalParams,
                             ss: DensityMatrix3, two_d: np.ndarray,
                             modes: list | None = None,
                             coupling: str = "parametric",
                             sideband: str = "mirrored",
                             spinwave: str = "endpoint",
                             dp: DerivedParams | None = None
                             ) -> ExtendedCovariance:
    """Quadrature covariance of the output fields plus the S mode, read
    out by the spin-wave definition ``spinwave``: a block of one point."""
    if modes is None:
        modes = propagation.single_pair_modes(p)
    if dp is None:
        dp = derive(p)
    point = readout(omega, p, ss, two_d,
                    propagation.drift_rows(ss, modes, dp), coupling,
                    sideband, spinwave, dp)
    labels = [m.name for m in modes] + ["S"]
    return ExtendedCovariance(
        labels=labels, quad=extended_quadratures([point], p.length)[0])


def duan_values(quad: np.ndarray, i: int, j: int, sign_u: int,
                sign_v: int) -> np.ndarray:
    """V = Var(x_i + su*x_j) + Var(p_i + sv*p_j) from a quadrature cov,
    for one matrix or every matrix of a stack."""
    m = quad.shape[-1] // 2
    if not (0 <= i < m and 0 <= j < m):
        raise UnknownModeError(f"mode index out of range: {(i, j)}")
    u = quad[..., i, i] + quad[..., j, j] + 2.0 * sign_u * quad[..., i, j]
    v = quad[..., m + i, m + i] + quad[..., m + j, m + j] \
        + 2.0 * sign_v * quad[..., m + i, m + j]
    return u + v


def duan_value(quad: np.ndarray, i: int, j: int, sign_u: int,
               sign_v: int) -> float:
    """duan_values of one quadrature covariance."""
    return float(duan_values(quad, i, j, sign_u, sign_v))


def duan_min_stack(quad: np.ndarray, i: int, j: int,
                   prefer: tuple | None = None):
    """(values, signs): the smaller of the two sign pairings at every
    matrix of a stack; ties and nan keep the preferred pairing."""
    first, second = (1, -1), (-1, 1)
    if prefer is not None and tuple(prefer) == second:
        first, second = second, first
    v_first = duan_values(quad, i, j, *first)
    v_second = duan_values(quad, i, j, *second)
    take = v_second < v_first
    return (np.where(take, v_second, v_first),
            [second if tk else first for tk in take])


def duan_min(quad: np.ndarray, i: int, j: int,
             prefer: tuple | None = None) -> DuanWitness:
    """Smaller of the two sign pairings; ties keep the preferred one."""
    values, signs = duan_min_stack(quad[None], i, j, prefer=prefer)
    value = float(values[0])
    return DuanWitness(pair=(i, j), signs=signs[0], value=value,
                       entangled=value < 4.0)


def duan_min_over_phases(quad: np.ndarray, i: int, j: int,
                         n_phases: int = 16) -> float:
    """Witness minimized over local phase rotations of both modes.

    The two discrete sign pairings are the 0/pi points of this family;
    scanning it documents that the reported minima are not artifacts of
    a coherence-phase convention.
    """
    m = quad.shape[0] // 2
    best = np.inf
    phases = np.arange(n_phases) * (2.0 * np.pi / n_phases)
    for phi in phases:
        ri = np.eye(2 * m)
        ri[np.ix_([i, m + i], [i, m + i])] = \
            [[np.cos(phi), np.sin(phi)], [-np.sin(phi), np.cos(phi)]]
        qi = ri @ quad @ ri.T
        for psi in phases:
            rj = np.eye(2 * m)
            rj[np.ix_([j, m + j], [j, m + j])] = \
                [[np.cos(psi), np.sin(psi)], [-np.sin(psi), np.cos(psi)]]
            best = min(best, duan_min(rj @ qi @ rj.T, i, j).value)
    return best


def two_mode_squeezed_quadrature(s: float) -> np.ndarray:
    """Quadrature covariance of an ideal two-mode squeezed pair.

    Correlated x, anticorrelated p; the minimizing witness signs are
    ('-' in u, '+' in v) and V = 4*exp(-2s) exactly.
    """
    c, sh = np.cosh(2.0 * s), np.sinh(2.0 * s)
    quad = np.zeros((4, 4))
    quad[:2, :2] = [[c, sh], [sh, c]]
    quad[2:, 2:] = [[c, -sh], [-sh, c]]
    return quad
