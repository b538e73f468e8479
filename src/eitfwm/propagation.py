"""Fourier-domain propagation of the scattered field fluctuations.

After adiabatic elimination of the optical coherences, each field pair
obeys a linear z-evolution at every analysis frequency omega,

    d v / dz = M(omega) v + Q(omega) F(z),

where v stacks the slowly varying mode operators followed by their
daggered partners (doubled basis) and F holds the collective Langevin
forces.  Two bookkeeping conventions for the daggered rows are
implemented:

``sideband="mirrored"`` (default): the Fourier component of a daggered
operator at omega is the dagger of the mode component at -omega, so the
daggered rows of M and Q are the conjugated direct rows evaluated at
the mirrored frequency.  This is the stationary-process convention; it
detunes the daggered sector when the direct sector sits on resonance
and keeps every spectrum even in omega.

``sideband="same"``: daggered rows are elementwise conjugates of the
direct rows at the same omega.  This reproduces frequency-asymmetric
curves, but it re-resonates the daggered sector together with the
direct one; combined with the daggered-partner coupling it manufactures
exponential gain over a wide band and is retained only for the
convention comparison in the verification report.

The transfer matrix T = exp(M L) and the accumulated noise second moment

    C = int_0^L exp(M (L-z)) G exp(M^+ (L-z)) dz,      G = Q S Q^+,

are computed together by repeated interval doubling, which stays
accurate for optical depths of 1e5 and for marginally stable drift
matrices alike (both occur here).  A fixed-step RK4 integrator of the
same quantities is provided as an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import PhysicalParams, DerivedParams, C, derive
from .steady_state import DensityMatrix3
from . import langevin


class NumericalOverflowError(RuntimeError):
    """Transfer gain exceeded the trust ceiling of the linearised model."""


GAIN_CEILING = 1e6

#: couplings of the field-pair drift to the ground coherence: "as_printed"
#: converts the partner mode directly (a couples to b), "parametric"
#: couples each mode to the daggered partner (a couples to b^+), the only
#: variant of the pair that produces anomalous correlations.
COUPLINGS = ("as_printed", "parametric")

#: bookkeeping for the daggered rows, see module docstring.
SIDEBANDS = ("mirrored", "same")


@dataclass(frozen=True)
class FieldMode:
    """One propagating mode of a scattering/generated pair."""

    name: str
    transition: str      # "13" or "23"
    detuning: float      # MHz, shared within a pair
    pair: int            # 1 or 2


def single_pair_modes(p: PhysicalParams) -> list[FieldMode]:
    return [
        FieldMode("a1", "13", p.delta1, 1),
        FieldMode("b1", "23", p.delta1, 1),
    ]


def two_pair_modes(p: PhysicalParams) -> list[FieldMode]:
    return single_pair_modes(p) + [
        FieldMode("b2", "13", p.delta2, 2),
        FieldMode("a2", "23", p.delta2, 2),
    ]


@dataclass
class DriftMatrix:
    """Drift M, noise rows Q and channel list at one frequency."""

    modes: list
    m: np.ndarray          # 2n x 2n
    q: np.ndarray          # 2n x n_channels, includes the sqrt(c/N) scale
    channels: list


def _direct_blocks(omega: float, ss: DensityMatrix3, modes: list[FieldMode],
                   coupling: str, dp: DerivedParams, channels: list,
                   partner: dict):
    """Direct-sector rows at one frequency: (to-direct, to-daggered, Q)."""
    n = len(modes)
    col = {ch: k for k, ch in enumerate(channels)}
    s11, s22, s33 = (ss.sigma(1, 1).real, ss.sigma(2, 2).real,
                     ss.sigma(3, 3).real)
    s12 = ss.sigma(1, 2)
    g1g2_n = np.sqrt(dp.g1sq_n * dp.g2sq_n)

    a = np.zeros((n, n), dtype=complex)
    b = np.zeros((n, n), dtype=complex)
    qd = np.zeros((n, len(channels)), dtype=complex)
    for k, mode in enumerate(modes):
        if mode.transition == "13":
            den = dp.gamma13 + 1j * (omega - mode.detuning)
            own = dp.g1sq_n * (s11 - s33)
            coh = g1g2_n * s12
            own_g = dp.g1sq_n
            noise_ch = (1, 3)
        else:
            den = dp.gamma23 + 1j * (omega - mode.detuning)
            own = dp.g2sq_n * (s22 - s33)
            coh = g1g2_n * np.conj(s12)
            own_g = dp.g2sq_n
            noise_ch = (2, 3)
        a[k, k] = -1j * omega / C - own / (C * den)
        j = partner[k]
        if coupling == "as_printed":
            a[k, j] = -coh / (C * den)
        else:
            b[k, j] = -coh / (C * den)
        # i * g * N / (c * den) with the sqrt(c/N) correlator scale folded
        # in, so the raw diffusion table can be used as-is downstream
        qd[k, col[noise_ch]] = 1j * np.sqrt(own_g / C) / den
    return a, b, qd


def drift_matrix(omega: float, p: PhysicalParams, ss: DensityMatrix3,
                 modes: list[FieldMode] | None = None,
                 coupling: str = "parametric",
                 dp: DerivedParams | None = None,
                 sideband: str = "mirrored") -> DriftMatrix:
    """Assemble the doubled-basis drift and noise coupling at ``omega``."""
    if coupling not in COUPLINGS:
        raise ValueError(f"unknown coupling {coupling!r}")
    if sideband not in SIDEBANDS:
        raise ValueError(f"unknown sideband convention {sideband!r}")
    if modes is None:
        modes = single_pair_modes(p)
    if dp is None:
        dp = derive(p)
    n = len(modes)
    channels = langevin.field_noise_channels()
    col = {ch: k for k, ch in enumerate(channels)}

    partner = {}
    for i, mi in enumerate(modes):
        for j, mj in enumerate(modes):
            if i != j and mi.pair == mj.pair:
                partner[i] = j

    a_p, b_p, q_p = _direct_blocks(omega, ss, modes, coupling, dp,
                                   channels, partner)
    omega_dag = -omega if sideband == "mirrored" else omega
    a_m, b_m, q_m = _direct_blocks(omega_dag, ss, modes, coupling, dp,
                                   channels, partner)
    m = np.zeros((2 * n, 2 * n), dtype=complex)
    q = np.zeros((2 * n, len(channels)), dtype=complex)
    m[:n, :n] = a_p
    m[:n, n:] = b_p
    # daggered rows: conjugate of the direct rows at omega_dag.  Under
    # "mirrored", conj(-i*(-omega)/C) = -i*omega/C, so the kinetic phase
    # is common to the whole doubled vector; under "same" the daggered
    # sector carries the opposite kinetic phase +i*omega/C, which is the
    # literal elementwise-conjugation treatment.
    m[n:, n:] = np.conj(a_m)
    m[n:, :n] = np.conj(b_m)
    q[:n, :] = q_p
    for ch in channels:
        cc = langevin.conjugate_channel(ch)
        q[n:, col[cc]] = np.conj(q_m[:, col[ch]])
    return DriftMatrix(modes=list(modes), m=m, q=q,
                       channels=channels)


def second_moment_transfer(m: np.ndarray, g: np.ndarray, length: float,
                           _theta: float = 2.0 ** -10):
    """T = exp(m*length) and int_0^length exp(m s) g exp(m^+ s) ds.

    Interval-doubling: start from a Taylor step with truncation error
    well below the target accuracy, then double the interval, composing
    the moment integral with the short-interval transfer at every stage.
    The threshold balances truncation (pushes h down) against roundoff
    amplification over the squaring chain (pushes the stage count down);
    2^-10 keeps both near 1e-12 for the matrices met here.  Stable for
    strongly decaying m (entries of T underflow to zero honestly) and
    raises NumericalOverflowError when genuine gain exceeds GAIN_CEILING.
    """
    norm = np.linalg.norm(m, 1) * length
    if not np.isfinite(norm):
        raise NumericalOverflowError("drift matrix is not finite")
    k = max(0, int(np.ceil(np.log2(max(norm, 1e-300) / _theta))))
    h = length / (2 ** k)
    mh = m * h
    mh2 = mh @ mh
    t = np.eye(m.shape[0], dtype=complex) + mh + mh2 / 2.0 \
        + mh2 @ mh / 6.0 + mh2 @ mh2 / 24.0
    gh = np.asarray(g, dtype=complex)
    mg = m @ gh
    mg_h = mg + mg.conj().T
    m2g = m @ mg
    m3g = m @ m2g
    m2g_md = m2g @ m.conj().T
    c = h * (gh + (h / 2.0) * mg_h
             + (h * h / 6.0) * (m2g + m2g.conj().T + 2.0 * (mg @ m.conj().T))
             + (h ** 3 / 24.0) * (m3g + m3g.conj().T
                                  + 3.0 * (m2g_md + m2g_md.conj().T)))
    for _ in range(k):
        c = t @ c @ t.conj().T + c
        t = t @ t
        if not np.all(np.isfinite(t)):
            raise NumericalOverflowError("transfer matrix overflowed")
    gain = np.max(np.abs(t))
    if not np.isfinite(gain) or gain > GAIN_CEILING:
        raise NumericalOverflowError(
            f"transfer gain {gain:.3e} exceeds ceiling {GAIN_CEILING:.0e}")
    c = 0.5 * (c + c.conj().T)
    return t, c


def transfer_step_oracle(m: np.ndarray, g: np.ndarray, length: float,
                         n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-step RK4 integration of dT/dz = m T, dC/dz = m C + C m^+ + g.

    Deliberately naive; exists to cross-check second_moment_transfer.
    """
    dim = m.shape[0]
    t = np.eye(dim, dtype=complex)
    c = np.zeros((dim, dim), dtype=complex)
    h = length / n_steps
    mh = m  # alias for readability in the stage expressions
    for _ in range(n_steps):
        k1t = mh @ t
        k1c = mh @ c + c @ mh.conj().T + g
        t2 = t + 0.5 * h * k1t
        c2 = c + 0.5 * h * k1c
        k2t = mh @ t2
        k2c = mh @ c2 + c2 @ mh.conj().T + g
        t3 = t + 0.5 * h * k2t
        c3 = c + 0.5 * h * k2c
        k3t = mh @ t3
        k3c = mh @ c3 + c3 @ mh.conj().T + g
        t4 = t + h * k3t
        c4 = c + h * k3c
        k4t = mh @ t4
        k4c = mh @ c4 + c4 @ mh.conj().T + g
        t = t + (h / 6.0) * (k1t + 2 * k2t + 2 * k3t + k4t)
        c = c + (h / 6.0) * (k1c + 2 * k2c + 2 * k3c + k4c)
    return t, 0.5 * (c + c.conj().T)


@dataclass
class TransferSolution:
    """Propagated second moments of the field sector at one frequency."""

    omega: float
    modes: list
    t: np.ndarray           # 2n x 2n transfer matrix
    c_noise: np.ndarray     # symmetrised accumulated noise moment
    drift: DriftMatrix


def transfer(omega: float, p: PhysicalParams, ss: DensityMatrix3,
             two_d: np.ndarray,
             modes: list[FieldMode] | None = None,
             coupling: str = "parametric",
             dp: DerivedParams | None = None,
             sideband: str = "mirrored") -> TransferSolution:
    """Full per-frequency transfer: drift assembly plus moment integrals."""
    dm = drift_matrix(omega, p, ss, modes=modes, coupling=coupling, dp=dp,
                      sideband=sideband)
    s_sym = langevin.sym_noise_matrix(two_d, dm.channels)
    g_sym = dm.q @ s_sym @ dm.q.conj().T
    t, c_sym = second_moment_transfer(dm.m, g_sym, p.length)
    return TransferSolution(omega=omega, modes=dm.modes, t=t,
                            c_noise=c_sym, drift=dm)


def vacuum_covariance(n_modes: int) -> np.ndarray:
    """Symmetrised doubled-basis covariance of uncorrelated vacuum."""
    return 0.5 * np.eye(2 * n_modes, dtype=complex)


def output_field_covariance(sol: TransferSolution) -> np.ndarray:
    """Symmetrised doubled-basis covariance of the output fields.

    Coherent displacements of the inputs do not appear: the fluctuation
    covariance of a coherent state is the vacuum one, which is why every
    downstream witness is exactly independent of the input amplitudes.
    """
    n = len(sol.modes)
    c_in = vacuum_covariance(n)
    out = sol.t @ c_in @ sol.t.conj().T + sol.c_noise
    return 0.5 * (out + out.conj().T)


def output_commutators(sol: TransferSolution, two_d: np.ndarray,
                       length: float) -> np.ndarray:
    """Output commutator matrix; direct diagonal must stay at +1.

    The noise moment of the commutator pairing <[F, F^+]> of the
    diffusion table ``two_d`` is accumulated here, by one more transfer
    over ``sol.drift``, so only the commutator audit pays for it.
    """
    dm = sol.drift
    s_comm = langevin.comm_noise_matrix(two_d, dm.channels)
    g_comm = dm.q @ s_comm @ dm.q.conj().T
    _, c_comm = second_moment_transfer(dm.m, g_comm, length)
    n = len(sol.modes)
    j_in = np.diag([1.0] * n + [-1.0] * n).astype(complex)
    return sol.t @ j_in @ sol.t.conj().T + c_comm
