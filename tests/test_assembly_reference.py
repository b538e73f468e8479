"""The block assembly against the per-point assembly it replaced.

The functions in the first half of this file are the one-frequency
drift, spin-wave and readout assembly, kept as the oracle; each mode
reads the detuning of its pair from its point's parameters.  The block
assembly (``entanglement.assemble`` on ``propagation.drift_block``)
must reproduce every drift, noise, readout and lump row of it byte for
byte: on random grids that include +-0.0 and the exact pair detunings,
for every coupling, sideband, pair count and spin-wave definition, with
one shared set-up and with one set-up stacked over the points (the
parameter-sweep and calibration shapes), each point at its own pair
detunings.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eitfwm import entanglement as en
from eitfwm import langevin
from eitfwm import propagation as pr
from eitfwm.params import C, derive, reference_params
from eitfwm.propagation import COUPLINGS, SIDEBANDS
from eitfwm.steady_state import solve


@dataclass
class DriftMatrix:
    """Drift M, noise rows Q and channel list at one frequency: the
    container of the per-point assembly below."""

    modes: list
    m: np.ndarray          # 2n x 2n
    q: np.ndarray          # 2n x n_channels, includes the sqrt(c/N) scale
    channels: list


# the per-point assembly warns where a subnormal frequency overflows a
# spin-wave row; the block assembly computes the same values silently
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


# --- the per-point assembly ----------------------------------------------

def _sigma(ss: np.ndarray, a: int, b: int) -> complex:
    """<sigma_ab> of the 3x3 steady state ``ss``, as a Python complex."""
    return complex(ss[a - 1, b - 1])


def _row_terms(ss: np.ndarray, modes: list[FieldMode], p: PhysicalParams,
               dp: DerivedParams, channels: list) -> list:
    """Frequency-independent coefficients of every direct row: (optical
    linewidth, detuning of the mode's pair at ``p``, own term, coherence
    term, noise amplitude, noise column)."""
    col = {ch: k for k, ch in enumerate(channels)}
    s11, s22, s33 = (_sigma(ss, 1, 1).real, _sigma(ss, 2, 2).real,
                     _sigma(ss, 3, 3).real)
    s12 = _sigma(ss, 1, 2)
    g1g2_n = np.sqrt(dp.g1sq_n * dp.g2sq_n)
    terms = []
    for mode in modes:
        detuning = p.delta1 if mode.pair == 1 else p.delta2
        if mode.transition == "13":
            terms.append((dp.gamma13, detuning, dp.g1sq_n * (s11 - s33),
                          g1g2_n * s12, np.sqrt(dp.g1sq_n / C), col[(1, 3)]))
        else:
            terms.append((dp.gamma23, detuning, dp.g2sq_n * (s22 - s33),
                          g1g2_n * np.conj(s12), np.sqrt(dp.g2sq_n / C),
                          col[(2, 3)]))
    return terms


def _direct_blocks(omega: float, terms: list, coupling: str,
                   partner: dict, n_channels: int):
    """Direct-sector rows at one frequency: (to-direct, to-daggered, Q).

    The divisions stay scalar, one frequency at a time: ``1j * omega``
    is a Python complex, so ``den`` is one and several quotients here
    run in CPython's complex arithmetic, which differs from numpy's
    array division in the last bit at a large share of frequencies.
    Evaluating them over a frequency array would change the recorded
    outputs.
    """
    n = len(terms)
    a = np.zeros((n, n), dtype=complex)
    b = np.zeros((n, n), dtype=complex)
    qd = np.zeros((n, n_channels), dtype=complex)
    for k, (gamma, detuning, own, coh, root_g, col) in enumerate(terms):
        den = gamma + 1j * (omega - detuning)
        a[k, k] = -1j * omega / C - own / (C * den)
        j = partner[k]
        if coupling == "as_printed":
            a[k, j] = -coh / (C * den)
        else:
            b[k, j] = -coh / (C * den)
        # i * g * N / (c * den) with the sqrt(c/N) correlator scale folded
        # in, so the raw diffusion table can be used as-is downstream
        qd[k, col] = 1j * root_g / den
    return a, b, qd


@dataclass(frozen=True)
class DriftRows:
    """The frequency-independent part of the drift assembly for one
    steady state, mode set and derived parameter set; ``at`` assembles
    the drift at one frequency from it."""

    modes: list
    channels: list
    terms: list              # per direct row, see _row_terms
    partner: dict            # direct row -> row of its pair partner
    conjugate_columns: list  # noise column driving each daggered row

    def at(self, omega: float, coupling: str = "parametric",
           sideband: str = "mirrored") -> DriftMatrix:
        """Doubled-basis drift and noise coupling at ``omega``."""
        if coupling not in COUPLINGS:
            raise ValueError(f"unknown coupling {coupling!r}")
        if sideband not in SIDEBANDS:
            raise ValueError(f"unknown sideband convention {sideband!r}")
        n = len(self.modes)
        n_channels = len(self.channels)
        omega_dag = -omega if sideband == "mirrored" else omega
        # a drift that is not finite (couplings beyond float range) is
        # reported by the transfer, which checks for it explicitly
        with np.errstate(over="ignore", invalid="ignore"):
            a_p, b_p, q_p = _direct_blocks(omega, self.terms, coupling,
                                           self.partner, n_channels)
            a_m, b_m, q_m = _direct_blocks(omega_dag, self.terms, coupling,
                                           self.partner, n_channels)
        m = np.zeros((2 * n, 2 * n), dtype=complex)
        q = np.zeros((2 * n, n_channels), dtype=complex)
        m[:n, :n] = a_p
        m[:n, n:] = b_p
        # daggered rows: conjugate of the direct rows at omega_dag.  Under
        # "mirrored", conj(-i*(-omega)/C) = -i*omega/C, so the kinetic
        # phase is common to the whole doubled vector; under "same" the
        # daggered sector carries the opposite kinetic phase +i*omega/C,
        # which is the literal elementwise-conjugation treatment.
        m[n:, n:] = np.conj(a_m)
        m[n:, :n] = np.conj(b_m)
        q[:n, :] = q_p
        # the daggered row of channel ch is driven by its conjugate channel
        q[n:, self.conjugate_columns] = np.conj(q_m)
        return DriftMatrix(modes=self.modes, m=m, q=q,
                           channels=self.channels)


def drift_rows(ss: np.ndarray, modes: list[FieldMode], p: PhysicalParams,
               dp: DerivedParams) -> DriftRows:
    """Set up the drift assembly of ``modes`` once for every frequency."""
    channels = list(langevin.FIELD_CHANNELS)
    partner = {}
    for i, mi in enumerate(modes):
        for j, mj in enumerate(modes):
            if i != j and mi.pair == mj.pair:
                partner[i] = j
    with np.errstate(over="ignore", invalid="ignore"):
        terms = _row_terms(ss, modes, p, dp, channels)
    return DriftRows(
        modes=list(modes), channels=channels, terms=terms, partner=partner,
        conjugate_columns=[channels.index(langevin.conjugate_channel(ch))
                           for ch in channels])


def spinwave_rows(omega: float, p: PhysicalParams, ss: np.ndarray,
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
    s13 = _sigma(ss, 1, 3)
    s23 = _sigma(ss, 2, 3)
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

    channels = list(langevin.SPINWAVE_CHANNELS)
    lump_s = np.zeros(len(channels), dtype=complex)
    lump_sdag = np.zeros(len(channels), dtype=complex)
    lump_s[channels.index((1, 2))] = scale / den
    lump_sdag[channels.index((2, 1))] = scale / den_dag
    return row_s, row_sdag, lump_s, lump_sdag, channels


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


# --- the comparison --------------------------------------------------------

CONFIGS = list(itertools.product(COUPLINGS, SIDEBANDS, (False, True),
                                 en.SPINWAVE_DEFINITIONS))

#: analysis frequencies: random ones, signed zeros, the pair detunings of
#: the reference point and their mirror images
_OMEGA = st.one_of(st.floats(-5000.0, 5000.0),
                   st.sampled_from([0.0, -0.0, -1000.0, 1000.0, 5e-324]))

#: rates and scales from 1e-3 to 1e3, log-uniform
_RATE = st.floats(-3.0, 3.0).map(lambda x: 10.0 ** x)

#: pair detunings: those of the reference point, or any in the band
_DETUNING = st.one_of(st.sampled_from([-1000.0, 1000.0]),
                      st.floats(-3000.0, 3000.0))


def _modes(two_pair):
    return pr.TWO_PAIR_MODES if two_pair else pr.SINGLE_PAIR_MODES


def _points(p, omegas, two_pair):
    """(set-up, per-point reference arguments) of the points of one
    parameter set ``p``."""
    (ss,), (two_d,) = solve([p])
    dp = derive(p)
    modes = _modes(two_pair)
    set_up = en.witness_set_up([p], ss[None], two_d[None], modes, [dp])
    rows = drift_rows(ss, modes, p, dp)
    return set_up, [(om, p, ss, two_d, rows, dp) for om in omegas]


def _assert_block_matches(set_up, omegas, reference, config):
    coupling, sideband, _, spinwave = config
    assemble = (_endpoint_readout if spinwave == "endpoint"
                else _z_averaged_readout)
    points = [assemble(om, p, ss, two_d, rows, coupling, dp, sideband)
              for om, p, ss, two_d, rows, dp in reference]
    length = reference[0][1].length
    m, q, channels, r, lump = en.assemble(set_up, omegas, length, coupling,
                                          sideband, spinwave)
    assert list(channels) == points[0].channels
    for name, block in (("m", m), ("q", q), ("r", r)):
        want = np.stack([getattr(pt, name) for pt in points])
        assert block.tobytes() == want.tobytes(), name
    if spinwave == "endpoint":
        want = np.stack([pt.lump for pt in points])
        assert lump.tobytes() == want.tobytes()
    else:
        assert lump is None


def _nonzero_if(gamma0, omegas):
    """The frequencies of ``omegas`` at which the coherence response
    gamma0 + i*omega is not zero: the per-point assembly raised
    ZeroDivisionError there."""
    kept = [om for om in omegas if gamma0 != 0 or om != 0]
    return kept or [1.0]


@settings(deadline=None, max_examples=150)
@given(omegas=st.lists(_OMEGA, min_size=1, max_size=12),
       config=st.sampled_from(CONFIGS),
       gamma0=st.one_of(st.just(0.0), _RATE), scale=_RATE,
       coupling_scale=_RATE)
def test_shared_set_up_block_is_byte_identical(omegas, config, gamma0,
                                               scale, coupling_scale):
    p = reference_params().with_(gamma0=gamma0, spinwave_scale=scale,
                                 coupling_scale=coupling_scale)
    omegas = np.array(_nonzero_if(gamma0, omegas))
    set_up, reference = _points(p, omegas, config[2])
    _assert_block_matches(set_up, omegas, reference, config)


@settings(deadline=None, max_examples=80)
@given(points=st.lists(st.tuples(_OMEGA, st.one_of(st.just(0.0), _RATE),
                                 _RATE, _DETUNING, _DETUNING),
                       min_size=2, max_size=6),
       config=st.sampled_from(CONFIGS), share_steady_state=st.booleans())
def test_stacked_set_up_block_is_byte_identical(points, config,
                                                share_steady_state):
    # one set-up stacked over the points: the steady state changes with
    # gamma0 in a parameter sweep; with a shared steady state only the
    # spin-wave scale changes, as in calibration.  Every point has its
    # own pair detunings, which no steady state reads
    reference = []
    for om, gamma0, scale, delta1, delta2 in points:
        if share_steady_state:
            gamma0 = points[0][1]
        p = reference_params().with_(gamma0=gamma0, spinwave_scale=scale,
                                     delta1=delta1, delta2=delta2)
        (om,) = _nonzero_if(gamma0, [om])
        reference += _points(p, np.array([om]), config[2])[1]
    omegas, params, states, tables, _, derived = zip(*reference)
    set_up = en.witness_set_up(params, np.stack(states), np.stack(tables),
                               _modes(config[2]), derived)
    _assert_block_matches(set_up, np.array(omegas), reference, config)
