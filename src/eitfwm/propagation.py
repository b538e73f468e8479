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
matrices alike (both occur here).  Every function here works on stacks
of (d, d) matrices, so the sweeps and the built-in checks evaluate many
frequencies per call; one frequency is a stack of one.  The doubling
kernel (``second_moment_transfer_stack``) sorts the matrices by stage
count, descending, and doubles them in sub-stacks of at most
BLOCK_ENTRIES entries whatever the length of the stack: one start step
and one stage loop per sub-stack, each stage on the shrinking prefix of
the matrices that still have stages to go.  It checks for finite values
once, after the last doubling stage: an inf or nan in T persists
through every further squaring, so the end check catches every
overflow.  A stage maps (T, C) to (T^2, T C T^+ + C).  Where the
matrix size d is a multiple of 4 (the endpoint states, 4x4 and 8x8),
C and T sit side by side and one product T [C | T] gives T C and T^2:
two products per stage instead of three, and T^+ is read from the
conjugate of the whole contiguous buffer.  Measured on
OpenBLAS's zgemm, a product's columns keep their bits where its right
operand is cut after a multiple of 4 columns, and C's only where C ends
the right operand, so the fused product keeps every bit only at such
d.  The z-averaged states (10x10, 18x18) keep the separate products
but square only the live columns of T: their drift [[M, 0, 0], [I, 0,
0], [0, 0, 0]] (fields, their z-integrals, two force integrals) is zero
past the 2n field columns, and a zero column of the drift is a unit
column of T (Van Loan, IEEE TAC 23 (1978) 395).  A mode set is
structure (SINGLE_PAIR_MODES, TWO_PAIR_MODES), the detunings are
parameters: ``drift_rows`` takes each row's detuning from its point by
pair, as it takes its linewidth by transition.  The drift is assembled
for a block of frequencies at once (``drift_block``), bit for bit as
one frequency at a time, its nonzero entries scattered into zeros
built once per mode set.  A fixed-step RK4 integrator of the same
quantities, also stack-aware, is provided as an independent
cross-check: per frequency it precomputes
the RK4 step map and the map of a block of MARCH_BLOCK = 16 steps, a
power formed by successive products with the step map, never by
squaring, and marches the leftover single steps, then the blocks (see
``transfer_step_oracle``).  The output covariance T c_in T^+ + C of a
diagonal input c_in = diag(w) on the first len(w) rows and zero on any
further rows (``output_covariance``) takes those columns T_w of T and
forms (T_w w) T_w^+ + C: one product instead of two, with the bits of
the product with c_in.  Vacuum fields weigh their 2n doubled rows by
0.5; the commutator audit's J weighs them by (1, ..., 1, -1, ..., -1).
"""

from __future__ import annotations

import collections
import functools
from dataclasses import dataclass

import numpy as np

from .params import C
from . import langevin


class NumericalOverflowError(RuntimeError):
    """Numerical failure at the point ``index`` of a stacked call: the
    transfer overflowed or exceeded the trust ceiling of the linearised
    model, or the readout has no finite row there.  A calibration fit
    whose optimum is no usable scale raises it without an ``index``."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index

    def at_frequency(self, omegas) -> NumericalOverflowError:
        """This failure with its point named by its frequency, taken
        from the frequencies ``omegas`` of the stack at ``index``."""
        return NumericalOverflowError(
            f"{self} at omega = {omegas[self.index]:g} MHz", self.index)


GAIN_CEILING = 1e6

#: steps per block of the RK4 oracle's march, see transfer_step_oracle
MARCH_BLOCK = 16

#: most entries (matrices x d x d) the interval doubling evaluates as
#: one stack: 256 matrices of 4x4, 12 of 18x18.  Bounds the kernel's
#: working memory whatever the length of the stack it is given.
BLOCK_ENTRIES = 4096

#: largest ||m||_1 * h of the Taylor start step of the interval
#: doubling, see second_moment_transfer_stack
DOUBLING_THETA = 2.0 ** -10

#: couplings of the field-pair drift to the ground coherence: "as_printed"
#: converts the partner mode directly (a couples to b), "parametric"
#: couples each mode to the daggered partner (a couples to b^+), the only
#: variant of the pair that produces anomalous correlations.
COUPLINGS = ("as_printed", "parametric")

#: bookkeeping for the daggered rows, see module docstring.
SIDEBANDS = ("mirrored", "same")


@dataclass(frozen=True)
class FieldMode:
    """One propagating mode of a scattering/generated pair; its detuning,
    delta1 or delta2 by pair, is a parameter of each point."""

    name: str
    transition: str      # "13" or "23"
    pair: int            # 1 or 2


#: the modes of the first field pair, and of both pairs
SINGLE_PAIR_MODES = (FieldMode("a1", "13", 1), FieldMode("b1", "23", 1))
TWO_PAIR_MODES = SINGLE_PAIR_MODES + (FieldMode("b2", "13", 2),
                                      FieldMode("a2", "23", 2))


def complex_quotient(a, b) -> np.ndarray:
    """a / b elementwise, bit for bit as CPython's complex division:
    Smith's method (CACM 5 (1962) 435), which divides where numpy's
    complex division multiplies by a reciprocal.  Warnings are silenced;
    a zero divisor gives nan."""
    a, b = np.asarray(a), np.asarray(b)
    with np.errstate(all="ignore"):
        # scale by the larger part x of b; y is its other part, and u, v
        # are the parts of a in the same order
        by_real = np.abs(b.real) >= np.abs(b.imag)
        x = np.where(by_real, b.real, b.imag)
        y = np.where(by_real, b.imag, b.real)
        u = np.where(by_real, a.real, a.imag)
        v = np.where(by_real, a.imag, a.real)
        ratio = y / x
        denom = x + y * ratio
        t = u * ratio
        re = (u + v * ratio) / denom
        im = np.where(by_real, v - t, t - v) / denom
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


ModeIndex = collections.namedtuple(
    "ModeIndex", "swap transition pair spinwave per_row drift noise zeros")


@functools.lru_cache(maxsize=None)
def _mode_set(structure: tuple) -> ModeIndex:
    """Read-only index arrays of the modes whose (transition, pair) are
    ``structure``, built once per mode set: the doubled basis's halves
    swapped, each mode's transition (0 for 1-3, 1 for 2-3), pair (0, 1)
    and spin-wave column (1-3 modes direct, 2-3 modes daggered), the
    gather of each row's coefficients from the transitions', the (row,
    column) scatters of the nonzero drift entries under each of COUPLINGS
    and of the noise entries, and the zeros of [M | Q], 0 - 0j in the
    daggered rows."""
    channels, n = langevin.FIELD_CHANNELS, len(structure)
    rows = np.arange(n)
    transition = np.array([t == "23" for t, _ in structure], dtype=int)
    pair = np.array([p for _, p in structure]) - 1
    partner = np.array([j for i, (_, pi) in enumerate(structure)
                        for j, (_, pj) in enumerate(structure)
                        if i != j and pi == pj])
    columns = [channels.index((1 + t, 3)) for t in transition.tolist()]
    conjugate = [channels.index(langevin.conjugate_channel(channels[k]))
                 for k in columns]
    # (rows, columns) of each (diagonal or partner column, half, mode):
    # the direct rows, then the daggered ones, the direct rows with the
    # halves of the basis swapped and each channel by its conjugate one
    diagonal = [rows, rows + n]
    drift = [[[diagonal, diagonal],
              [diagonal, [partner + n * c, partner + n * (1 - c)]]]
             for c in range(len(COUPLINGS))]
    noise = [[rows, rows + n], [columns, conjugate]]
    zeros = np.zeros((2 * n, 2 * n + len(channels)), dtype=complex)
    zeros[n:] = np.conj(zeros[n:])
    index = ModeIndex(
        np.roll(np.arange(2 * n), n), transition, pair, rows + n * transition,
        np.concatenate([transition, transition + 2, transition + 4]),
        np.array(drift), np.array(noise), zeros)
    for array in index:
        array.flags.writeable = False
    return index


@dataclass
class DriftRows:
    """The frequency-independent coefficients of the direct drift rows
    of one mode set (``index``); arrays have a leading axis over points,
    each at its own parameters, steady state and derived parameters.
    Not frozen: a frozen __init__ pays an object.__setattr__ per field
    and call."""

    gamma: np.ndarray           # (k, n) optical linewidth of each row
    detuning: np.ndarray        # (k, n) detuning of each row's pair
    # (k, 3n) complex: each row's own term, its noise amplitude times i,
    # and minus its coherence term
    terms: np.ndarray
    index: ModeIndex            # index arrays of the mode set, _mode_set


def drift_rows(points: list, states: np.ndarray, modes,
               derived: list) -> DriftRows:
    """Set up the drift assembly of ``modes`` once for every frequency,
    for each of the parameter sets ``points`` with its steady state in
    ``states`` (shape (k, 3, 3)) and its derived parameters in
    ``derived``.  Every product has a real factor, so each point's rows
    are bit for bit those of a scalar evaluation."""
    index = _mode_set(tuple([(mode.transition, mode.pair) for mode in modes]))
    # per point and pair (delta1, delta2), then gathered per mode
    detuning = np.array([(q.delta1, q.delta2)
                         for q in points]).reshape(-1, 2)[:, index.pair]
    # per point and transition (1-3, 2-3), then gathered per mode
    g_sq, gamma = np.array([
        (dp.g1sq_n, dp.g2sq_n, dp.gamma13, dp.gamma23) for dp in derived
    ]).reshape(-1, 2, 2).swapaxes(0, 1)
    pops = states.reshape(-1, 9)[:, ::4].real
    s12 = states[:, 0, 1]
    with np.errstate(over="ignore", invalid="ignore"):
        g1g2_n = np.sqrt(g_sq[:, :1] * g_sq[:, 1:])
        terms = np.concatenate([
            g_sq * (pops[:, :2] - pops[:, 2:]), 1j * np.sqrt(g_sq / C),
            -(g1g2_n * np.array([s12, np.conj(s12)]).T)], axis=1)
    return DriftRows(gamma=gamma[:, index.transition], detuning=detuning,
                     terms=terms[:, index.per_row], index=index)


def _direct_sector(rows: DriftRows, omega: np.ndarray) -> np.ndarray:
    """The nonzero entries of the direct rows at the frequencies
    ``omega``, of shape (..., N, 1): (diagonal, partner column, noise),
    each of shape (..., N, n).  ``den`` was a Python complex in the
    one-frequency assembly: the quotients of Python numbers run as
    CPython's, that of the coherence term, a numpy complex, as numpy's.
    Every product has a real or imaginary factor, so numpy's complex
    multiply, fused or not, rounds it as CPython does.  The kinetic
    term -i omega / C has the entries (+0, -omega / C) of CPython's
    quotient at every finite omega, +-0 included."""
    den = rows.gamma + 1j * (omega - rows.detuning)
    c_den = C * den
    n = len(rows.index.transition)
    kinetic = -1j * (omega / C)
    # own / (C * den), and i * g * N / (c * den) with the sqrt(c/N)
    # correlator scale folded in to use the raw diffusion table as-is
    quotients = complex_quotient(rows.terms[:, :2 * n],
                                 np.concatenate([c_den, den], axis=-1))
    out = np.empty((3,) + den.shape, dtype=complex)
    np.subtract(kinetic, quotients[..., :n], out[0])
    np.divide(rows.terms[:, 2 * n:], c_den, out[1])
    out[2] = quotients[..., n:]
    return out


def drift_block(rows: DriftRows, omegas, coupling: str = "parametric",
                sideband: str = "mirrored"):
    """Doubled-basis drift and noise coupling (m, q) at every frequency
    of ``omegas``, shapes (N, 2n, 2n) and (N, 2n, n_channels); each
    matrix bit for bit the one-frequency assembly of the same rows."""
    if coupling not in COUPLINGS:
        raise ValueError(f"unknown coupling {coupling!r}")
    if sideband not in SIDEBANDS:
        raise ValueError(f"unknown sideband convention {sideband!r}")
    omega = np.asarray(omegas, dtype=float)[:, None]
    omega_dag = -omega if sideband == "mirrored" else omega
    # a drift that is not finite (couplings beyond float range) is
    # reported by the transfer, which checks for it explicitly
    with np.errstate(over="ignore", invalid="ignore"):
        entries = _direct_sector(rows, np.array([omega, omega_dag]))
    # daggered rows: conjugate of the direct rows at omega_dag, halves
    # swapped.  Under "mirrored", conj(-i*(-omega)/C) = -i*omega/C, so
    # the kinetic phase is common to the whole doubled vector; under
    # "same" the daggered sector carries the opposite kinetic phase
    # +i*omega/C, which is the literal elementwise-conjugation treatment.
    # The daggered row of channel ch is driven by its conjugate channel
    # (ModeIndex.noise)
    np.conjugate(entries[:, 1], entries[:, 1])
    index, n = rows.index, len(rows.index.transition)
    m = index.zeros[:, :2 * n][None].repeat(len(omega), axis=0)
    q = index.zeros[:, 2 * n:][None].repeat(len(omega), axis=0)
    at = index.drift[COUPLINGS.index(coupling)]
    m[:, at[0], at[1]] = entries[:2].transpose(2, 0, 1, 3)
    q[:, index.noise[0], index.noise[1]] = entries[2].swapaxes(0, 1)
    return m, q


def dagger(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of every matrix of a stack."""
    return x.conj().swapaxes(-1, -2)


def hermitian_part(x: np.ndarray) -> np.ndarray:
    """0.5 * (x + x^+), matrix by matrix."""
    return 0.5 * (x + dagger(x))


def noise_drive(q: np.ndarray, s: np.ndarray) -> np.ndarray:
    """q s q^+: a channel covariance ``s`` seen through the rows ``q``."""
    return q @ s @ dagger(q)


def _start_transfer(mh: np.ndarray, live: int) -> np.ndarray:
    """The degree-4 Taylor polynomial of exp(mh), matrix by matrix, each
    power formed over the ``live`` columns of _live_columns only, the
    others being zero: a product with the first ``live`` columns of its
    right operand, into one zeroed buffer of the three powers."""
    mh2, mh3, mh4 = np.zeros((3,) + mh.shape, dtype=complex)
    np.matmul(mh, mh[..., :live], mh2[..., :live])
    np.matmul(mh2, mh[..., :live], mh3[..., :live])
    np.matmul(mh2, mh2[..., :live], mh4[..., :live])
    return _identity(mh.shape[-1]) + mh + mh2 / 2.0 + mh3 / 6.0 + mh4 / 24.0


def _live_columns(m: np.ndarray) -> int:
    """The leading columns of the stack ``m`` that the doubling forms:
    those up to the last one that is nonzero (nan counts) in some
    matrix, rounded up to a multiple of 4, at most the size d.  A column
    that is zero in every drift is a unit column of exp(m h) and zero in
    each power of m h.  Measured on OpenBLAS's zgemm, a product with the
    first ``live`` columns of its right operand has the bits of those
    columns of the whole product where ``live`` is a multiple of 4 or d,
    and not always otherwise (d = 4, live = 1, 2, 3)."""
    nonzero = np.logical_or.reduce(m, axis=(0, 1))
    # one past the last nonzero column; d where no column is nonzero
    end = len(nonzero) - int(np.argmax(nonzero[::-1]))
    return min(len(nonzero), -(-end // 4) * 4)


#: the complex d x d identity, a read-only view built once per size
_identity = functools.lru_cache(maxsize=None)(
    lambda d: np.broadcast_to(np.eye(d, dtype=complex), (d, d)))


def _start_steps(length: float, runs: list) -> tuple:
    """(h, h^3): the start step h = length / 2^k of every matrix of a
    stack and its cube, the stack holding the ``runs`` (k, first, end)
    of its stage counts: scalars where it holds one count, as a matrix
    doubled alone has them, else arrays of shape (n, 1, 1).

    Both come from one numpy float scalar per count: numpy's array power
    does not round h ** 3 as the scalar power does (in about 5 % of
    (length, k) pairs, e.g. at length 1.4424519675836176), and a matrix
    must get the bits it gets alone.  A numpy float, not a Python one,
    so that the k = 1024 of a norm near the float maximum stays in range
    and the cube of a huge step overflows to inf instead of raising."""
    hs = [np.ldexp(np.float64(length), -k) for k, _, _ in runs]
    cubes = [h ** 3 for h in hs]
    if len(runs) == 1:
        return hs[0], cubes[0]
    sizes = [end - first for _, first, end in runs]
    return (np.repeat(hs, sizes)[:, None, None],
            np.repeat(cubes, sizes)[:, None, None])


def _start_moment(m: np.ndarray, g: np.ndarray, h, h3) -> np.ndarray:
    """The moment integral over a step ``h``, to fourth order in h, with
    the cube ``h3`` of the step from _start_steps.  Each power of m is
    dropped once the last term using it is summed, so that few stacks
    are live at a time."""
    g = np.asarray(g, dtype=complex)
    md = dagger(m)
    mg = m @ g
    m2g = m @ mg
    c = g + (h / 2.0) * (mg + dagger(mg))
    c += (h * h / 6.0) * (m2g + dagger(m2g) + 2.0 * (mg @ md))
    del mg
    m2g_md = m2g @ md
    m3g = m @ m2g
    del m2g, md
    m3g += dagger(m3g)
    m2g_md += dagger(m2g_md)
    c += (h3 / 24.0) * (m3g + 3.0 * m2g_md)
    return h * c


def _doubling(m: np.ndarray, g: np.ndarray, length: float, ks: np.ndarray):
    """(T, C) of a Taylor start step plus k_i doublings for every matrix
    i of a stack sorted by its stage counts ``ks``, descending; C is
    returned Hermitian.

    Stage s doubles the prefix of the matrices with k_i >= s, so a
    matrix that has had its k_i stages is no longer touched, and every
    matrix gets the products of doubling it alone.  The prefix changes
    only where a count ends, so the stages run in segments, each on
    views made once.  The stages ping-pong between two buffers, and
    matrix i ends in buffer k_i % 2; the matrices that end in the other
    buffer than those of the largest count are copied over once, at the
    end."""
    # the run [first, end) of each count, largest first
    counts = ks.tolist()
    runs = [(k, counts.index(k), counts.index(k) + counts.count(k))
            for k in sorted(set(counts), reverse=True)]
    h, h3 = _start_steps(length, runs)
    d = m.shape[-1]
    # why 4: on OpenBLAS 0.3.31's zgemm (core types SkylakeX and
    # Haswell) T [C | T] has the bits of T C and T T at d = 4, 8, ...,
    # 24, and moves C by ~1e-26 at d = 2, 6, 10, 14, 18, where C would
    # have to end the right operand; only a multiple of 4 takes the fused
    # stage.  The others square only the live columns of T
    # (_live_columns); the rest are the unit columns of the start step,
    # which both buffers hold
    fused = d % 4 == 0
    live = d if fused else _live_columns(m)
    t = _start_transfer(m * h, live)
    c = _start_moment(m, g, h, h3)
    tct = np.empty_like(t)
    if fused:
        # buffers [C | T]; a stage reads one and writes the other
        start = np.concatenate([c, t], axis=-1)
        buffers = (start, np.empty_like(start))
        del c, t, start
    else:
        # T ping-pongs, C is doubled in place
        buffers, tc = (t, t.copy()), np.empty_like(t)
    # a stage reads T^+ as a transposed view of the conjugate of the
    # whole buffer it reads, formed once T^2 is, into a contiguous
    # buffer: ufuncs run a contiguous operand faster than the T half of
    # [C | T], and conjugating T in place would leave 1 - 0j in the unit
    # columns of the buffer that the next stage reads as T.  The outputs
    # are passed positionally and the ufuncs bound to local names: keyword
    # parsing and attribute lookups are a measurable share of a
    # one-matrix stage
    matmul, conjugate, add = np.matmul, np.conjugate, np.add
    bar = np.empty_like(buffers[0])
    done = 0
    for k, _, n in reversed(runs):
        now, then = buffers[done % 2][:n], buffers[1 - done % 2][:n]
        tct_n, bar_n = tct[:n], bar[:n]
        t_dag = bar_n[..., -d:].swapaxes(-1, -2)
        if fused:
            now, then = ((b, b[..., :d], b[..., d:]) for b in (now, then))
            for _ in range(k - done):
                (ct, c_n, t_n), (ct_next, tc_n, _) = now, then
                # [T C | T^2], then T C T^+ + C in place of T C
                matmul(t_n, ct, ct_next)
                conjugate(ct, bar_n)
                matmul(tc_n, t_dag, tct_n)
                add(tct_n, c_n, tc_n)
                now, then = then, now
        else:
            c_n, tc_n = c[:n], tc[:n]
            now, then = ((b, b[..., :live]) for b in (now, then))
            for _ in range(k - done):
                (t_n, t_live), (_, t_next) = now, then
                matmul(t_n, c_n, tc_n)
                matmul(t_n, t_live, t_next)
                conjugate(t_n, bar_n)
                matmul(tc_n, t_dag, tct_n)
                add(tct_n, c_n, c_n)
                now, then = then, now
        done = k
    # done is the largest count now
    out = buffers[done % 2]
    for k, first, end in runs:
        if (done - k) % 2:
            out[first:end] = buffers[k % 2][first:end]
    if fused:
        c, out = out[..., :d], out[..., d:]
    return out, hermitian_part(c)


def second_moment_transfer_stack(m: np.ndarray, g: np.ndarray, length: float):
    """T = exp(m*length) and int_0^length exp(m s) g exp(m^+ s) ds for
    every matrix of the stacks ``m`` and ``g``, shape (N, d, d).

    Interval-doubling: start from a Taylor step with truncation error
    well below the target accuracy, then double the interval, composing
    the moment integral with the short-interval transfer at every stage.
    The threshold DOUBLING_THETA balances truncation (pushes h down)
    against roundoff amplification over the squaring chain (pushes the
    stage count down).  At 2^-10 the chain loses the low bits of T - I:
    on fig2's grid T is 1.095e-8 off the eigenbasis closed form at -1000
    MHz, bounded at 2e-8 by
    test_doubling_kernel_against_the_eigenbasis_reference_on_fig2;
    ROADMAP item 4 mends it.  The matrices are sorted by stage count,
    descending (stack order within a count), and cut into sub-stacks of
    at most BLOCK_ENTRIES entries, so the kernel's working memory is
    bounded whatever the length of the stack; a sub-stack that is a
    contiguous run of the stack is read in place.  A sub-stack may mix
    stage counts: stage s doubles its active prefix, the matrices with
    at least s stages, and the prefix shrinks as counts run out.  Each
    matrix gets its own start step and exactly its own stages, so its
    result is bit for bit that of doubling it alone.  Stable for
    strongly decaying m (entries of T underflow to zero honestly).

    A stage takes two stacked products where d is a multiple of 4,
    T [C | T] = [T C | T^2] and (T C) T^+, and three elsewhere, T C,
    (T C) T^+ and T T.  The fused product has the bits of the separate
    ones only at such d (measured on OpenBLAS's zgemm, C must end the
    right operand: at d = 10 and 18 [C | T] moves C by ~1e-26), so both
    forms give the same bits, and the form follows from the size of m
    alone.  The three-product stage forms only the live columns of T^2,
    and every Taylor start only those of its powers: the columns up to the
    last one that is nonzero in some drift of the sub-stack, rounded up
    to a multiple of 4 (the first 2n of a z-averaged drift's 4n + 2,
    all of them elsewhere).  The others are unit columns of T, and a
    product with the first 4k columns of its right operand has the bits
    of those columns of the whole product, so every matrix still gets
    the bits of doubling it alone.

    Failure is checked once, after the last stage: an inf or nan in T
    survives every further squaring, and a matrix that is not doubled
    keeps a T of nan, so one test of the gain, max |T| <= GAIN_CEILING,
    sees every failing matrix.  Overflow is detected and reported
    explicitly, so floating-point warnings are silenced inside the
    kernel.  NumericalOverflowError is raised for the first matrix of
    the stack, in stack order, whose drift is not finite, whose stage
    count is past float range, whose T overflowed or whose gain exceeds
    GAIN_CEILING; its ``index`` attribute is that matrix's position.
    """
    m = np.asarray(m)
    size = max(1, BLOCK_ENTRIES // m.shape[-1] ** 2)
    t, c = np.empty(m.shape, dtype=complex), np.empty(m.shape, dtype=complex)
    t.fill(np.nan)
    with np.errstate(over="ignore", invalid="ignore"):
        # the 1-norm, as np.linalg.norm(m, 1, axis=(-2, -1)) sums it
        norms = np.maximum.reduce(np.add.reduce(np.abs(m), axis=-2),
                                  axis=-1) * length
        # a drift that is finite but whose norm times the length passes
        # 2^1014 has no stage count in float range
        ratio = np.maximum(norms, 1e-300) / DOUBLING_THETA
        countable = np.isfinite(ratio)
        stages = np.where(countable, np.maximum(0, np.ceil(np.log2(ratio))),
                          -1).astype(int)
        # the countable matrices by stage count, descending, in stack
        # order within a count; a sub-stack that is a contiguous run is
        # read in place
        order = (-stages).argsort(kind="stable")
        order = order[:np.count_nonzero(countable)].tolist()
        for lo in range(0, len(order), size):
            run = order[lo:lo + size]
            if run == list(range(run[0], run[0] + len(run))):
                run = slice(run[0], run[0] + len(run))
            t[run], c[run] = _doubling(m[run], g[run], length, stages[run])
        # a T that is not finite, or not doubled (nan), has no entry
        # whose modulus is at most the ceiling
        fine = np.abs(t) <= GAIN_CEILING
    if not fine.all():
        i = int(np.argmin(fine.all(axis=(-2, -1))))
        if not np.isfinite(m[i]).all():
            message = "drift matrix is not finite"
        elif not countable[i]:
            message = (f"drift norm times length {norms[i]:.3e} is past "
                       "the range of the interval doubling")
        elif not np.isfinite(t[i]).all():
            message = "transfer matrix overflowed"
        else:
            message = (f"transfer gain {np.abs(t[i]).max():.3e} exceeds "
                       f"ceiling {GAIN_CEILING:.0e}")
        raise NumericalOverflowError(message, index=i)
    return t, c


def _rk4_step_map(z: np.ndarray) -> np.ndarray:
    """R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 by Horner, matrix by matrix."""
    eye = np.eye(z.shape[-1])
    r = eye + z / 4
    for k in (3, 2, 1):
        r = eye + z @ r / k
    return r


def transfer_step_oracle(m: np.ndarray, g: np.ndarray, length: float,
                         n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-step RK4 integration of dT/dz = m T, dC/dz = m C + C m^+ + g,
    for one matrix or for a stack of them.

    Deliberately naive; exists to cross-check the interval doubling of
    second_moment_transfer_stack.  For constant m one RK4 step of a
    linear equation y' = B y is exactly y <- R(hB) y, with
    R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24.  The step map is built once
    per matrix, T <- R(hm) T and [vec C; 1] <- R(hB) [vec C; 1] with
    B = [[m (x) I + I (x) conj(m), vec g], [0, 0]] in row-major vec.
    Its MARCH_BLOCK-th power, the map of a block of steps, is built by
    MARCH_BLOCK - 1 successive products with the one-step map; the march
    takes n_steps mod MARCH_BLOCK single steps, then n_steps //
    MARCH_BLOCK block steps.  No map is ever squared: powers by
    squaring are what the doubling kernel does, so a squared march would
    share the rounding it is meant to check.
    """
    m = np.asarray(m)
    d = m.shape[-1]
    n = d * d
    eye = np.eye(d)
    b = np.zeros(m.shape[:-2] + (n + 1, n + 1), dtype=complex)
    b[..., :n, :n] = (np.einsum("...ik,jl->...ijkl", m, eye)
                      + np.einsum("ik,...jl->...ijkl", eye, m.conj())
                      ).reshape(m.shape[:-2] + (n, n))
    b[..., :n, n] = np.reshape(g, np.shape(g)[:-2] + (n,))
    step_t, step_c = (_rk4_step_map(z * (length / n_steps)) for z in (m, b))
    n_blocks, n_single = divmod(n_steps, MARCH_BLOCK)
    # T = I and [vec C; 1] = [0; 1] at z = 0
    t = np.broadcast_to(eye, m.shape)
    y = np.zeros(b.shape[:-1] + (1,))
    y[..., n, 0] = 1.0
    for _ in range(n_single):
        t = step_t @ t
        y = step_c @ y
    block_t, block_c = step_t, step_c
    for _ in range(MARCH_BLOCK - 1):
        block_t = step_t @ block_t
        block_c = step_c @ block_c
    for _ in range(n_blocks):
        t = block_t @ t
        y = block_c @ y
    return t, hermitian_part(y[..., :n, 0].reshape(m.shape))


def output_covariance(t: np.ndarray, c_noise: np.ndarray,
                      weights) -> np.ndarray:
    """T c_in T^+ + C for the diagonal input c_in = diag(``weights``) on
    the first len(weights) rows and zero on any further rows: the input
    term is (T_w weights) T_w^+, T_w those columns of ``t``; matrix by
    matrix, bit for bit the product with c_in."""
    columns = t[..., :len(weights)]
    out = (columns * weights) @ dagger(columns)
    out += c_noise
    return out
