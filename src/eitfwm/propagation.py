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
two products per stage instead of three, and the Taylor start gets
its third and fourth powers from one product too.  Measured on
OpenBLAS's zgemm, the fused product keeps every bit only at such d, so
the z-averaged states (10x10, 18x18) keep the separate products.  The
drift is assembled for a block of frequencies at once
(``drift_block``), bit for bit as one frequency at a time.  A
fixed-step RK4 integrator of the same quantities, also stack-aware, is
provided as an independent cross-check: per frequency it precomputes
the RK4 step map and the map of a block of MARCH_BLOCK = 16 steps, a
power formed by successive products with the step map, never by
squaring, and marches the leftover single steps, then the blocks (see
``transfer_step_oracle``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import PhysicalParams, C
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


@dataclass(frozen=True)
class DriftRows:
    """The frequency-independent coefficients of the direct drift rows;
    arrays have a leading axis over points: one entry per steady state
    and derived parameter set, all sharing one mode set."""

    modes: list
    channels: list
    gamma: np.ndarray           # (k, n) optical linewidth of each row
    detuning: np.ndarray        # (k, n)
    own: np.ndarray             # (k, n) own term
    coh: np.ndarray             # (k, n) coherence term, complex
    root_g: np.ndarray          # (k, n) noise amplitude
    columns: tuple              # noise column driving each direct row
    partner: tuple              # row of each row's pair partner
    conjugate_columns: tuple    # noise column driving each daggered row


def drift_rows(states: np.ndarray, modes: list[FieldMode],
               derived: list) -> DriftRows:
    """Set up the drift assembly of ``modes`` once for every frequency,
    for each point of the steady states ``states`` (shape (k, 3, 3)) and
    derived parameters ``derived``.  Every product has a real factor, so
    each point's rows are bit for bit those of a scalar evaluation."""
    channels = langevin.field_noise_channels()
    s11, s22, s33 = (states[:, k, k].real for k in range(3))
    s12 = states[:, 0, 1]
    g1sq_n, g2sq_n, gamma13, gamma23 = (
        np.array([getattr(dp, name) for dp in derived])
        for name in ("g1sq_n", "g2sq_n", "gamma13", "gamma23"))
    with np.errstate(over="ignore", invalid="ignore"):
        g1g2_n = np.sqrt(g1sq_n * g2sq_n)
        # per transition: linewidth, own term, coherence term, noise
        # amplitude and noise channel of a row
        terms = {
            "13": (gamma13, g1sq_n * (s11 - s33), g1g2_n * s12,
                   np.sqrt(g1sq_n / C), (1, 3)),
            "23": (gamma23, g2sq_n * (s22 - s33), g1g2_n * np.conj(s12),
                   np.sqrt(g2sq_n / C), (2, 3)),
        }
    gamma, own, coh, root_g, noise = zip(*(terms[mode.transition]
                                           for mode in modes))
    return DriftRows(
        modes=list(modes), channels=channels,
        gamma=np.stack(gamma, axis=-1),
        detuning=np.array([[mode.detuning for mode in modes]] * len(states)),
        own=np.stack(own, axis=-1), coh=np.stack(coh, axis=-1),
        root_g=np.stack(root_g, axis=-1),
        columns=tuple(channels.index(ch) for ch in noise),
        partner=tuple(j for i, mi in enumerate(modes)
                      for j, mj in enumerate(modes)
                      if i != j and mi.pair == mj.pair),
        conjugate_columns=tuple(
            channels.index(langevin.conjugate_channel(ch))
            for ch in channels))


def _direct_sector(rows: DriftRows, omega: np.ndarray, coupling: str):
    """Direct-sector rows (to-direct, to-daggered, Q) at the frequencies
    ``omega``, of shape (..., N, 1).  ``den`` was a Python complex in the
    one-frequency assembly: the quotients of Python numbers run as
    CPython's, that of the coherence term, a numpy complex, as numpy's.
    Every product has a real or imaginary factor, so numpy's complex
    multiply, fused or not, rounds it as CPython does."""
    den = rows.gamma + 1j * (omega - rows.detuning)
    c_den = C * den
    n = len(rows.modes)
    k = np.arange(n)
    a = np.zeros(den.shape + (n,), dtype=complex)
    b = np.zeros_like(a)
    qd = np.zeros(den.shape + (len(rows.channels),), dtype=complex)
    a[..., k, k] = (complex_quotient(-1j * omega, C)
                    - complex_quotient(rows.own, c_den))
    (a if coupling == "as_printed" else b)[..., k, rows.partner] = \
        -rows.coh / c_den
    # i * g * N / (c * den) with the sqrt(c/N) correlator scale folded
    # in, so the raw diffusion table can be used as-is downstream
    qd[..., k, rows.columns] = complex_quotient(1j * rows.root_g, den)
    return a, b, qd


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
    n = len(rows.modes)
    # a drift that is not finite (couplings beyond float range) is
    # reported by the transfer, which checks for it explicitly
    with np.errstate(over="ignore", invalid="ignore"):
        (a_p, a_m), (b_p, b_m), (q_p, q_m) = _direct_sector(
            rows, np.stack([omega, omega_dag]), coupling)
    # daggered rows: conjugate of the direct rows at omega_dag.  Under
    # "mirrored", conj(-i*(-omega)/C) = -i*omega/C, so the kinetic
    # phase is common to the whole doubled vector; under "same" the
    # daggered sector carries the opposite kinetic phase +i*omega/C,
    # which is the literal elementwise-conjugation treatment.
    m = np.empty((len(omega), 2 * n, 2 * n), dtype=complex)
    m[:, :n, :n], m[:, :n, n:] = a_p, b_p
    m[:, n:, n:], m[:, n:, :n] = np.conj(a_m), np.conj(b_m)
    # the daggered row of channel ch is driven by its conjugate channel;
    # conjugation swaps channels in pairs, so the gather is its own inverse
    q_dag = np.conj(q_m)[..., rows.conjugate_columns]
    return m, np.concatenate([q_p, q_dag], axis=1)


def dagger(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of every matrix of a stack."""
    return np.swapaxes(x.conj(), -1, -2)


def hermitian_part(x: np.ndarray) -> np.ndarray:
    """0.5 * (x + x^+), matrix by matrix."""
    return 0.5 * (x + dagger(x))


def noise_drive(q: np.ndarray, s: np.ndarray) -> np.ndarray:
    """q s q^+: a channel covariance ``s`` seen through the rows ``q``."""
    return q @ s @ dagger(q)


def _start_transfer(mh: np.ndarray) -> np.ndarray:
    """The degree-4 Taylor polynomial of exp(mh), matrix by matrix.
    Where the matrix size is a multiple of 4, one product mh2 [mh | mh2]
    gives mh^3 and mh^4 with the bits of the two separate products, by
    the measured property that lets _doubling fuse its stage."""
    d = mh.shape[-1]
    mh2 = mh @ mh
    if d % 4:
        mh3, mh4 = mh2 @ mh, mh2 @ mh2
    else:
        mh34 = mh2 @ np.concatenate([mh, mh2], axis=-1)
        mh3, mh4 = mh34[..., :d], mh34[..., d:]
    return np.eye(d, dtype=complex) + mh + mh2 / 2.0 + mh3 / 6.0 \
        + mh4 / 24.0


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
    # the prefix doubled at every stage s = 0 .. k_0, the matrices with
    # k_i >= s, and the run [first, end) of each count, largest first
    active = np.searchsorted(-ks, -np.arange(ks[0] + 1), side="right")
    active = active.tolist() + [0]
    runs = [(k, active[k + 1], active[k])
            for k in range(len(active) - 2, -1, -1)
            if active[k + 1] < active[k]]
    h, h3 = _start_steps(length, runs)
    t = _start_transfer(m * h)
    c = _start_moment(m, g, h, h3)
    d = m.shape[-1]
    tct = np.empty_like(t)
    # why 4: on OpenBLAS 0.3.31's Haswell zgemm the fused product
    # T [C | T] has the bits of the separate products T C and T T at
    # d = 4, 8, ..., 24, and not at d = 2, 6, 10, 14, 18 (C moves by
    # ~1e-26); only a multiple of 4 takes the fused stage
    fused = d % 4 == 0
    if fused:
        # buffers [C | T]; a stage reads one and writes the other
        start = np.concatenate([c, t], axis=-1)
        del c, t
    else:
        # T ping-pongs, C is doubled in place
        start, tc = t, np.empty_like(t)
    buffers = (start, np.empty_like(start))
    # a stage conjugates T in place once T^2 is formed from it, and
    # reads T^+ as a transposed view: the buffer it conjugates is
    # written over by the next stage, and a matrix past its last stage
    # is out of the prefix.  The outputs are passed positionally:
    # keyword parsing is a measurable share of a one-matrix stage
    done = 0
    for k, _, n in reversed(runs):
        now, then = buffers[done % 2][:n], buffers[1 - done % 2][:n]
        tct_n = tct[:n]
        if fused:
            now, then = ((b, b[..., :d], b[..., d:],
                          np.swapaxes(b[..., d:], -1, -2))
                         for b in (now, then))
            for _ in range(k - done):
                (ct, c_n, t_n, t_dag), (ct_next, tc_n, _, _) = now, then
                # [T C | T^2], then T C T^+ + C in place of T C
                np.matmul(t_n, ct, ct_next)
                np.conjugate(t_n, t_n)
                np.matmul(tc_n, t_dag, tct_n)
                np.add(tct_n, c_n, tc_n)
                now, then = then, now
        else:
            c_n, tc_n = c[:n], tc[:n]
            now, then = ((b, np.swapaxes(b, -1, -2)) for b in (now, then))
            for _ in range(k - done):
                (t_n, t_dag), (t_next, _) = now, then
                np.matmul(t_n, c_n, tc_n)
                np.matmul(t_n, t_n, t_next)
                np.conjugate(t_n, t_n)
                np.matmul(tc_n, t_dag, tct_n)
                np.add(tct_n, c_n, c_n)
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
    stage count down); 2^-10 keeps both near 1e-12 for the matrices met
    here.  The matrices are sorted by stage count, descending (stack
    order within a count), and cut into sub-stacks of at most
    BLOCK_ENTRIES entries, so the kernel's working memory is bounded
    whatever the length of the stack; a sub-stack that is a contiguous
    run of the stack is read in place.  A sub-stack may mix stage
    counts: stage s doubles its active prefix, the matrices with at
    least s stages, and the prefix shrinks as counts run out.  Each
    matrix gets its own start step and exactly its own stages, so its
    result is bit for bit that of doubling it alone.  Stable for
    strongly decaying m (entries of T underflow to zero honestly).

    A stage takes two stacked products where d is a multiple of 4,
    T [C | T] = [T C | T^2] and (T C) T^+, and three elsewhere, T C,
    (T C) T^+ and T T.  The fused product has the bits of the separate
    ones only at such d (measured on OpenBLAS's zgemm; at d = 10 and 18
    it moves C by ~1e-26), so both forms give the same bits, and the
    form follows from the size of m alone.

    Finiteness is checked once, after the last stage: an inf or nan in
    T survives every further squaring, so the end check sees every
    overflow without a reduction per stage.  Overflow is detected and
    reported explicitly, so floating-point warnings are silenced inside
    the kernel.  NumericalOverflowError is raised for the first matrix
    of the stack, in stack order, whose drift is not finite, whose
    stage count is past float range, whose T overflowed or whose gain
    exceeds GAIN_CEILING; its ``index`` attribute is that matrix's
    position.
    """
    m = np.asarray(m)
    size = max(1, BLOCK_ENTRIES // m.shape[-1] ** 2)
    t = np.empty(m.shape, dtype=complex)
    c = np.empty(m.shape, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(m, 1, axis=(-2, -1)) * length
        # a drift that is finite but whose norm times the length passes
        # 2^1014 has no stage count in float range
        ratio = np.maximum(norms, 1e-300) / DOUBLING_THETA
        countable = np.isfinite(ratio)
        stages = np.full(len(m), -1)
        stages[countable] = np.maximum(0, np.ceil(np.log2(ratio[countable])))
        t[~countable] = np.nan
        # the countable matrices by stage count, descending, in stack
        # order within a count; a sub-stack that is a contiguous run is
        # read in place
        order = np.argsort(-stages, kind="stable")
        order = order[:np.count_nonzero(countable)]
        for lo in range(0, len(order), size):
            run = order[lo:lo + size]
            first = int(run[0])
            if (run == np.arange(first, first + len(run))).all():
                run = slice(first, first + len(run))
            t[run], c[run] = _doubling(m[run], g[run], length, stages[run])
        gain = np.max(np.abs(t), axis=(-2, -1))
    finite_t = np.all(np.isfinite(t), axis=(-2, -1))
    bad = ~countable | ~finite_t | ~(gain <= GAIN_CEILING)
    if np.any(bad):
        i = int(np.argmax(bad))
        if not np.all(np.isfinite(m[i])):
            message = "drift matrix is not finite"
        elif not countable[i]:
            message = (f"drift norm times length {norms[i]:.3e} is past "
                       "the range of the interval doubling")
        elif not finite_t[i]:
            message = "transfer matrix overflowed"
        else:
            message = (f"transfer gain {gain[i]:.3e} exceeds ceiling "
                       f"{GAIN_CEILING:.0e}")
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


def vacuum_covariance(n_modes: int) -> np.ndarray:
    """Symmetrised doubled-basis covariance of uncorrelated vacuum."""
    return 0.5 * np.eye(2 * n_modes, dtype=complex)


def output_covariance(t: np.ndarray, c_noise: np.ndarray,
                      c_in: np.ndarray) -> np.ndarray:
    """T c_in T^+ + C: input moment ``c_in`` carried through the transfer
    ``t`` plus the accumulated noise moment, matrix by matrix."""
    out = t @ c_in @ dagger(t)
    out += c_noise
    return out
