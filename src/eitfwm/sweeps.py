"""Parameter sweeps, dip reports, and deterministic result emission.

This module owns grid construction (with automatic refinement near the
pair detunings and a cap on the point count), one block sweep engine
shared by every sweep axis, dip/plateau summaries, the CSV lines and
JSON payloads of a result, and write_text and write_json, which emit
them.  The engine evaluates blocks of consecutive points as stacked
arrays, from the assembly of drift, noise and readout rows through the
interval doubling, output covariance, coherence-mode extension and
quadrature transform to both witness sign branches.  Every sweep
evaluates each distinct witness point once, keyed by the bits of its
frequency and of the swept field if a witness reads it, and every point
takes the result of its key as one array gather; each block of a
parameter sweep first builds one set-up stacked over its points, with
one solve of their steady states and diffusion tables.  A block gives
every point bit for bit the result of a one-point evaluation, so
rerunning a sweep with the same configuration reproduces the output
byte for byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .params import FIELDS, PhysicalParams, ValidationError, derive
from .steady_state import DegenerateSteadyStateError, solve
from . import propagation
from . import entanglement

#: pairs reported for the single-pair and two-pair configurations
SINGLE_PAIRS = (("a1", "b1"), ("a1", "S"), ("S", "b1"))
TWO_PAIR_PAIRS = (("a1", "a2"), ("b1", "b2"), ("a1", "S"), ("S", "b1"))

#: plateau statistics are taken over this band
PLATEAU_BAND = (-2600.0, 600.0)

#: half width of the dense patch the frequency grids place around each
#: pair detuning, MHz
REFINE_HALFWIDTH = 30.0

#: most points a frequency grid may hold, refinement patches included:
#: 50 times the default figure grids.  A sweep keeps its whole result
#: and output text in memory; a single-pair spectrum of 1e5 points took
#: 13 s and 45 MB of peak memory on a 2-core machine.
MAX_GRID_POINTS = 100_000

#: fewest points per block.  A block holds propagation.BLOCK_ENTRIES
#: entries of propagated matrices (points x d x d), 256 points of 4x4
#: and 64 of 8x8, but never fewer than this many: 48 points of 18x18,
#: which the doubling kernel evaluates in sub-stacks of 12.  The
#: assembly, the readout and the witnesses have a fixed cost per block,
#: so they run on the larger block, while the sub-stacks bound the
#: kernel's working memory.  Blocks of 32 points of 18x18 were slower,
#: and blocks of 64 used more memory for no more speed.
MIN_BLOCK_POINTS = 48

#: every field of a parameter set that a witness point reads: all but the
#: coherent amplitudes, which displace the fields and never enter the
#: fluctuation dynamics
WITNESS_FIELDS = tuple(name for name in FIELDS
                       if name not in ("alpha1", "alpha2"))


@dataclass(frozen=True)
class SweepConfig:
    """Model-level switches shared by every sweep experiment."""

    coupling: str = "parametric"
    sideband: str = "mirrored"
    spinwave_definition: str = "endpoint"
    two_pair: bool = False

    def modes(self, p: PhysicalParams):
        if self.two_pair:
            return propagation.two_pair_modes(p)
        return propagation.single_pair_modes(p)

    def pairs(self):
        return list(TWO_PAIR_PAIRS if self.two_pair else SINGLE_PAIRS)


@dataclass
class CorrelationSpectrum:
    """Witness values of every reported pair on a frequency grid."""

    omegas: np.ndarray
    pairs: list
    values: dict            # pair -> array of V
    signs: dict             # pair -> (N, 2) int array of (sign_u, sign_v)
    params: PhysicalParams
    config: SweepConfig
    axis: str = "omega"     # sweep variable of ``omegas``

    @property
    def params_hash(self) -> str:
        return params_hash(self.params, self.config)


@dataclass
class DipReport:
    """Location and shape summary of one spectral feature.

    ``degenerate`` is None for a genuine interior minimum, "edge" when
    the windowed minimum sits on the window boundary (monotone or bump
    shaped data), "flat" when the window shows no structure above float
    noise.  The full width is measured at half depth below the plateau
    median and is NaN when the half-depth contour is not crossed inside
    the window.
    """

    pair: tuple
    omega_star: float
    v_min: float
    plateau_median: float
    width: float
    window: tuple
    degenerate: str | None = None


def params_hash(p: PhysicalParams, config: SweepConfig) -> str:
    # the key "spinwave_scale_override" keeps recorded hashes valid
    payload = {**dataclasses.asdict(p), **dataclasses.asdict(config),
               "spinwave_scale_override": None}
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def omega_grid(start: float, stop: float, n: int, refine_centers,
               p: PhysicalParams) -> np.ndarray:
    """Uniform grid with dense patches of half width REFINE_HALFWIDTH
    inserted around given centers.

    The refinement step is a third of the optical linewidth of ``p``, so
    features of that scale cannot fall between grid points.  The point
    count is checked against MAX_GRID_POINTS before anything is
    allocated; a grid beyond it raises ValidationError naming
    ``n_points`` or the refinement patch that crosses the cap.
    """
    if n > MAX_GRID_POINTS:
        raise ValidationError(
            f"n_points = {n} exceeds the grid cap of {MAX_GRID_POINTS} "
            "points")
    refine_step = derive(p).gamma13 / 3.0
    spans = []
    total = n
    for c in refine_centers:
        lo = max(start, c - REFINE_HALFWIDTH)
        hi = min(stop, c + REFINE_HALFWIDTH)
        if hi > lo:
            # a step that underflows to 0 needs unboundedly many points
            count = (np.ceil((hi - lo) / refine_step) + 1 if refine_step
                     else np.inf)
            total += count
            if total > MAX_GRID_POINTS:
                raise ValidationError(
                    f"refinement patch around {c:g} MHz needs {count:.3g} "
                    f"points at a step of {refine_step:.3g} MHz, past the "
                    f"grid cap of {MAX_GRID_POINTS} points")
            spans.append((lo, hi, int(count)))
    patches = [np.linspace(start, stop, n)]
    patches += [np.linspace(lo, hi, count) for lo, hi, count in spans]
    return np.unique(np.concatenate(patches))


def _set_up(points: list, config: SweepConfig):
    """(set-up, error): the witness set-up stacked over the longest
    prefix of the parameter sets ``points`` that has one (None if the
    first point fails), and the failure of the next point (None if no
    point fails).  Every point is validated before anything is solved.

    One steady_state.solve gives the states and diffusion tables of the
    points.  When a point has no state, the points before it are solved
    again for the prefix.
    """
    derived, error = [], None
    for q in points:
        try:
            derived.append(derive(q))
        except ValidationError as exc:
            error = exc
            break
    points = points[:len(derived)]
    try:
        states, tables = solve(points)
    except (DegenerateSteadyStateError, ValueError) as exc:
        error, points = exc, points[:exc.index]
        states, tables = solve(points)
    if not points:
        return None, error
    return entanglement.witness_set_up(
        points, states, tables, config.modes(points[0]),
        derived[:len(points)]), error


def _naming(exc: Exception, axis: str, value) -> Exception:
    """``exc`` with the swept value appended to its message, same type."""
    return type(exc)(f"{exc}, {axis} = {float(value):g}")


def _sweep(p: PhysicalParams, axis: str, values, omegas,
           config: SweepConfig | None, field: str | None = None
           ) -> CorrelationSpectrum:
    """Evaluate every configured pair witness at the points
    ``(omegas[i], values[i])``, the sweep variable named ``axis``.  In a
    frequency sweep (``field`` None) every point shares the set-up of
    ``p``; in a parameter sweep, the field ``field`` of ``p`` takes each
    of ``values``.

    Every point is ``p`` with at most ``field`` replaced, so its key is
    the bits of its frequency and, if a witness reads ``field`` (it is
    one of WITNESS_FIELDS), of its swept value.  Each distinct key is
    evaluated once, in the order of its first point, and every point
    gathers its values and signs by the index of its key.  The
    evaluated points go in blocks of consecutive points, each holding
    about propagation.BLOCK_ENTRIES entries of propagated matrices but
    at least MIN_BLOCK_POINTS points, evaluated as stacked arrays, from
    the assembly to both sign branches of every witness; the doubling
    kernel splits a larger block into sub-stacks of BLOCK_ENTRIES
    entries.  In a parameter sweep, each block first builds its points'
    set-up as one stack, from one solve of all its points.
    Every point shares the cell length of ``p``.

    A failing sweep reports its first failing point in grid order: a
    numerical failure names its frequency, and in a parameter sweep
    every failure names the swept value of the first point of its key.
    A set-up failure surfaces after the points before it have been
    evaluated, so an earlier failing point still wins.  Partial results
    are discarded so a failed sweep can never emit a truncated file.
    """
    config = config or SweepConfig()
    pairs = config.pairs()
    modes = config.modes(p)
    labels = entanglement.extended_labels(modes)
    dim = entanglement.state_dim(len(modes), config.spinwave_definition)
    size = max(MIN_BLOCK_POINTS, propagation.BLOCK_ENTRIES // dim ** 2)
    grid = np.asarray(values, dtype=float)
    # bits, not values: 0.0 == -0.0, but the two can give signed zeros
    # of opposite sign in the results
    swept = grid if field in WITNESS_FIELDS else np.zeros_like(grid)
    bits = np.stack([swept, omegas], axis=1).view(np.int64)
    _, first, index = np.unique(bits, axis=0, return_index=True,
                                return_inverse=True)
    # the keys in the order of their first points
    order = np.argsort(first)
    first, index = first[order], np.argsort(order)[index]
    values, omegas = grid[first], omegas[first]
    if field is None:
        set_up, error = _set_up([p], config)
        if error is not None:
            raise error
    else:
        points = [p.with_(**{field: x}) for x in values.tolist()]
    # the (values, signs) of every pair, block by block; the first block
    # is empty, so that an empty grid gives empty arrays
    blocks = [[(np.empty(0), np.empty((0, 2), dtype=int))] * len(pairs)]
    for lo in range(0, len(values), size):
        hi = min(lo + size, len(values))
        if field is not None:
            set_up, error = _set_up(points[lo:hi], config)
            hi = lo if set_up is None else lo + len(set_up.gamma0)
        if hi > lo:
            try:
                quad = entanglement.extended_quadratures(
                    set_up, omegas[lo:hi], p.length, config.coupling,
                    config.sideband, config.spinwave_definition)
            except propagation.NumericalOverflowError as exc:
                if field is None:
                    raise
                raise _naming(exc, axis, values[lo + exc.index]) from exc
            blocks.append([entanglement.pair_witness(quad, labels, pair)
                           for pair in pairs])
        if error is not None:
            raise _naming(error, axis, values[hi]) from error
    # every point takes the values and signs of its key
    gathered = [[np.concatenate(parts)[index] for parts in zip(*results)]
                for results in zip(*blocks)]
    return CorrelationSpectrum(
        omegas=grid, pairs=pairs,
        values={pair: v for pair, (v, _) in zip(pairs, gathered)},
        signs={pair: s for pair, (_, s) in zip(pairs, gathered)},
        params=p, config=config, axis=axis)


def sweep_omega(p: PhysicalParams, omegas, config: SweepConfig | None = None
                ) -> CorrelationSpectrum:
    """Evaluate every configured pair witness across the frequency grid;
    every point shares one set-up."""
    omegas = np.asarray(omegas, dtype=float)
    return _sweep(p, "omega", omegas, omegas, config)


def sweep_gamma0(p: PhysicalParams, gamma0s, omega: float = 0.0,
                 config: SweepConfig | None = None) -> CorrelationSpectrum:
    """Witnesses at fixed frequency while the ground-coherence dephasing
    varies; the coherence response denominator changes with it."""
    return _sweep(p, "gamma0", gamma0s, np.full(len(gamma0s), float(omega)),
                  config, field="gamma0")


def sweep_alpha(p: PhysicalParams, alphas, omega: float,
                config: SweepConfig | None = None) -> CorrelationSpectrum:
    """Witnesses versus the coherent input amplitude ``alpha1``.

    The fluctuation dynamics never sees the displacement, so no witness
    reads ``alpha1``: every point has one key, evaluated once, and the
    values are constant by construction.  That the amplitudes reach no
    set-up is tested directly, and verify's
    limit_input_amplitude_independence check propagates three of them.
    """
    return _sweep(p, "alpha", alphas, np.full(len(alphas), float(omega)),
                  config, field="alpha1")


def plateau_median(spec: CorrelationSpectrum, pair, exclude=()) -> float:
    """Median witness over PLATEAU_BAND, excluding given intervals."""
    mask = (spec.omegas >= PLATEAU_BAND[0]) & (spec.omegas <= PLATEAU_BAND[1])
    for lo, hi in exclude:
        mask &= ~((spec.omegas >= lo) & (spec.omegas <= hi))
    if not np.any(mask):
        return float("nan")
    return float(np.median(spec.values[pair][mask]))


def find_dip(spec: CorrelationSpectrum, pair, window) -> DipReport:
    """Windowed minimum of one pair's witness with shape diagnostics.

    The plateau median is refined once: a provisional width taken from
    the first pass excludes three half-widths around the minimum from
    the final plateau estimate.
    """
    om = spec.omegas
    v = spec.values[pair]
    sel = np.flatnonzero((om >= window[0]) & (om <= window[1]))
    if sel.size == 0:
        raise ValueError(f"window {window} contains no grid points")
    vw = v[sel]
    k = int(np.argmin(vw))
    omega_star = float(om[sel[k]])
    v_min = float(vw[k])

    span = float(np.max(vw) - np.min(vw))
    scale = max(abs(float(np.max(vw))), 1.0)
    if span <= 1e-12 * scale:
        med = plateau_median(spec, pair)
        return DipReport(pair=pair, omega_star=omega_star, v_min=med,
                         plateau_median=med, width=float("nan"),
                         window=tuple(window), degenerate="flat")
    if k == 0 or k == vw.size - 1:
        med = plateau_median(spec, pair)
        return DipReport(pair=pair, omega_star=omega_star, v_min=v_min,
                         plateau_median=med, width=float("nan"),
                         window=tuple(window), degenerate="edge")

    def half_width(med):
        target = v_min + 0.5 * (med - v_min)
        left = right = float("nan")
        for i in range(k, 0, -1):
            if vw[i - 1] >= target:
                # linear interpolation between the bracketing points
                f = (target - vw[i]) / (vw[i - 1] - vw[i])
                left = om[sel[i]] + f * (om[sel[i - 1]] - om[sel[i]])
                break
        for i in range(k, vw.size - 1):
            if vw[i + 1] >= target:
                f = (target - vw[i]) / (vw[i + 1] - vw[i])
                right = om[sel[i]] + f * (om[sel[i + 1]] - om[sel[i]])
                break
        return right - left

    med = plateau_median(spec, pair)
    w = half_width(med)
    if np.isfinite(w):
        med = plateau_median(spec, pair,
                             exclude=[(omega_star - 3 * w, omega_star + 3 * w)])
        w = half_width(med)
    return DipReport(pair=pair, omega_star=omega_star, v_min=v_min,
                     plateau_median=med, width=float(w),
                     window=tuple(window), degenerate=None)


# --- default experiment grids -------------------------------------------

def fig_spectrum_grid(p: PhysicalParams) -> np.ndarray:
    return omega_grid(-3000.0, 1000.0, 2001, refine_centers=(p.delta1,), p=p)


def fig_two_pair_grid(p: PhysicalParams) -> np.ndarray:
    return omega_grid(-3000.0, 3000.0, 2001,
                      refine_centers=(p.delta1, p.delta2), p=p)


def fig_gamma0_grid() -> np.ndarray:
    return np.logspace(-2.0, 3.0, 101)


def fig_alpha_grid() -> np.ndarray:
    return np.linspace(0.0, 1000.0, 101)


# --- emission -------------------------------------------------------------

def pair_tag(pair) -> str:
    """Column and key tag of a pair, e.g. ``a1_b1``."""
    return f"{pair[0]}_{pair[1]}"


def fmt_float(x) -> str:
    """17 significant digits: every double reads back exactly."""
    return format(float(x), ".17g")


def csv_lines(spec: CorrelationSpectrum, extra_meta: dict | None = None):
    """Deterministic CSV serialization: '#' metadata, header, 17-digit rows."""
    p = spec.params
    meta = {
        "version": __version__,
        "params_hash": spec.params_hash,
        "axis": spec.axis,
        "coupling": spec.config.coupling,
        "sideband": spec.config.sideband,
        "spinwave_definition": spec.config.spinwave_definition,
        "coupling_scale": fmt_float(p.coupling_scale),
        "spinwave_scale": fmt_float(p.spinwave_scale),
    }
    if extra_meta:
        meta.update(extra_meta)
    lines = [f"# {k} = {v}" for k, v in meta.items()]
    cols = [spec.axis]
    for pair in spec.pairs:
        t = pair_tag(pair)
        cols += [f"V_{t}", f"su_{t}", f"sv_{t}"]
    lines.append(",".join(cols))
    # one format per row: "%.17g" % x is format(x, ".17g") for every
    # Python float, signed zeros, infinities, nan and subnormals
    # included; the rows are formatted lazily so that only one row of
    # cells exists at a time
    row = "%.17g" + ",%.17g,%d,%d" * len(spec.pairs)
    columns = [spec.omegas.tolist()]
    for pair in spec.pairs:
        columns += [spec.values[pair].tolist(), *spec.signs[pair].T.tolist()]
    lines.extend(row % cells for cells in zip(*columns))
    return lines


class OutputError(OSError):
    """An output file could not be written."""


def write_text(lines, out: str | None = None) -> None:
    """Write ``lines``, each ended by a newline, to the file ``out``, or
    to stdout when ``out`` is None or empty.

    A file that cannot be opened or written raises OutputError; a write
    that fails once the file is open removes the file, so no partial
    output is left behind."""
    text = "\n".join(lines) + "\n"
    if not out:
        sys.stdout.write(text)
        return
    try:
        fh = open(out, "w")
    except OSError as exc:
        raise OutputError(f"cannot write output: {exc}") from None
    try:
        with fh:
            fh.write(text)
    except OSError as exc:
        if os.path.isfile(out):
            os.remove(out)
        raise OutputError(f"cannot write output: {exc}") from None


def summary_payload(spec: CorrelationSpectrum, dips=()) -> dict:
    p = spec.params
    dp = derive(p)
    return {
        "version": __version__,
        "params": dataclasses.asdict(p),
        "derived": dataclasses.asdict(dp),
        "config": {
            **dataclasses.asdict(spec.config),
            "spinwave_scale": p.spinwave_scale,
            "params_hash": spec.params_hash,
        },
        "axis": spec.axis,
        "dips": [dataclasses.asdict(d) for d in dips],
        "signs": {pair_tag(pair): spec.signs[pair][0].tolist()
                  for pair in spec.pairs},
        "calibration": {},
        "curves": {
            spec.axis: [float(x) for x in spec.omegas],
            **{pair_tag(pair): [float(v) for v in spec.values[pair]]
               for pair in spec.pairs},
        },
    }


def write_json(payload: dict, out: str | None = None) -> None:
    """Write ``payload`` as indented JSON with sorted keys to the file
    ``out``, or to stdout when ``out`` is None or empty."""
    write_text([json.dumps(payload, indent=2, sort_keys=True)], out)
