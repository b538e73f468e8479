"""Command-line front end: config ingestion, experiments, calibration.

Configs are flat text, one ``key = value`` per line with ``#`` comments.
Keys are the physical parameter fields, the model switches declared by
``sweeps.SweepConfig`` (coupling, sideband, spinwave_definition,
two_pair) and, for the free-form spectrum experiment, the grid bounds
(omega_min, omega_max, n_points).  Unknown keys and unparseable values
are rejected with the line number; an empty or missing config runs the
reference parameter set unchanged.

Exit codes: 0 success, 1 config or parameter validation error
(including non-finite values, a spectrum window whose span
``omega_max - omega_min`` is not finite, frequency grids beyond
``sweeps.MAX_GRID_POINTS``, a pair detuning whose fig2/fig3 resonance
window holds no grid point, a config file that cannot be read or is not
UTF-8, and an output file that cannot be written), 2 numerical failure
(exponential gain or overflow in the propagation, an extended
covariance that is not finite or a vanishing coherence response,
reported with the offending frequency and, in a parameter sweep, the
swept value, drives that leave no unique steady state or a Bloch drift
that is not finite, or a spin-wave fit whose optimum lies at scale
zero), 3 verification suite reporting a surprising outcome.  Every
output file embeds the effective configuration so a result can always
be traced back to its inputs.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .params import (FIELDS, PhysicalParams, ValidationError, derive,
                     reference_params)
from .steady_state import DegenerateSteadyStateError, solve
from . import langevin
from . import propagation
from . import entanglement
from . import sweeps
from . import verification

EXPERIMENTS = ("steady", "noise", "spectrum", "fig2", "fig3", "fig4", "fig5",
               "calibrate", "verify")

#: half width of the dip search window placed around each pair detuning
RESONANCE_HALFWIDTH = 300.0

#: calibration anchors and the relative band within which they count as met
CALIBRATION_TARGETS = {"V_a1_b1": 2.0, "V_a1_S": 1.0}
CALIBRATION_BAND = 0.15

#: glibc ``mallopt`` parameters (malloc.h) and the values ``main`` sets:
#: free memory at the top of the heap up to the trim threshold stays
#: mapped, and allocations below the mmap threshold come from the heap
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
TRIM_THRESHOLD = 64 << 20
MMAP_THRESHOLD = 4 << 20


class ConfigError(ValueError):
    """Malformed config text; the message names the offending line."""


@dataclass
class RunConfig:
    """Effective settings of one invocation: parameters, model switches
    and the grid of the free-form spectrum."""

    params: PhysicalParams
    model: sweeps.SweepConfig = sweeps.SweepConfig()
    omega_min: float = -3000.0
    omega_max: float = 1000.0
    n_points: int = 2001


_CHOICE_KEYS = {
    "coupling": propagation.COUPLINGS,
    "sideband": propagation.SIDEBANDS,
    "spinwave_definition": entanglement.SPINWAVE_DEFINITIONS,
}
_BOOL_WORDS = {"true": True, "yes": True, "1": True,
               "false": False, "no": False, "0": False}


def parse_config(text: str) -> RunConfig:
    """Parse config text into a RunConfig merged over the reference set."""
    overrides = {}
    model_kv = {}
    run_kv = {}

    def fail(lineno, msg):
        raise ConfigError(f"config line {lineno}: {msg}")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            fail(lineno, f"expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in FIELDS:
            try:
                overrides[key] = float(value)
            except ValueError:
                fail(lineno, f"{key} expects a number, got {value!r}")
        elif key in _CHOICE_KEYS:
            allowed = _CHOICE_KEYS[key]
            if value not in allowed:
                fail(lineno, f"{key} must be one of {', '.join(allowed)}, "
                             f"got {value!r}")
            model_kv[key] = value
        elif key == "two_pair":
            if value.lower() not in _BOOL_WORDS:
                fail(lineno, f"two_pair expects true/false, got {value!r}")
            model_kv[key] = _BOOL_WORDS[value.lower()]
        elif key in ("omega_min", "omega_max"):
            try:
                run_kv[key] = float(value)
            except ValueError:
                fail(lineno, f"{key} expects a number, got {value!r}")
        elif key == "n_points":
            try:
                run_kv[key] = int(value)
            except ValueError:
                fail(lineno, f"n_points expects an integer, got {value!r}")
            if run_kv[key] < 2:
                fail(lineno, "n_points must be at least 2")
        else:
            fail(lineno, f"unknown key {key!r}")

    params = reference_params().with_(**overrides)
    return RunConfig(params=params, model=sweeps.SweepConfig(**model_kv),
                     **run_kv)


# --- output plumbing -------------------------------------------------------

def config_echo(rc: RunConfig) -> dict:
    """The effective configuration as deterministic key/value strings."""
    echo = {}
    for name in FIELDS:
        echo[name] = sweeps.fmt_float(getattr(rc.params, name))
    for name, value in dataclasses.asdict(rc.model).items():
        echo[name] = str(value).lower() if isinstance(value, bool) else value
    echo["omega_min"] = sweeps.fmt_float(rc.omega_min)
    echo["omega_max"] = sweeps.fmt_float(rc.omega_max)
    echo["n_points"] = str(rc.n_points)
    return echo


def _emit_spectrum(spec, rc, windows, out, fmt, analysis=None,
                   extra_meta=None) -> None:
    """Write ``spec`` as CSV or as JSON; the JSON reports each pair's dip
    in every window of ``windows``, pair by pair."""
    if fmt == "json":
        dips = [sweeps.find_dip(spec, pair, window)
                for pair in spec.pairs for window in windows]
        payload = sweeps.summary_payload(spec, dips=dips)
        payload["config_echo"] = config_echo(rc)
        if analysis:
            payload["analysis"] = analysis
        sweeps.write_json(payload, out)
        return
    meta = config_echo(rc)
    if extra_meta:
        meta.update(extra_meta)
    sweeps.write_text(sweeps.csv_lines(spec, extra_meta=meta), out)


# --- experiments -----------------------------------------------------------

def _run_steady(rc, out) -> int:
    (ss,), _ = solve([rc.params])
    payload = {
        "version": __version__,
        "params": dataclasses.asdict(rc.params),
        "config": dataclasses.asdict(rc.model),
        "rho_re": ss.real.tolist(),
        "rho_im": ss.imag.tolist(),
        "populations": [float(x) for x in ss.real.diagonal()],
    }
    sweeps.write_json(payload, out)
    return 0


def _run_noise(rc, out) -> int:
    _, (two_d,) = solve([rc.params])
    payload = {
        "version": __version__,
        "params": dataclasses.asdict(rc.params),
        "config": dataclasses.asdict(rc.model),
        "channels": [list(ch) for ch in langevin.CHANNELS],
        "matrix_re": two_d.real.tolist(),
        "matrix_im": two_d.imag.tolist(),
    }
    sweeps.write_json(payload, out)
    return 0


def _spectrum_grid(rc) -> np.ndarray:
    p = rc.params
    if not rc.omega_min < rc.omega_max:
        raise ValidationError("omega_min must be below omega_max")
    if not math.isfinite(rc.omega_max - rc.omega_min):
        raise ValidationError(
            f"omega_max - omega_min must be finite, got omega_min = "
            f"{rc.omega_min:g}, omega_max = {rc.omega_max:g}")
    centers = (p.delta1, p.delta2) if rc.model.two_pair else (p.delta1,)
    return sweeps.omega_grid(rc.omega_min, rc.omega_max, rc.n_points,
                             refine_centers=centers, p=p)


def _run_omega_sweep(rc, out, fmt, grid, model, resonances=()) -> int:
    """Shared body of spectrum, fig2 and fig3: sweep the grid, then, in
    JSON, report each pair's dip in the window around every resonance,
    the pair detunings named by ``resonances``, and over the full grid,
    in that order.  A window that holds no grid point is rejected before
    the sweep."""
    windows = []
    for name in resonances:
        c = getattr(rc.params, name)
        lo, hi = c - RESONANCE_HALFWIDTH, c + RESONANCE_HALFWIDTH
        if not np.any((grid >= lo) & (grid <= hi)):
            raise ValidationError(
                f"{name} = {c:g} MHz: its resonance window ({lo:g}, {hi:g}) "
                f"holds no point of the grid, which spans ({grid[0]:g}, "
                f"{grid[-1]:g}) MHz")
        windows.append((lo, hi))
    windows.append((float(grid[0]), float(grid[-1])))
    spec = sweeps.sweep_omega(rc.params, grid, model)
    _emit_spectrum(spec, rc, windows, out, fmt)
    return 0


def _run_fig4(rc, out, fmt) -> int:
    spec = sweeps.sweep_gamma0(rc.params, sweeps.fig_gamma0_grid(),
                               omega=0.0, config=rc.model)
    monotone = {}
    endpoints = {}
    for pair in spec.pairs:
        v = spec.values[pair]
        slack = 1e-12 * max(1.0, float(np.max(np.abs(v))))
        monotone[sweeps.pair_tag(pair)] = bool(np.all(np.diff(v) >= -slack))
        endpoints[sweeps.pair_tag(pair)] = [float(v[0]), float(v[-1])]
    analysis = {"monotone_nondecreasing": monotone,
                "endpoint_values": endpoints}
    extra = {f"monotone_{k}": str(m).lower() for k, m in monotone.items()}
    _emit_spectrum(spec, rc, [], out, fmt, analysis=analysis, extra_meta=extra)
    return 0


def _run_fig5(rc, out, fmt) -> int:
    p = rc.params
    spec = sweeps.sweep_alpha(p, sweeps.fig_alpha_grid(),
                              omega=float(p.delta1), config=rc.model)
    spread = {}
    for pair in spec.pairs:
        v = spec.values[pair]
        ref = max(abs(float(np.median(v))), 1e-300)
        spread[sweeps.pair_tag(pair)] = float((np.max(v) - np.min(v)) / ref)
    analysis = {"relative_spread": spread}
    extra = {f"relative_spread_{k}": sweeps.fmt_float(s)
             for k, s in spread.items()}
    _emit_spectrum(spec, rc, [], out, fmt, analysis=analysis, extra_meta=extra)
    return 0


# --- calibration -----------------------------------------------------------

def _bounded_minimum(func, a: float, b: float, xatol: float) -> float:
    """The x in [a, b] that Brent's bounded minimizer (golden-section and
    parabolic steps; Brent, *Algorithms for Minimization without
    Derivatives*, 1973) returns for ``func`` at absolute tolerance
    ``xatol``, after at most 500 evaluations.

    The float operations and their order are those of the classic
    ``fminbound`` formulation, so every evaluated x, and the result, is
    bit for bit that of ``fminbound``; the tests check this step for step.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    fulc = a + golden_mean * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            # the first test fails for q = 0, so the division never sees it
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm - xf >= 0.0 else -tol1
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = golden_mean * e
        # fminbound's sign rule: a zero step moves by +tol1
        x = xf + (1.0 if rat >= 0.0 else -1.0) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:
            break
    return xf


def _fit_coupling(p, fields, labels, target) -> float:
    """Bounded scalar fit of the coupling scale at zero Fourier frequency:
    V(a1, b1) of ``fields(q)``, the quadrature covariance of the field
    pair at the coupling of ``q`` as a stack of one, whose modes are
    named by ``labels``, against ``target``."""

    def objective(x):
        values, _ = entanglement.pair_witness(
            fields(p.with_(coupling_scale=math.exp(x))), labels,
            ("a1", "b1"))
        return abs(float(values[0]) - target)

    return math.exp(_bounded_minimum(objective, math.log(0.2),
                                     math.log(8.0), 1e-10))


def _fit_spinwave(samples, labels, pair) -> dict:
    """Closed-form optimum of a witness over the spin-wave normalization.

    For fixed signs the witness is exactly quadratic in the scale, so
    the stack ``samples`` at the scales 0, 1 and 2 pins the parabola per
    sign branch; the mirror symmetry scale -> -scale with both signs
    flipped folds a negative vertex back to a positive normalization.  A
    vertex at scale zero, of either sign, has no such fold and raises.
    """
    i, j = (labels.index(name) for name in pair)
    best = None
    for su, sv in ((1, -1), (-1, 1)):
        v0, v1, v2 = entanglement.duan_values(samples, i, j, su,
                                              sv).tolist()
        a = (v2 - 2.0 * v1 + v0) / 2.0
        b = v1 - v0 - a
        s_star = -b / (2.0 * a)
        v_star = v0 - b * b / (4.0 * a)
        if best is None or v_star < best[2]:
            best = ((su, sv), s_star, v_star)
    signs, s_star, v_star = best
    if s_star == 0:  # either sign of zero
        raise propagation.NumericalOverflowError(
            f"spin-wave fit of pair {sweeps.pair_tag(pair)}: the witness is "
            f"least at scale {s_star:g}, which is no usable normalization")
    if s_star < 0:
        s_star, signs = -s_star, (-signs[0], -signs[1])
    return {"pair": list(pair), "signs": list(signs),
            "scale": float(s_star), "value": float(v_star)}


def calibrate(rc: RunConfig) -> dict:
    """Fit the two free normalizations against their anchor values.

    Targets are anchors, not guarantees: when the model cannot reach an
    anchor under any scale, the closest achievable point is recorded and
    the corresponding target_met flag stays false.  The artifact is the
    committed record that makes every figure-level run reproducible.

    The coupling fit reads only V(a1, b1), so its steps run the field
    chain (entanglement.field_quadratures); the spin-wave samples and
    the final witness read S, so they run the extended chain under the
    configured spin-wave definition.
    """
    p = rc.params
    cfg = dataclasses.replace(rc.model, two_pair=False)
    # neither the steady state nor the diffusion table depend on the two
    # fitted scales, so every witness point shares them
    states, tables = solve([p])
    modes = cfg.modes()
    labels = entanglement.extended_labels(modes)

    def fields(q):
        """The zero-frequency quadrature covariance of the field pair at
        the coupling of ``q``, a stack of one."""
        return entanglement.field_quadratures(
            [(q, states, tables, [0.0], cfg.coupling)], q.length,
            cfg.sideband)

    def witness(q, scales):
        """The stack of zero-frequency extended quadrature covariances at
        the coupling of ``q``, one per spin-wave scale of ``scales``, run
        as one block."""
        # the scale does not enter the derived quantities; computing them
        # from q also keeps the sample s = 0, which validate() rightly
        # rejects as a run setting, away from validation
        k = len(scales)
        set_up = entanglement.witness_set_up(
            [q.with_(spinwave_scale=s) for s in scales], states[[0] * k],
            tables[[0] * k], modes, [derive(q)] * k)
        return entanglement.extended_quadratures(
            set_up, np.zeros(k), q.length, cfg.coupling, cfg.sideband,
            cfg.spinwave_definition)

    eta = _fit_coupling(p, fields, entanglement.field_labels(modes),
                        CALIBRATION_TARGETS["V_a1_b1"])
    pc = p.with_(coupling_scale=eta)

    samples = witness(pc, (0.0, 1.0, 2.0))
    primary = _fit_spinwave(samples, labels, ("a1", "S"))
    alternate = _fit_spinwave(samples, labels, ("S", "b1"))
    kappa = primary["scale"]

    pf = pc.with_(spinwave_scale=kappa)
    final = witness(pf, [kappa])
    witnesses = {sweeps.pair_tag(pair): entanglement.pair_witness(
        final, labels, pair) for pair in cfg.pairs()}
    achieved = {f"V_{tag}": float(values[0])
                for tag, (values, _) in witnesses.items()}
    signs = {tag: branches[0].tolist()
             for tag, (_, branches) in witnesses.items()}
    target_met = {
        name: bool(abs(achieved[name] - t) <= CALIBRATION_BAND * t)
        for name, t in CALIBRATION_TARGETS.items()
    }
    return {
        "version": __version__,
        "reference": dataclasses.asdict(p),
        "config": dataclasses.asdict(rc.model),
        "coupling_scale": eta,
        "spinwave_scale": kappa,
        "targets": CALIBRATION_TARGETS,
        "achieved": achieved,
        "signs": signs,
        "target_met": target_met,
        "spinwave_fit": {"primary": primary, "alternate": alternate},
        "params_hash": sweeps.params_hash(pf, cfg),
    }


def _run_calibrate(rc, out) -> int:
    sweeps.write_json(calibrate(rc), out)
    return 0


def _run_verify(rc, out) -> int:
    reports = verification.run_all(rc.params)
    lines = verification.format_lines(reports)
    # the file first: an output that cannot be written ends the run
    # before the report is streamed
    if out:
        sweeps.write_text(lines, out)
    sweeps.write_text(lines)
    return verification.verify_exit_code(reports)


def run(rc: RunConfig, experiment: str, out=None, fmt="csv") -> int:
    """Dispatch one experiment; returns the process exit code."""
    rc.params.validate()
    p = rc.params
    if experiment == "steady":
        return _run_steady(rc, out)
    if experiment == "noise":
        return _run_noise(rc, out)
    if experiment == "spectrum":
        return _run_omega_sweep(rc, out, fmt, _spectrum_grid(rc), rc.model)
    if experiment == "fig2":
        return _run_omega_sweep(rc, out, fmt, sweeps.fig_spectrum_grid(p),
                                dataclasses.replace(rc.model, two_pair=False),
                                ("delta1",))
    if experiment == "fig3":
        return _run_omega_sweep(rc, out, fmt, sweeps.fig_two_pair_grid(p),
                                dataclasses.replace(rc.model, two_pair=True),
                                ("delta1", "delta2"))
    if experiment == "fig4":
        return _run_fig4(rc, out, fmt)
    if experiment == "fig5":
        return _run_fig5(rc, out, fmt)
    if experiment == "calibrate":
        return _run_calibrate(rc, out)
    if experiment == "verify":
        return _run_verify(rc, out)
    raise ConfigError(f"unknown experiment {experiment!r}")


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors, which this tool
    # reserves for numerical failures; route them through ConfigError
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="eitfwm",
                 description="Entanglement spectra of light scattered off "
                             "a driven ground-state coherence.")
    ap.add_argument("--experiment", required=True, choices=EXPERIMENTS,
                    help="which computation to run")
    ap.add_argument("--config", default=None, metavar="PATH",
                    help="flat 'key = value' overrides, '#' comments")
    ap.add_argument("--out", default=None, metavar="PATH",
                    help="output file (default: stdout)")
    ap.add_argument("--format", default="csv", choices=("csv", "json"),
                    dest="fmt",
                    help="table format for spectrum/fig experiments; "
                         "steady, noise and calibrate always emit JSON")
    ap.add_argument("--threads", type=int, default=1,
                    help="accepted for compatibility and ignored: "
                         "evaluation is serial (must be at least 1)")
    return ap


def keep_freed_heap() -> None:
    """Make glibc keep the memory a sweep block frees for the next block.

    By default glibc returns the free top of the heap to the kernel once
    it exceeds the trim threshold, and each sweep block then faults the
    same pages back in (about 14,000 minor faults in one two-pair
    z-averaged spectrum).  The trim threshold is set far above a block's
    working memory.  Setting it stops glibc from adjusting the mmap
    threshold, so that is set too, above every array a block allocates,
    whatever the process allocated before.  Without glibc's ``mallopt``
    nothing happens.  Only the command line calls this: library callers
    keep the allocator's defaults.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)


def main(argv=None) -> int:
    keep_freed_heap()
    ap = build_parser()
    try:
        ns = ap.parse_args(argv)
        if ns.threads < 1:
            raise ConfigError("--threads must be at least 1")
        text = ""
        if ns.config is not None:
            try:
                with open(ns.config, encoding="utf-8") as fh:
                    text = fh.read()
            except (OSError, UnicodeDecodeError) as exc:
                raise ConfigError(f"cannot read config: {exc}") from None
        rc = parse_config(text)
        return run(rc, ns.experiment, out=ns.out, fmt=ns.fmt)
    except (ConfigError, ValidationError, sweeps.OutputError) as exc:
        print(f"eitfwm: error: {exc}", file=sys.stderr)
        return 1
    except (propagation.NumericalOverflowError,
            DegenerateSteadyStateError) as exc:
        print(f"eitfwm: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
