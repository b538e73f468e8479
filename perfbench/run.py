"""eitfwm benchmark: one workload, one fresh process, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The program under test is the
``eitfwm`` package in ``src/`` of that checkout, driven in-process
through ``cli.main`` with ``--threads 1``, as a closed loop of one
client: each pass (the workload's CLI invocations) starts when the
previous one has finished and passed the correctness gate.

A run measures a fixed number of passes, the workload's
``passes(--seconds)``: about ``--seconds`` of work at the baseline's
speed, and the same count on every commit.  ``--trace 0`` measures the
end-to-end metrics: set-up time of fresh processes, then one warm-up
pass, then the timed passes.  ``--trace 1`` alternates untraced and
traced passes and reports per-layer calls and self time from the traced
ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every run also
writes a results file under ``perfbench/out/`` with the raw passes, the
seed and the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: fresh processes timed for setup_s; the median is reported
SETUP_PROBES = 6

#: The machine's speed drifts by up to 2x within seconds (other tenants
#: share its cores), which no run length averages away.  A fixed
#: reference kernel is therefore timed before and after every timed
#: sample, and each sample is rescaled by REFERENCE_S over the mean of
#: those two kernel times: reported times are seconds at the speed at
#: which the kernel takes REFERENCE_S, its median on the 2-core machine
#: where the baseline was recorded.  Raw times stay in the results file.
REFERENCE_ITERATIONS = 8000
REFERENCE_S = 0.18

#: nearest-rank percentile of the pass times reported as wall_tail_s
TAIL_PERCENTILE = 75

THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def load_program():
    """Import eitfwm from this checkout's sources, never from elsewhere."""
    if not (SRC / "eitfwm" / "cli.py").is_file():
        sys.exit(f"perfbench: no eitfwm sources in {SRC}; run from the root "
                 "of a source checkout")
    sys.path.insert(0, str(SRC))
    import eitfwm
    from eitfwm import cli
    if SRC.resolve() not in Path(eitfwm.__file__).resolve().parents:
        sys.exit(f"perfbench: imported eitfwm from {eitfwm.__file__}, "
                 f"not from {SRC}")
    return cli


def environment(seed: int) -> dict:
    import scipy
    try:
        blas = {k: v for k, v in
                np.show_config(mode="dicts")["Build Dependencies"]["blas"]
                .items() if k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = res.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "eitfwm").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "machine": platform.uname()._asdict(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {"cli_threads": 1,
                    **{v: os.environ.get(v) for v in THREAD_VARIABLES}},
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


class Speed:
    """Times the reference kernel: the mix the program's hot loops are
    made of (small complex matrix products, finiteness checks, small
    array set-up and reductions, interpreter work)."""

    def __init__(self):
        rng = np.random.default_rng(0)

        def unit_norm(n):
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            return m / np.linalg.norm(m, 2)

        self._m3, self._m4, self._m18 = unit_norm(3), unit_norm(4), unit_norm(18)
        self.kernel_s = []
        self._measure()

    def _measure(self) -> None:
        m3, m4, m18 = self._m3, self._m4, self._m18
        start = time.perf_counter()
        acc = 0.0
        for i in range(REFERENCE_ITERATIONS):
            t = m4 @ m4
            c = t @ m4 @ t.conj().T + m4
            if not np.all(np.isfinite(c)):
                raise FloatingPointError("reference kernel overflowed")
            m18 @ m18
            z = np.zeros((3, 3), dtype=complex)
            z[0, 1] = c[0, 1]
            acc += complex(np.sum(z * m3)).real + i * 0.5
        self.kernel_s.append(time.perf_counter() - start)

    def scale(self) -> float:
        """Rescaling factor of the sample taken since the last call."""
        self._measure()
        return REFERENCE_S / (0.5 * (self.kernel_s[-2] + self.kernel_s[-1]))


def measure_setup(invocation, speed) -> list:
    """Rescaled wall seconds of SETUP_PROBES fresh processes that import
    the program and build the run config of ``invocation``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), "--",
           *invocation.argv]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, timeout=60,
                       stdout=subprocess.DEVNULL)
        times.append((time.perf_counter() - start) * speed.scale())
    return times


def run_pass(cli, invocations, speed=None) -> dict:
    """One pass: every invocation back to back, then the gate.  With a
    ``speed``, the pass is followed by the reference kernel and carries
    its rescaling factor."""
    for inv in invocations:
        inv.out.unlink(missing_ok=True)
    codes = []
    error = None
    cpu0 = time.process_time()
    start = time.perf_counter()
    try:
        for inv in invocations:
            codes.append(workloads.run_step(cli, inv))
    except Exception:   # a crash is a failed pass, not a failed benchmark
        error = traceback.format_exc()
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu0
    scale = speed.scale() if speed else 1.0
    if error is None:
        for inv, code in zip(invocations, codes):
            data = inv.out.read_bytes() if inv.out.exists() else b""
            error = workloads.check_output(inv.step, code, data)
            if error:
                break
    if error:
        print(f"perfbench: pass failed: {error}", file=sys.stderr)
    return {"wall_s": wall * scale, "cpu_s": cpu * scale, "scale": scale,
            "raw_wall_s": wall, "raw_cpu_s": cpu, "error": error}


def tail(values) -> tuple:
    """(value, rank, samples beyond it) of the TAIL_PERCENTILE
    nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(TAIL_PERCENTILE / 100.0 * len(ordered)))
    return ordered[rank - 1], rank, len(ordered) - rank


def measure(cli, wl, invocations, seconds) -> tuple:
    speed = Speed()
    setup = measure_setup(invocations[0], speed)
    warmup = run_pass(cli, invocations, speed)
    passes = [run_pass(cli, invocations, speed)
              for _ in range(wl.passes(seconds))]
    walls = [p["wall_s"] for p in passes]
    tail_value, rank, beyond = tail(walls)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "wall_tail_s": (tail_value, "s"),
        "points_per_s": (wl.points / statistics.median(walls), "1/s"),
        "cpu_s": (statistics.median(p["cpu_s"] for p in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    details = {"setup_samples_s": setup, "kernel_s": speed.kernel_s,
               "warmup": warmup, "passes": passes,
               "wall_tail": {"percentile": TAIL_PERCENTILE, "rank": rank,
                             "samples": len(walls), "beyond": beyond},
               "points_per_pass": wl.points}
    return metrics, [warmup] + passes, details


def measure_traced(cli, wl, invocations, seconds) -> tuple:
    tracer = spans.Tracer()
    speed = Speed()
    warmup = run_pass(cli, invocations, speed)
    plain, traced, summaries = [], [], []
    while len(plain) + len(traced) < max(2, wl.passes(seconds)):
        if len(plain) == len(traced):
            plain.append(run_pass(cli, invocations, speed))
            continue
        tracer.pass_id = len(traced)
        with tracer:
            traced.append(run_pass(cli, invocations, speed))
        summary = tracer.summary(tracer.pass_id)
        summary["self_s"] = {layer: s * traced[-1]["scale"]
                             for layer, s in summary["self_s"].items()}
        summaries.append(summary)
    for name in tracer.missing:
        print(f"perfbench: not traced, no longer in the program: {name}",
              file=sys.stderr)

    def med(values):
        return statistics.median(list(values))

    metrics = {}
    for layer in spans.LAYERS:
        metrics[f"{layer}.calls"] = (med(s["calls"][layer]
                                         for s in summaries), "count")
        metrics[f"{layer}.self_s"] = (med(s["self_s"][layer]
                                          for s in summaries), "s")
    metrics["propagation.transfers_per_point"] = (
        med(s["calls"][spans.TRANSFER_LAYER] for s in summaries) / wl.points,
        "transfers/point")
    metrics["propagation.doubling_stages"] = (
        med(sum(k * n for k, n in s["stage_hist"].items())
            for s in summaries), "stages")
    traced_wall = med(p["wall_s"] for p in traced)
    metrics["trace.coverage"] = (
        med(sum(v for k, v in s["self_s"].items() if k != "cli") / p["wall_s"]
            for s, p in zip(summaries, traced)), "ratio")
    metrics["trace.overhead"] = (
        traced_wall / med(p["wall_s"] for p in plain), "ratio")
    details = {"kernel_s": speed.kernel_s, "warmup": warmup,
               "untraced_passes": plain,
               "traced_passes": traced, "layer_summaries": summaries,
               "points_per_pass": wl.points,
               "not_traced": tracer.missing,
               "spans_of_first_traced_pass": [
                   s for s in tracer.spans if s[5] == 0]}
    return metrics, [warmup] + plain + traced, details


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = load_program()
    from eitfwm import params
    wl = workloads.WORKLOADS[args.workload]
    env = environment(args.seed)
    invocations = workloads.make_inputs(
        wl, args.seed, OUT / "work", workloads.reference_values(params))
    run = measure_traced if args.trace else measure
    metrics, passes, details = run(cli, wl, invocations, args.seconds)
    failed = sum(1 for p in passes if p["error"])
    result = {
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"workload": args.workload,
                               "seconds": args.seconds, "trace": args.trace,
                               "environment": env, "result": result,
                               "details": details},
                              indent=1) + "\n")
    print(f"perfbench: {args.workload} seed {args.seed}: {len(passes)} "
          f"passes, {failed} failed; results in {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
