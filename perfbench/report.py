"""Run every workload and print each metric by name, with its unit.

    python3 perfbench/report.py [--seeds N] [--first-seed S] [--trace 0|1]
                                [--save FILE]

Each run is ``perfbench/run.py`` in a fresh process, from the root of
the checkout, for the ``run_seconds`` of BENCHMARK.json.  With several
seeds the table shows, per metric, the median over the runs and the
spread (distance between the first and third quartile, as a share of
the median) next to the bound fixed in BENCHMARK.json.  ``fail_ratio``
is failed passes over attempted passes.  ``--save`` records every
run's result and environment in FILE, under the key ``trace0`` or
``trace1``, keeping what FILE already holds under the other key: the
format of ``perfbench/trajectory/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace) -> dict:
    """The results file of one run of run.py in a fresh process."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    if res.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {res.returncode}:\n{res.stderr}")
    last = json.loads(res.stdout.strip().splitlines()[-1])
    saved = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}"
                        ".json").read_text())
    if saved["result"] != last:
        sys.exit(f"results file of {' '.join(cmd)} does not match its output")
    return saved


def spread(values) -> float:
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else float("nan")


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", type=Path, metavar="FILE")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    all_correct = True
    saved = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run_once(workload, seed, seconds, args.trace)
                for seed in range(args.first_seed,
                                  args.first_seed + args.seeds)]
        saved[workload] = [{"seed": r["environment"]["seed"],
                            "result": r["result"]} for r in runs]
        results = [r["result"] for r in runs]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        all_correct &= all(r["correct"] for r in results)
        print(f"{workload}: {len(results)} run(s), correct="
              f"{all(r['correct'] for r in results)}, fail_ratio="
              f"{failed / attempted:.4g} ({failed}/{attempted} passes)")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            line = (f"  {name:36s} {statistics.median(values):14.6g} "
                    f"{first['unit']:16s}")
            if len(values) > 1:
                line += f" spread {spread(values):7.2%}"
                if bounds.get(name) is not None:
                    line += f" (bound {bounds[name]:.0%})"
            print(line)
    if args.save:
        record = json.loads(args.save.read_text()) if args.save.exists() \
            else {}
        env = dict(runs[0]["environment"])
        del env["seed"]
        record[f"trace{args.trace}"] = {
            "seconds": seconds, "environment": env, "runs": saved}
        args.save.parent.mkdir(parents=True, exist_ok=True)
        args.save.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
