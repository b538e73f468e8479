"""Workload definitions, seeded inputs and the per-pass correctness gate.

A workload pass is a fixed list of CLI invocations run back to back
(a closed loop of one client).  The ``verify`` step is the one
exception: it runs the checks of ``--experiment verify`` directly, with a
shorter integrator oracle (see ``VERIFY_ORACLE_STEPS``).  The seed
varies only what leaves the work unchanged: the spelling of the config
file (line order, spacing, comments, redundant keys set to their
reference values), the output file names and, where a pass has several
steps, their order.  Outputs
must therefore be byte-identical for every seed; the gate compares each
one with the digest recorded here for the current program.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

#: coupling and readout scales fitted by ``--experiment calibrate``
CALIBRATED = {"coupling_scale": "1.6462819213179591",
              "spinwave_scale": "0.007228895687294551"}

#: RK4 steps of the integrator cross-check in the ``verify`` workload.
#: ``--experiment verify`` takes 100 000, about 89 s a pass; with 2000 the
#: oracle is still about 90 % of a pass of about 2 s.  The check then
#: reports a larger residual (3.7e-3, against a tolerance of 1e-8) that
#: is fixed by the step count, so the gate compares the report's bytes
#: and does not ask this one check to PASS.
VERIFY_ORACLE_STEPS = 2000
ORACLE_CHECK = "oracle_equivalence"


@dataclass(frozen=True)
class Step:
    """One CLI invocation and what its output must look like."""

    experiment: str
    config: dict            # key -> value text, merged over the reference
    fmt: str                # "csv", "json" or "checks" (verify report)
    rows: int | None        # data rows of a CSV output, CHECK lines
    sha256: str             # digest of the output bytes


@dataclass(frozen=True)
class Workload:
    name: str
    steps: tuple
    points: int             # witness points (extended covariances) per pass
    pass_s: float           # seconds of a pass and its reference kernel,
                            # as measured on the baseline machine

    def passes(self, seconds: float) -> int:
        """Timed passes of a run of ``seconds``: a count fixed by the
        run length, not by the speed of the program, so that every
        commit is measured on the same number of passes."""
        return max(1, round(seconds / self.pass_s))


WORKLOADS = {w.name: w for w in (
    Workload("fig2_calibrated", (
        Step("fig2", CALIBRATED, "csv", 2031,
             "e7677e553c2dc88fc3e14b4a423441afcd6c8b508cb5afecf5b9b2982dae7112"),
    ), points=2031, pass_s=2.05),
    Workload("param_sweeps", (
        Step("fig4", {}, "csv", 101,
             "71149bdd242e69ef9078614a12039aa2443555905a804cdd16c08217c1efa2f5"),
        Step("fig5", {}, "csv", 101,
             "0f2caebeb485ec5bcc82ce377cac2cd4920803b22ea3238204519239fae4428b"),
        Step("calibrate", {}, "json", None,
             "c9afdef04d1ee611bdcccca7ee2b29b452b740f144c5f32d9fc66c7f6ba28159"),
    ), points=242, pass_s=1.3),
    Workload("two_pair_zavg", (
        Step("spectrum", {**CALIBRATED, "two_pair": "true",
                          "spinwave_definition": "z-averaged",
                          "omega_min": "-3000", "omega_max": "3000",
                          "n_points": "2001"}, "csv", 2083,
             "eb1b9afe6bcd1d797575a6706b29facd348a28a2e480683a92a3776fde715a56"),
    ), points=2083, pass_s=1.95),
    Workload("verify", (
        Step("verify", {}, "checks", 9,
             "be30a86eb871052d82dd8fdb9c4d19cf4253874b436ca7a597d49c8d06fcff9b"),
    ), points=6, pass_s=2.2),
)}


@dataclass(frozen=True)
class Invocation:
    step: Step
    argv: tuple
    out: Path


def render_config(config: dict, reference: dict, rng: random.Random) -> str:
    """Config text for ``config`` whose spelling depends on ``rng`` only.

    ``reference`` maps parameter names to their reference values; a few
    of those not set by ``config`` are written out explicitly, which the
    parser must read back as the very same numbers.
    """
    items = list(config.items())
    spare = sorted(set(reference) - set(config))
    for key in rng.sample(spare, rng.randint(0, 3)):
        items.append((key, repr(float(reference[key]))))
    rng.shuffle(items)
    lines = []
    for key, value in items:
        if rng.random() < 0.3:
            lines.append(f"# seeded comment {rng.randrange(10**6)}")
        lines.append(f"{key}{' ' * rng.randint(0, 2)}="
                     f"{' ' * rng.randint(0, 2)}{value}")
    return "\n".join(lines) + "\n"


def make_inputs(workload: Workload, seed: int, workdir: Path,
                reference: dict) -> list:
    """Write the config files of one workload and return its invocations
    in pass order.  The same seed gives the same files and order."""
    rng = random.Random(f"{workload.name}/{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    invocations = []
    for i, step in enumerate(workload.steps):
        tag = f"{workload.name}-{seed}-{i}-{rng.randrange(16**6):06x}"
        cfg = workdir / f"{tag}.cfg"
        cfg.write_text(render_config(step.config, reference, rng))
        out = workdir / f"{tag}.{step.fmt}"
        argv = ("--experiment", step.experiment, "--config", str(cfg),
                "--out", str(out), "--threads", "1")
        invocations.append(Invocation(step, argv, out))
    rng.shuffle(invocations)
    return invocations


def run_verify(cli, argv) -> int:
    """``--experiment verify`` as ``cli.main`` runs it, but with
    VERIFY_ORACLE_STEPS oracle steps; writes the CHECK lines to the
    ``--out`` file.  The exit code is 0: the gate judges the report."""
    from eitfwm import verification
    ns = cli.build_parser().parse_args(list(argv))
    with open(ns.config) as fh:
        rc = cli.parse_config(fh.read())
    p = rc.params
    p.validate()
    reports = (verification.check_commutators(p)
               + verification.check_oracle_equivalence(
                   p, n_steps=VERIFY_ORACLE_STEPS)
               + verification.check_limits(p))
    Path(ns.out).write_text(
        "\n".join(verification.format_lines(reports)) + "\n")
    return 0


def run_step(cli, invocation) -> int:
    """Run one invocation; returns its exit code."""
    if invocation.step.experiment == "verify":
        return run_verify(cli, invocation.argv)
    return cli.main(list(invocation.argv))


def check_output(step: Step, exit_code: int, data: bytes) -> str | None:
    """None when one step's output passes the gate, else the reason."""
    if exit_code != 0:
        return f"{step.experiment}: exit code {exit_code}"
    if step.fmt == "checks":
        lines = data.decode().splitlines()
        if len(lines) != step.rows or not all(
                ln.startswith("CHECK ") for ln in lines):
            return (f"{step.experiment}: {len(lines)} lines, expected "
                    f"{step.rows} CHECK lines")
        for ln in lines:
            if ln.split()[1] != ORACLE_CHECK and " UNEXPECTED " in ln:
                return f"{step.experiment}: {ln}"
    elif step.fmt == "csv":
        rows = [ln for ln in data.decode().splitlines()
                if not ln.startswith("#")][1:]
        if len(rows) != step.rows:
            return (f"{step.experiment}: {len(rows)} data rows, "
                    f"expected {step.rows}")
        for row in rows:
            if not all(math.isfinite(float(x)) for x in row.split(",")):
                return f"{step.experiment}: non-finite value in {row!r}"
    else:
        payload = json.loads(data)
        numbers = [payload["coupling_scale"], payload["spinwave_scale"],
                   *payload["achieved"].values()]
        if not all(math.isfinite(float(x)) for x in numbers):
            return f"{step.experiment}: non-finite fitted value"
    digest = hashlib.sha256(data).hexdigest()
    if digest != step.sha256:
        return (f"{step.experiment}: output sha256 {digest} differs from "
                f"the recorded {step.sha256}")
    return None


def reference_values(params_module) -> dict:
    """Reference value of every physical parameter, by name."""
    return dataclasses.asdict(params_module.reference_params())
