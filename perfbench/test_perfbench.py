"""Self-tests of the benchmark: gate, tracing bindings, seeds, layout.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads

cli = run.load_program()

#: layer -> workloads it is mostly on (the benchmark's layer table)
MOSTLY_ON = {
    "cli": ("fig2_calibrated", "param_sweeps", "two_pair_zavg"),
    "steady_state": ("param_sweeps",),
    "langevin": ("param_sweeps",),
    "params": ("param_sweeps",),
    "propagation.drift": ("fig2_calibrated", "two_pair_zavg"),
    "propagation.transfer": ("fig2_calibrated", "two_pair_zavg"),
    "entanglement.extension": ("two_pair_zavg",),
    "entanglement.witness": ("two_pair_zavg",),
    "sweeps": ("fig2_calibrated",),
    "sweeps.emit": ("fig2_calibrated",),
    "propagation.oracle": ("verify",),
    "verification": ("verify",),
}


def _reference():
    from eitfwm import params
    return workloads.reference_values(params)


def _invocations(name, tmp_path, seed=1):
    return workloads.make_inputs(workloads.WORKLOADS[name], seed, tmp_path,
                                 _reference())


def _bindings():
    """(module, attribute) -> id of the bound object, over the program."""
    return {(mod.__name__, attr): id(value)
            for mod in spans.Tracer()._modules()
            for attr, value in vars(mod).items()}


@pytest.fixture(scope="module")
def traced_passes(tmp_path_factory):
    """One traced pass of every workload: (pass record, layer summary)."""
    out = {}
    for name in workloads.WORKLOADS:
        invocations = _invocations(name, tmp_path_factory.mktemp(name))
        tracer = spans.Tracer()
        tracer.pass_id = 0
        with tracer:
            record = run.run_pass(cli, invocations)
        out[name] = (record, tracer.summary(0))
    return out


def test_every_workload_passes_its_gate(traced_passes):
    for name, (record, summary) in traced_passes.items():
        assert record["error"] is None, name
        # a witness point is one extended covariance
        assert summary["calls"]["entanglement.extension"] == \
            workloads.WORKLOADS[name].points, name


@pytest.mark.parametrize("layer", sorted(MOSTLY_ON))
def test_layer_has_spans_where_it_is_mostly_on(traced_passes, layer):
    for name in MOSTLY_ON[layer]:
        summary = traced_passes[name][1]
        assert summary["calls"][layer] > 0, (layer, name)
        assert summary["self_s"][layer] > 0.0, (layer, name)


def test_verify_pass_runs_every_check(traced_passes):
    verification = importlib.import_module("eitfwm.verification")
    calls = traced_passes["verify"][1]["calls"]
    assert calls["verification"] == 3
    assert calls["propagation.oracle"] == len(verification.ORACLE_POINTS)


def test_install_replaces_every_binding_and_uninstall_restores_it():
    before = _bindings()
    functions, methods = set(), []
    for entries in spans.LAYERS.values():
        for modname, path in entries:
            mod = importlib.import_module(f"eitfwm.{modname}")
            if "." in path:
                cls_name, meth = path.split(".")
                methods.append((getattr(mod, cls_name), meth))
            else:
                functions.add(id(getattr(mod, path)))
    with spans.Tracer() as tracer:
        assert tracer.missing == []
        stale = [key for key, value in _bindings().items()
                 if value in functions]
        assert not stale, f"untraced bindings: {stale}"
        for cls, meth in methods:
            assert hasattr(cls.__dict__[meth], "__wrapped__"), meth
    assert _bindings() == before
    for cls, meth in methods:
        assert not hasattr(cls.__dict__[meth], "__wrapped__"), meth


def test_doubling_stage_histogram(traced_passes):
    summary = traced_passes["fig2_calibrated"][1]
    hist = summary["stage_hist"]
    assert sum(hist.values()) == summary["calls"]["propagation.transfer"]
    # stage counts of the fig2 grid (ROADMAP baseline: k = 19...28)
    assert min(hist) >= 19 and max(hist) <= 28


def test_gate_rejects_corrupted_output(tmp_path):
    inv = _invocations("param_sweeps", tmp_path)
    fig4 = next(i for i in inv if i.step.experiment == "fig4")
    assert cli.main(list(fig4.argv)) == 0
    good = fig4.out.read_bytes()
    assert workloads.check_output(fig4.step, 0, good) is None

    lines = good.decode().splitlines(keepends=True)
    last = lines[-1].split(",")
    corrupted = {
        "exit code": (1, good),
        "digest": (0, good.replace(b"e-", b"E-", 1)),
        "rows": (0, "".join(lines[:-1]).encode()),
        "non-finite": (0, "".join(lines[:-1] + [",".join(
            [last[0], "nan"] + last[2:])]).encode()),
    }
    for what, (code, data) in corrupted.items():
        assert workloads.check_output(fig4.step, code, data), what


def test_gate_rejects_corrupted_verify_report(tmp_path):
    inv = _invocations("verify", tmp_path)[0]
    assert workloads.run_step(cli, inv) == 0
    good = inv.out.read_bytes()
    assert workloads.check_output(inv.step, 0, good) is None

    lines = good.decode().splitlines(keepends=True)
    flipped = [ln.replace("(expected PASS)", "(expected PASS) UNEXPECTED")
               if "limit_dark_state" in ln else ln for ln in lines]
    corrupted = {
        "exit code": (3, good),
        "sha256": (0, good.replace(b"e-", b"E-", 1)),
        "CHECK lines": (0, "".join(lines[:-1]).encode()),
        "UNEXPECTED": (0, "".join(flipped).encode()),
    }
    for reason, (code, data) in corrupted.items():
        assert reason in workloads.check_output(inv.step, code, data)


def test_pass_with_corrupted_output_fails(tmp_path):
    inv = _invocations("fig2_calibrated", tmp_path)

    class CorruptingCli:
        @staticmethod
        def main(argv):
            inv[0].out.write_text("# nothing\nomega\n")
            return 0

    record = run.run_pass(CorruptingCli, inv)
    assert record["error"] and "data rows" in record["error"]


def test_seed_changes_spelling_not_the_run_config(tmp_path):
    def config_texts(name, seed, where):
        inv = _invocations(name, tmp_path / where, seed)
        return [(i.step, Path(i.argv[3]).read_text())
                for i in inv]

    for name in workloads.WORKLOADS:
        first = config_texts(name, 1, f"{name}-a")
        assert config_texts(name, 1, f"{name}-b") == first
        others = [config_texts(name, seed, f"{name}-{seed}")
                  for seed in (2, 3)]
        assert any(o != first for o in others), name
        for step, text in first + others[0] + others[1]:
            expected = cli.parse_config("\n".join(
                f"{k} = {v}" for k, v in step.config.items()))
            assert cli.parse_config(text) == expected


def test_tail_percentile():
    assert run.tail(range(20, 0, -1)) == (15, 15, 5)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 3, 0)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig2_calibrated",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert res.returncode != 0
    for line in res.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
