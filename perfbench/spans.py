"""Layer spans recorded from outside the program.

Each layer of the eitfwm chain is a set of public functions.  A
``Tracer`` replaces every binding of those functions inside the loaded
``eitfwm`` modules (module globals, names imported with ``from .x import
y``, and methods on classes) with a wrapper that records one span per
call: layer name, start, end, parent span and pass id.  Uninstalling
puts the original objects back, so untraced passes run the unmodified
program.

Spans stay in memory; ``summary`` turns them into per-layer call counts
and self time (span duration minus the time covered by its child spans).
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import Counter

import numpy as np

#: layer name -> (module, attribute path) of every public call it covers.
#: A dotted attribute path names a method on a class.
LAYERS = {
    "cli": [("cli", "main")],
    "params": [("params", "derive"), ("params", "reference_params"),
               ("params", "PhysicalParams.validate"),
               ("params", "PhysicalParams.with_")],
    "steady_state": [("steady_state", "steady_state")],
    "langevin": [("langevin", "diffusion_matrix")],
    "propagation.drift": [("propagation", "drift_matrix")],
    "propagation.transfer": [("propagation", "second_moment_transfer")],
    "propagation.oracle": [("propagation", "transfer_step_oracle")],
    "entanglement.extension": [("entanglement", "covariance_with_spinwave")],
    "entanglement.witness": [("entanglement", "ExtendedCovariance.duan"),
                             ("entanglement", "duan_value")],
    "sweeps": [("sweeps", "sweep_omega"), ("sweeps", "sweep_gamma0"),
               ("sweeps", "sweep_alpha")],
    "sweeps.emit": [("sweeps", "csv_lines"), ("sweeps", "summary_payload"),
                    ("sweeps", "find_dip")],
    "verification": [("verification", "check_commutators"),
                     ("verification", "check_oracle_equivalence"),
                     ("verification", "check_limits")],
}

TRANSFER_LAYER = "propagation.transfer"

#: the package whose modules are traced
PACKAGE = "eitfwm"

#: threshold of the interval-doubling start step in
#: propagation.second_moment_transfer (its ``_theta`` default)
DOUBLING_THETA = 2.0 ** -10


def doubling_stages(m, length, theta=DOUBLING_THETA) -> int:
    """Stage count k of one second_moment_transfer call, computed from
    its arguments: the smallest k >= 0 with ||m||_1 * length / 2^k <= theta.
    """
    norm = float(np.linalg.norm(m, 1)) * float(length)
    return max(0, int(math.ceil(math.log2(max(norm, 1e-300) / theta))))


def _stage_args(args, kwargs) -> tuple:
    m = args[0] if args else kwargs["m"]
    length = args[2] if len(args) > 2 else kwargs["length"]
    theta = args[3] if len(args) > 3 else kwargs.get("_theta",
                                                      DOUBLING_THETA)
    return m, length, theta


class Tracer:
    """Records spans of the layers in ``LAYERS`` while installed."""

    def __init__(self):
        self.spans = []          # (id, layer, start, end, parent id, pass id)
        # (pass id, stage arguments) of every transfer call; the stage
        # counts are computed in ``summary``, outside the timed spans
        self._transfer_args = []
        self.pass_id = None
        self._stack = []
        self._saved = []         # (owner, attribute, original object)
        self.missing = []        # "module.attribute" targets not found

    # --- installation ---------------------------------------------------

    def _modules(self):
        return [mod for name, mod in sorted(sys.modules.items())
                if mod is not None and (name == PACKAGE
                                        or name.startswith(PACKAGE + "."))]

    def install(self) -> None:
        """Wrap every binding of every layer function.  Targets that the
        program no longer has are listed in ``missing``."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.missing = []
        modules = self._modules()
        for layer, targets in LAYERS.items():
            for modname, path in targets:
                mod = importlib.import_module(f"{PACKAGE}.{modname}")
                cls_name, _, attr = path.rpartition(".")
                owner = getattr(mod, cls_name, None) if cls_name else mod
                orig = vars(owner).get(attr) if owner is not None else None
                if orig is None:
                    self.missing.append(f"{modname}.{path}")
                    continue
                wrapped = self._wrap(layer, orig)
                # a method is bound once, on its class; a function also
                # wherever a module imported it by name
                for holder in [owner] if cls_name else modules:
                    for name, value in list(vars(holder).items()):
                        if value is orig:
                            self._bind(holder, name, orig, wrapped)

    def _bind(self, owner, attr, orig, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._saved.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # --- recording ------------------------------------------------------

    def _wrap(self, layer, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        count_stages = layer == TRANSFER_LAYER

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_stages:
                self._transfer_args.append(
                    (self.pass_id, _stage_args(args, kwargs)))
            sid = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, layer, start, end, parent, self.pass_id)

        return traced

    # --- aggregation ----------------------------------------------------

    def summary(self, pass_id) -> dict:
        """Per-layer calls and self seconds of one pass, plus the computed
        doubling-stage histogram of its transfers.  Call once per pass:
        the transfer arguments of the pass are released."""
        mine = [s for s in self.spans if s is not None and s[5] == pass_id]
        child = Counter()
        for sid, _, start, end, parent, _ in mine:
            if parent is not None:
                child[parent] += end - start
        calls = Counter()
        self_s = Counter()
        for sid, layer, start, end, _, _ in mine:
            calls[layer] += 1
            self_s[layer] += (end - start) - child[sid]
        hist = Counter(doubling_stages(*a) for pid, a in self._transfer_args
                       if pid == pass_id)
        self._transfer_args = [(pid, a) for pid, a in self._transfer_args
                               if pid != pass_id]
        return {"calls": {layer: calls[layer] for layer in LAYERS},
                "self_s": {layer: self_s[layer] for layer in LAYERS},
                "stage_hist": dict(sorted(hist.items()))}
