"""Span tracer for the benchmark's traced pass.

Wraps the public functions of each torusrenorm module -- in every package
module that binds them, because ``from ... import`` copies the name into
the importing module -- and records one span per call: name, parent span,
start and end.  A few counters are taken at the same boundaries.  The
originals are restored when the pass ends; nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

from scipy.sparse.linalg import LinearOperator

# (span name, defining module, attribute); "Class.method" wraps a method.
TARGETS = (
    ("fourier_field.field_init", "fourier_field", "FourierVectorField.__init__"),
    ("fourier_field.fit_grid", "fourier_field", "fit_grid"),
    ("fourier_field.sample_grid", "fourier_field", "FourierVectorField.sample_grid"),
    ("fourier_field.project", "fourier_field", "project"),
    ("fourier_field.norm", "fourier_field", "norm_r"),
    ("fourier_field.norm", "fourier_field", "norm_prime_r"),
    ("scaling_step.scale_step", "scaling_step", "scale_step"),
    ("scaling_step.resonant_modes", "scaling_step", "resonant_modes"),
    ("normalization_step.eliminate", "normalization_step",
     "eliminate_far_perturbation"),
    # the composition (DU)^{-1} X o U; private, but it is the layer that
    # dominates every orbit step
    ("normalization_step.pullback", "normalization_step", "_pullback_core"),
    ("normalization_step.gmres", "normalization_step", "gmres"),
    ("renorm_driver.one_step", "renorm_driver", "one_step"),
    ("renorm_driver.orbit", "renorm_driver", "renorm_orbit"),
    ("renorm_driver.stabilize", "renorm_driver",
     "stabilize_resonant_perturbation"),
    ("renorm_driver.decay_probe", "renorm_driver", "stable_decay_probe"),
    ("number_theory.cf_expand", "number_theory", "cf_expand"),
    ("number_theory.beta", "number_theory", "CFExpansion.beta"),
    ("number_theory.a_tilde", "number_theory", "CFExpansion.a_tilde"),
    ("number_theory.diophantine_probe", "number_theory", "diophantine_probe"),
    ("cli_experiments.run_scenario", "cli_experiments", "run_scenario"),
)
SPANS = tuple(dict.fromkeys(span for span, _, _ in TARGETS))

# counters beyond calls and times: name -> (unit, better)
COUNTERS = {
    "normalization_step.pullback_evals": ("count", "lower"),
    "normalization_step.pullback_phase_evals": ("count", "lower"),
    "normalization_step.newton_sweeps": ("count", "lower"),
    "normalization_step.at_floor": ("count", "lower"),
    "normalization_step.gmres.matvecs": ("count", "lower"),
    "normalization_step.gmres.nonconverged": ("count", "lower"),
    "renorm_driver.stabilize.rounds": ("count", "lower"),
    "renorm_driver.useful_step_ratio": ("ratio", "higher"),
}


def metric_units() -> dict:
    """Every metric the tracer reports: name -> (unit, better)."""
    out = {}
    for span in SPANS:
        out[f"{span}.calls"] = ("count", "lower")
        out[f"{span}.s"] = ("s", "lower")
        out[f"{span}.self_s"] = ("s", "lower")
    out.update(COUNTERS)
    return out


def _counting_gmres(gmres, counts):
    """gmres that counts matvecs through the operator and nonzero info."""

    @functools.wraps(gmres)
    def counted(a, b, *args, **kwargs):
        def matvec(x):
            counts["gmres_matvecs"] += 1
            return a.matvec(x)

        x, info = gmres(LinearOperator(a.shape, matvec=matvec, dtype=a.dtype),
                        b, *args, **kwargs)
        counts["gmres_nonconverged"] += info != 0
        return x, info

    return counted


def _eliminate_hook(tracer, record, args, result):
    tracer.counts["newton_sweeps"] += result.sweeps
    tracer.counts["at_floor"] += bool(result.at_floor)


def _pullback_hook(tracer, record, args, result):
    # direct-sum phase evaluations: oscillatory modes x grid points
    tracer.counts["pullback_phase_evals"] += len(args["h"].modes) * args["grid"] ** 2


def _orbit_hook(tracer, record, args, result):
    record[4] = args["n_steps"]


HOOKS = {
    "normalization_step.eliminate": _eliminate_hook,
    "normalization_step.pullback": _pullback_hook,
    "renorm_driver.orbit": _orbit_hook,
}


class Tracer:
    """Spans and counters of the calls made while installed."""

    def __init__(self):
        self.spans = []        # [name, parent index or None, start, end, note]
        self.counts = Counter()
        self._stack = []
        self._saved = []       # (owner, attribute, original)

    def _wrap(self, span, fn, caller):
        spans, stack, counts = self.spans, self._stack, self.counts
        hook = HOOKS.get(span)
        signature = inspect.signature(fn) if hook else None
        binding = f"{span}@{caller}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[binding] += 1
            record = [span, stack[-1] if stack else None, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(record)
            record[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                stack.pop()
            if hook:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, record, bound.arguments, result)
            return result

        return wrapper

    def _replace(self, owner, attribute, replacement):
        self._saved.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        package = [m for name, m in list(sys.modules.items())
                   if name == "torusrenorm" or name.startswith("torusrenorm.")]
        for span, module_name, attribute in TARGETS:
            home = importlib.import_module(f"torusrenorm.{module_name}")
            if "." in attribute:
                class_name, method = attribute.split(".")
                owner = getattr(home, class_name)
                self._replace(owner, method,
                              self._wrap(span, owner.__dict__[method], home.__name__))
                continue
            original = getattr(home, attribute)
            fn = (_counting_gmres(original, self.counts)
                  if span == "normalization_step.gmres" else original)
            for module in package:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, name,
                                      self._wrap(span, fn, module.__name__))

    def uninstall(self):
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    @contextmanager
    def installed(self):
        try:
            self.install()
            yield self
        finally:
            self.uninstall()

    def _has_ancestor(self, index, name):
        parent = self.spans[index][1]
        while parent is not None:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][1]
        return False

    def metrics(self) -> dict:
        """Per-layer metrics of the spans recorded so far."""
        child_time = [0.0] * len(self.spans)
        for _, parent, start, end, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {}
        for span in SPANS:
            out[f"{span}.calls"] = 0
            out[f"{span}.s"] = 0.0
            out[f"{span}.self_s"] = 0.0
        requested_steps = 0
        stabilize_rounds = 0
        for index, (span, parent, start, end, note) in enumerate(self.spans):
            out[f"{span}.calls"] += 1
            out[f"{span}.s"] += end - start
            out[f"{span}.self_s"] += end - start - child_time[index]
            if span == "renorm_driver.orbit":
                if self._has_ancestor(index, "renorm_driver.stabilize"):
                    stabilize_rounds += 1
                else:
                    requested_steps += note
        counts = self.counts
        one_step_calls = out["renorm_driver.one_step.calls"]
        out.update({
            "normalization_step.pullback_evals":
                counts["fourier_field.fit_grid@torusrenorm.normalization_step"],
            "normalization_step.pullback_phase_evals": counts["pullback_phase_evals"],
            "normalization_step.newton_sweeps": counts["newton_sweeps"],
            "normalization_step.at_floor": counts["at_floor"],
            "normalization_step.gmres.matvecs": counts["gmres_matvecs"],
            "normalization_step.gmres.nonconverged": counts["gmres_nonconverged"],
            "renorm_driver.stabilize.rounds": stabilize_rounds,
            "renorm_driver.useful_step_ratio":
                requested_steps / one_step_calls if one_step_calls else 0.0,
        })
        return out

    def write(self, path):
        """Write the spans (times relative to the first) and counters as JSON."""
        origin = self.spans[0][2] if self.spans else 0.0
        spans = [[name, parent, start - origin, end - origin]
                 for name, parent, start, end, _ in self.spans]
        path.write_text(json.dumps({"spans": spans, "counts": dict(self.counts)}))
