"""Span tracing of spherecond's public functions, installed from outside the package.

`install(tracer)` replaces selected public functions with timing wrappers at
every place where the package binds them (`from .x import f` copies the
name into the importing module, so each binding is patched). It returns a
function that puts the originals back. Nothing in `src/` is edited.

Each span has a name, a duration and a parent (the span open when it
started); a span's self time is its duration minus the time covered by its
child spans. Spans are aggregated per name in memory.

Work done in `ProcessPoolExecutor` workers is not seen: the parent only
waits for it, and that wait is part of the calling span's self time.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np


class Tracer:
    """Per-name span statistics: calls, self seconds, total seconds, work count."""

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self._child_time = []

    def call(self, name, fn, args=(), kwargs=None, count=None):
        kwargs = kwargs or {}
        self._child_time.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            child = self._child_time.pop()
            if self._child_time:
                self._child_time[-1] += dt
            s = self.stats[name]
            s[0] += 1
            s[1] += dt - child
            s[2] += dt
            if count is not None:
                s[3] += count(args, kwargs)

    def take(self) -> dict:
        """Return the statistics gathered since the last call and reset them."""
        out = {k: tuple(v) for k, v in self.stats.items()}
        self.stats.clear()
        return out


def _samples(args, kwargs):
    size = kwargs.get("size", args[2] if len(args) > 2 else None)
    return 1 if size is None else int(size)


def _evals(args, kwargs):
    return int(np.size(kwargs.get("alpha", args[2] if len(args) > 2 else 0.0)))


def _points(args, kwargs):
    return int(np.shape(args[1])[0])


def _mc_samples(args, kwargs):
    return int(kwargs.get("samples", args[3] if len(args) > 3 else 0))


CONDITIONING = ("frobenius_condition", "eigenvalue_condition", "discriminant_distance_2x2",
                "multiple_zero_witness", "cntr_witness_check", "weyl_norm")
BOUNDS = ("tail_bound", "tube_ratio_bound", "application_bound", "expectation_bound",
          "linear_tail_bound")

# (module, attribute) -> (span name, work counter)
_TARGETS = {
    ("cli", "sample_uniform_cap"): ("sampling.sample_uniform_cap", _samples),
    ("varieties", "sample_uniform_cap"): ("sampling.sample_uniform_cap", _samples),
    ("sampling", "j_integral"): ("geometry.j_integral", _evals),
    ("cli", "j_integral"): ("geometry.j_integral", _evals),
    ("varieties", "j_integral"): ("geometry.j_integral", _evals),
    ("cli", "j_integral_quad"): ("geometry.j_integral_quad", None),
    ("cli", "load_curve"): ("varieties.load_curve", None),
    ("cli", "tube_cap_counts"): ("varieties.tube_cap_counts", None),
    ("cli", "verify_kinematic"): ("varieties.verify_kinematic", _mc_samples),
    ("cli", "verify_weyl_tube_bound"): ("varieties.verify_weyl_tube_bound", None),
    ("cli", "clopper_pearson"): ("varieties.clopper_pearson", None),
    ("varieties", "clopper_pearson"): ("varieties.clopper_pearson", None),
    ("CurveVariety", "distances"): ("varieties.curve.distances", _points),
    ("DeterminantVariety", "distances"): ("varieties.determinant.distances", _points),
    **{("cli", f): (f"conditioning.{f}", None) for f in CONDITIONING},
    **{("cli", f): (f"bounds.{f}", None) for f in BOUNDS},
}


def _wrap(tracer, name, fn, count):
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, count)
    traced.__wrapped__ = fn
    return traced


def install(tracer: Tracer):
    """Patch every target; return a function that restores the originals."""
    from spherecond import cli, sampling, varieties

    owners = {"cli": cli, "sampling": sampling, "varieties": varieties,
              "CurveVariety": varieties.CurveVariety,
              "DeterminantVariety": varieties.DeterminantVariety}
    saved = []
    for (owner, attr), (name, count) in _TARGETS.items():
        obj = owners[owner]
        fn = getattr(obj, attr)
        saved.append((obj, attr, fn))
        setattr(obj, attr, _wrap(tracer, name, fn, count))

    def restore():
        for obj, attr, fn in reversed(saved):
            setattr(obj, attr, fn)
    return restore
