"""Span tracer for the benchmark's traced run.

The tracer replaces module attributes with timing wrappers, so a call is
recorded exactly where the caller looks the name up: ``lapcert.sweeps.
sample_sbm`` or ``lapcert.certificates.eigenvalues_selected``. Nothing
inside lapcert changes, and every original is put back by ``restore`` (or
on leaving the ``with`` block). Spans are kept in memory; the caller writes
them out once, when the run ends.

The tracer assumes one thread: spans nest through a call stack, which is
only true when calls do not interleave. Traced sweeps therefore run with
one worker; a forked pool child would record into its own copy and lose
the spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

#: lapcert modules, each one layer of the per-layer metrics.
LAYERS = ("eig", "ensembles", "laplacians", "certificates", "sdp", "tails",
          "sweeps", "cli")


class Span:
    """One call: layer (module), function, parent span id, trial id."""

    __slots__ = ("id", "parent", "layer", "function", "trial", "start", "end",
                 "attrs")

    def __init__(self, id, parent, layer, function, trial, start=0.0, end=0.0,
                 attrs=None):
        self.id = id
        self.parent = parent
        self.layer = layer
        self.function = function
        self.trial = trial
        self.start = start
        self.end = end
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class Tracer:
    """Records a span per call of every function wrapped through ``wrap``.

    Span ids are indices into ``spans``, in start order, so a parent always
    precedes its children.
    """

    def __init__(self, clock=time.perf_counter):
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []
        self._clock = clock

    def wrap(self, namespace, name: str, layer: str, trial_of=None,
             annotate=None) -> None:
        """Replace ``namespace.name`` by a wrapper that records a span.

        ``trial_of(args)`` names the trial a call starts; calls without it
        inherit the trial of their parent. ``annotate(args, result)``
        returns a dict stored on the span.
        """
        original = getattr(namespace, name)
        spans, stack, clock = self.spans, self._stack, self._clock

        @functools.wraps(original)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if trial_of is not None:
                trial = trial_of(args)
            else:
                trial = parent.trial if parent is not None else None
            span = Span(len(spans), parent.id if parent is not None else None,
                        layer, original.__name__, trial)
            spans.append(span)
            stack.append(span)
            span.start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if annotate is not None:
                span.attrs = annotate(args, result)
            return result

        self._patches.append((namespace, name, original))
        setattr(namespace, name, traced)

    def restore(self) -> None:
        """Put back every original, last wrapped first."""
        while self._patches:
            namespace, name, original = self._patches.pop()
            setattr(namespace, name, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def self_times(spans) -> list:
    """Span duration minus the durations of its direct children, per span."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, child)]


def roots(spans) -> list:
    """Id of the outermost ancestor of each span."""
    out = []
    for span in spans:
        out.append(span.id if span.parent is None else out[span.parent])
    return out


def _eig_size(args, result) -> dict:
    return {"n": int(args[0].n)}


def _bm_iterations(args, result) -> dict:
    return {"iterations": int(result[1].iterations)}


def install(tracer: Tracer) -> None:
    """Wrap lapcert's layer boundaries for one traced run.

    Every public function that a lapcert module imports from another
    lapcert module is wrapped in the importing module, under the layer of
    the module that defines it. Three boundaries that are looked up inside
    their own module are added by name: the per-trial evaluation and the
    CSV write in ``sweeps``, and ``cli_main``, which the benchmark calls.
    """
    for importer in LAYERS:
        module = importlib.import_module(f"lapcert.{importer}")
        for name, obj in list(vars(module).items()):
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            home = obj.__module__
            if not home.startswith("lapcert.") or home == module.__name__:
                continue
            layer = home.rpartition(".")[2]
            annotate = _eig_size if layer == "eig" else None
            if layer == "sdp" and name == "bm_solve":
                annotate = _bm_iterations
            tracer.wrap(module, name, layer, annotate=annotate)
    sweeps = importlib.import_module("lapcert.sweeps")
    # _eval_trial((cfg, cell_index, cell, trial)) is the one call per trial.
    tracer.wrap(sweeps, "_eval_trial", "sweeps",
                trial_of=lambda args: [args[0][1], args[0][3]])
    tracer.wrap(sweeps, "write_csv", "sweeps")
    tracer.wrap(importlib.import_module("lapcert.cli"), "cli_main", "cli")
