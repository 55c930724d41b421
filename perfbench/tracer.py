"""Span tracing for the benchmark's traced runs, kept outside the program.

The tracer wraps the public functions of ``geofuse`` where ``geofuse.cli``,
``geofuse.stgcn`` and ``geofuse.tensor`` bind them, the model's layer
``forward`` methods, ``Tape`` and ``Adam.step``. Each call becomes one span
(name, start, end, parent) held in memory; the per-layer metrics are computed
from the spans once the workload has finished. ``src/geofuse`` is not edited:
the wrappers replace module and class attributes in the running process only.
"""

from __future__ import annotations

import functools
import gc
import inspect
import time
import tracemalloc

import numpy as np

import geofuse.cli
import geofuse.fusion
import geofuse.ingest
import geofuse.optim
import geofuse.stgcn
import geofuse.tensor

# Spans whose peak traced memory is recorded in the memory pass. They never
# nest inside one another, so resetting the tracemalloc peak at their start
# does not disturb another measurement.
PEAK_SPANS = ("stgcn.train", "fusion.fuse_panel", "metrics.consistency_report")

# Spans that keep their arguments and result for the counts computed after
# the run. Other spans keep none, so tracing holds no activations alive.
ARG_SPANS = ("stgcn.train", "fusion.fuse_panel", "ingest.clean_panel")

# Functions the benchmark's own hourly loop calls; the batch workloads reach
# the program only through ``geofuse.cli.main``.
DIRECT_CALLS = (
    (geofuse.fusion, "fuse_time_step"),
    (geofuse.ingest, "apply_normalization"),
    (geofuse.ingest, "invert_normalization"),
)

MODEL_LAYERS = ("block1.temporal_in", "block1.graph", "block1.temporal_out",
                "block2.temporal_in", "block2.graph", "block2.temporal_out")


def _layer_of(fn) -> str:
    return fn.__module__.rsplit(".", 1)[-1]


class Tracer:
    """In-memory spans plus the counters that sit at the same boundaries."""

    def __init__(self, memory: bool):
        self.memory = memory
        self.active = False
        # Each span is [name, start, end, parent index, (args, result)];
        # the last field is filled for ARG_SPANS only.
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.tape_records: list[int] = []
        self.peaks: dict[str, float] = {}
        self.gc_collections = 0
        self.gc_pause_s = 0.0
        self._gc_start = 0.0
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}

    # ------------------------------------------------------------ spans

    def begin(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        tracer = self
        peak = self.memory and name in PEAK_SPANS
        keep = name in ARG_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if peak:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            index = tracer.begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.end(index)
                if keep:
                    tracer.spans[index][4] = (args, result)
                if peak:
                    used = tracemalloc.get_traced_memory()[1] - base
                    tracer.peaks[name] = max(tracer.peaks.get(name, 0.0), used / 2**20)

        return traced

    # ---------------------------------------------------------- install

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap_function(self, module, attr: str) -> None:
        """Wrap ``module.attr``; one wrapper per function for all bindings."""
        fn = getattr(module, attr)
        traced = self._wrappers.get(id(fn))
        if traced is None:
            traced = self._wrappers[id(fn)] = self.wrap(f"{_layer_of(fn)}.{attr}", fn)
        self._patch(module, attr, traced)

    def _wrap_bindings(self, module, own: bool) -> None:
        """Wrap the public geofuse functions ``module`` binds by name.

        ``own`` False skips the functions ``module`` defines itself.
        """
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            if not value.__module__.startswith("geofuse."):
                continue
            if own or value.__module__ != module.__name__:
                self._wrap_function(module, attr)

    def install(self) -> None:
        self.active = True
        self._wrap_bindings(geofuse.tensor, own=True)
        self._wrap_bindings(geofuse.stgcn, own=True)
        self._wrap_bindings(geofuse.cli, own=False)
        for module, attr in DIRECT_CALLS:
            self._wrap_function(module, attr)
        # The root span of every command: cli drives the other layers.
        self._wrap_function(geofuse.cli, "main")

        adam = geofuse.optim.Adam
        self._patch(adam, "step", self.wrap("optim.Adam.step", adam.step))
        model_cls = geofuse.stgcn.StgcnModel
        self._patch(model_cls, "forward",
                    self.wrap("stgcn.StgcnModel.forward", model_cls.forward))
        self._patch(model_cls, "__init__", self._model_init(model_cls.__init__))
        tape = geofuse.tensor.Tape
        self._patch(tape, "__enter__", self._tape_enter(tape.__enter__))
        self._patch(tape, "__exit__", self._tape_exit(tape.__exit__))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        # Layer wrappers set on model instances outlive the patches; they
        # pass straight through once the tracer is inactive.
        self.active = False
        gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _model_init(self, init):
        tracer = self

        @functools.wraps(init)
        def traced_init(model, *args, **kwargs):
            init(model, *args, **kwargs)
            # Instance attributes shadow the class method, so each layer of
            # this model gets a span named after its place in the model.
            for path in MODEL_LAYERS:
                block, layer = path.split(".")
                obj = getattr(getattr(model, block), layer)
                obj.forward = tracer.wrap(f"stgcn.{path}.forward", obj.forward)
            model.head_temporal.forward = tracer.wrap(
                "stgcn.head.forward", model.head_temporal.forward)

        return traced_init

    def _tape_enter(self, enter):
        tracer = self

        def traced_enter(tape):
            tracer.begin("tensor.Tape")
            return enter(tape)

        return traced_enter

    def _tape_exit(self, exit_):
        tracer = self

        def traced_exit(tape, exc_type, exc, tb):
            exit_(tape, exc_type, exc, tb)
            tracer.tape_records.append(len(tape))
            # Every span opened inside the block has closed by now.
            tracer.end(tracer.stack[-1])

        return traced_exit

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_collections += 1
            self.gc_pause_s += time.perf_counter() - self._gc_start

    # ---------------------------------------------------------- analysis

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_times(self) -> dict[str, float]:
        """Seconds per layer, each span's duration less its children's."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (end - start) - child[i]
        return out

    def stage_seconds(self) -> float:
        """Time under the top-level stage spans.

        A stage is a direct child of a ``cli.main`` span or, where the
        benchmark calls the program directly, a span with no parent.
        """
        total = 0.0
        for name, start, end, parent, _ in self.spans:
            if parent < 0 and name != "cli.main":
                total += end - start
            elif parent >= 0 and self.spans[parent][0] == "cli.main":
                total += end - start
        return total

    def train_step_spans(self, name: str) -> list[float]:
        """Durations of ``name`` spans nested inside a training Tape span."""
        out = []
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] != "tensor.Tape":
                parent = self.spans[parent][3]
            if parent >= 0:
                out.append(span[2] - span[1])
        return out

    def calls(self, name: str) -> list[tuple]:
        """(args, result) of every ``name`` call; ARG_SPANS names only."""
        return [s[4] for s in self.spans if s[0] == name]


def pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0
