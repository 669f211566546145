"""Span tracer and per-layer instrumentation for the openworld-kit benchmark.

The tracer wraps public functions of the package's modules at every import
site (each package module attribute bound to the original function object),
records one span per call, and folds the spans into per-layer metrics. A
layer's self time is its span duration minus the time its wrapped children
cover. Nothing in the package itself changes: `instrumented()` patches on
entry and restores every attribute on exit, and the untraced benchmark run
never calls it.

Names that a later refactor removes are tolerated: a missing function marks
its metrics absent with a warning instead of failing the run.
"""

from __future__ import annotations

import os
import re
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

PACKAGE = "openworld_kit"
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def valid_metric_name(name: str) -> bool:
    return NAME_RE.fullmatch(name) is not None


# ---------------------------------------------------------------------------
# spans and self time


@dataclass
class _Frame:
    name: str
    span_id: int
    start: float
    child_time: float = 0.0


@dataclass
class Tracer:
    """In-memory spans plus per-name call, self-time and counter totals."""

    clock: Callable[[], float] = time.perf_counter
    spans: list[tuple[int, int | None, str, float, float]] = field(default_factory=list)
    calls: Counter = field(default_factory=Counter)
    self_time: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    absent: dict[str, str] = field(default_factory=dict)
    _stack: list[_Frame] = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        """Time the body as one span; its duration counts as child time of
        the enclosing span."""
        parent = self._stack[-1].span_id if self._stack else None
        frame = _Frame(name, len(self.spans) + len(self._stack), self.clock())
        self._stack.append(frame)
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            duration = end - frame.start
            self.calls[name] += 1
            self.self_time[name] += duration - frame.child_time
            self.spans.append((frame.span_id, parent, name, frame.start, end))
            if self._stack:
                self._stack[-1].child_time += duration

    @contextmanager
    def untimed(self):
        """Bookkeeping the tracer does itself; excluded from the enclosing
        span's self time."""
        start = self.clock()
        try:
            yield
        finally:
            if self._stack:
                self._stack[-1].child_time += self.clock() - start

    @property
    def parent_name(self) -> str | None:
        return self._stack[-1].name if self._stack else None

    def add(self, name: str, value: float) -> None:
        self.counts[name] += value

    def peak(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts[name], value)


# ---------------------------------------------------------------------------
# counters computed from a wrapped call's arguments and result


def _arg(args, kwargs, index: int, name: str):
    if name in kwargs:
        return kwargs[name]
    return args[index]


def pair_bound(labels, class_wise: bool = True) -> tuple[int, int]:
    """(sum over NMS groups of n(n-1)/2, largest group size).

    Greedy NMS compares a candidate only with kept boxes of its own group,
    so the pair count bounds its IoU evaluations.
    """
    sizes = Counter(labels) if class_wise else Counter({0: len(labels)})
    return (sum(n * (n - 1) // 2 for n in sizes.values()),
            max(sizes.values(), default=0))


def _file_bytes(key):
    def count(tracer, args, kwargs, result):
        tracer.add(key, os.path.getsize(_arg(args, kwargs, 0, "path")))
    return count


def _project_rows(tracer, args, kwargs, result):
    grids = _arg(args, kwargs, 1, "grids")
    layers = getattr(grids, "layers", grids)
    rows = sum(int(g.size // g.shape[-1]) for g in layers)
    tracer.add("mscal.project.rows", rows)
    if tracer.parent_name == "training.train_task":
        tracer.add("mscal.project.train_rows", rows)
        if _arg(args, kwargs, 0, "module").frozen:
            tracer.add("mscal.project.frozen_rows", rows)


def _adamw_arrays(tracer, args, kwargs, result):
    tracer.add("training.adamw_step.arrays", len(_arg(args, kwargs, 0, "params")))


def _decoded(tracer, args, kwargs, result):
    tracer.add("detection.decode_detections.out", len(result))


def _gate(tracer, args, kwargs, result):
    dets = _arg(args, kwargs, 0, "dets")
    tracer.add("detection.apply_ood_gate.in", len(dets))
    if len(result) == len(dets):
        relabeled = sum(1 for a, b in zip(dets, result)
                        if not a.is_unknown and b.is_unknown)
    else:  # suppress mode drops gated detections
        relabeled = len(dets) - len(result)
    tracer.add("detection.apply_ood_gate.relabeled", relabeled)


def _nms(tracer, args, kwargs, result):
    dets = _arg(args, kwargs, 0, "dets")
    class_wise = kwargs.get("class_wise", args[2] if len(args) > 2 else True)
    pairs, biggest = pair_bound([d.label for d in dets], class_wise)
    tracer.add("detection.nms.in", len(dets))
    tracer.add("detection.nms.kept", len(result))
    tracer.add("detection.nms.pair_bound", pairs)
    tracer.peak("detection.nms.max_group", biggest)


@dataclass(frozen=True)
class Probe:
    """One wrapped function: module, attribute, metric base, counter hook."""

    module: str
    attr: str
    base: str
    counter: Callable | None = None


PROBES = (
    Probe("synthetic_world", "make_world", "synthetic_world.make_world"),
    Probe("synthetic_world", "generate_scene", "synthetic_world.generate_scene"),
    Probe("synthetic_world", "load_split", "synthetic_world.load_split"),
    Probe("pyramid", "write_pyramid_blob", "pyramid.write_pyramid_blob",
          _file_bytes("pyramid.write_pyramid_blob.bytes")),
    Probe("pyramid", "read_pyramid_blob", "pyramid.read_pyramid_blob",
          _file_bytes("pyramid.read_pyramid_blob.bytes")),
    Probe("embedding_space", "register_task", "embedding_space"),
    Probe("embedding_space", "prompt_matrix", "embedding_space"),
    Probe("embedding_space", "load_embedding_file", "embedding_space"),
    Probe("mscal", "project", "mscal.project", _project_rows),
    Probe("mscal", "mscal_loss_gradients", "mscal.mscal_loss_gradients"),
    Probe("mscal", "mscal_loss", "mscal.mscal_loss"),
    Probe("mscal", "ood_score_map", "mscal.ood_score_map"),
    Probe("mscal", "calibrate_threshold", "mscal.calibrate_threshold"),
    Probe("training", "train_task", "training.train_task"),
    Probe("training", "_assignment_for_class", "training.assignment"),
    Probe("training", "detection_loss", "training.detection_loss"),
    Probe("training", "adamw_step", "training.adamw_step", _adamw_arrays),
    Probe("training", "save_checkpoint", "training.save_checkpoint"),
    Probe("training", "load_checkpoint", "training.load_checkpoint"),
    Probe("detection", "classify_locations", "detection.classify_locations"),
    Probe("detection", "decode_detections", "detection.decode_detections", _decoded),
    Probe("detection", "apply_ood_gate", "detection.apply_ood_gate", _gate),
    Probe("detection", "nms", "detection.nms", _nms),
    Probe("detection", "write_detections_jsonl", "detection.write_detections_jsonl",
          _file_bytes("detection.write_detections_jsonl.bytes")),
    Probe("detection", "read_detections_jsonl", "detection.read_detections_jsonl"),
    Probe("owod_eval", "read_gt_jsonl", "owod_eval.read_gt_jsonl"),
    Probe("owod_eval", "class_average_precision", "owod_eval.class_average_precision"),
    Probe("owod_eval", "wilderness_impact", "owod_eval.wilderness_impact"),
    Probe("owod_eval", "u_recall", "owod_eval.u_recall"),
    Probe("owod_eval", "a_ose", "owod_eval.a_ose"),
    Probe("owod_eval", "evaluate_task", "owod_eval.evaluate_task"),
    Probe("owod_eval", "write_report_json", "owod_eval.write_report"),
    Probe("owod_eval", "write_report_csv", "owod_eval.write_report"),
    Probe("cli", "cmd_gen", "cli.cmd_gen"),
    Probe("cli", "cmd_train", "cli.cmd_train"),
    Probe("cli", "cmd_infer", "cli.cmd_infer"),
    Probe("cli", "cmd_eval", "cli.cmd_eval"),
)


def _wrap(fn, base: str, counter, tracer: Tracer):
    def wrapper(*args, **kwargs):
        with tracer.span(base):
            result = fn(*args, **kwargs)
        if counter is not None and base not in tracer.absent:
            with tracer.untimed():
                try:
                    counter(tracer, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, OSError) as exc:
                    _mark_absent(tracer, base, f"counter failed: {exc!r}")
        return result
    wrapper.__wrapped__ = fn
    return wrapper


def _mark_absent(tracer: Tracer, base: str, reason: str) -> None:
    tracer.absent[base] = reason
    print(f"warning: {base} metrics absent ({reason})", file=sys.stderr)


@contextmanager
def instrumented(tracer: Tracer):
    """Wrap every probe at all of its import sites for the duration."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
    patched: list[tuple[object, str, object]] = []
    try:
        for probe in PROBES:
            home = sys.modules.get(f"{PACKAGE}.{probe.module}")
            original = getattr(home, probe.attr, None)
            if not callable(original):
                _mark_absent(tracer, probe.base, f"{probe.module}.{probe.attr} not found")
                continue
            wrapper = _wrap(original, probe.base, probe.counter, tracer)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patched.append((module, attr, original))
                        setattr(module, attr, wrapper)
        yield tracer
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics

# (span or counter base, fields). "calls" counts spans, "s" and "self_s" are
# self time, any other field is the counter `<base>.<field>`.
LAYER_FIELDS = (
    ("synthetic_world.make_world", ("s",)),
    ("synthetic_world.generate_scene", ("calls", "s")),
    ("synthetic_world.load_split", ("s",)),
    ("pyramid.write_pyramid_blob", ("calls", "s", "bytes")),
    ("pyramid.read_pyramid_blob", ("calls", "s", "bytes")),
    ("embedding_space", ("calls", "s")),
    ("mscal.project", ("calls", "s", "rows", "frozen_rows")),
    ("mscal.mscal_loss_gradients", ("calls", "s")),
    ("mscal.mscal_loss", ("calls", "s")),
    ("mscal.ood_score_map", ("calls", "s")),
    ("mscal.calibrate_threshold", ("s",)),
    ("training.train_task", ("self_s",)),
    ("training.assignment", ("calls", "s")),
    ("training.detection_loss", ("calls", "s")),
    ("training.adamw_step", ("calls", "s")),
    ("training.save_checkpoint", ("s",)),
    ("training.load_checkpoint", ("s",)),
    ("detection.classify_locations", ("calls", "s")),
    ("detection.decode_detections", ("s", "out")),
    ("detection.apply_ood_gate", ("s", "relabeled")),
    ("detection.nms", ("calls", "s", "in", "kept", "max_group", "pair_bound")),
    ("detection.write_detections_jsonl", ("s", "bytes")),
    ("detection.read_detections_jsonl", ("s",)),
    ("owod_eval.read_gt_jsonl", ("s",)),
    ("owod_eval.class_average_precision", ("calls", "s")),
    ("owod_eval.wilderness_impact", ("s",)),
    ("owod_eval.u_recall", ("s",)),
    ("owod_eval.a_ose", ("s",)),
    ("owod_eval.evaluate_task", ("self_s",)),
    ("owod_eval.write_report", ("s",)),
    ("cli.cmd_gen", ("self_s",)),
    ("cli.cmd_train", ("self_s",)),
    ("cli.cmd_infer", ("self_s",)),
    ("cli.cmd_eval", ("self_s",)),
)

# (base, ratio field, numerator field, denominator field)
LAYER_RATIOS = (
    ("mscal.project", "frozen_share", "frozen_rows", "train_rows"),
    ("training.adamw_step", "arrays_per_step", "arrays", "calls"),
    ("detection.apply_ood_gate", "relabel_share", "relabeled", "in"),
    ("detection.nms", "keep_share", "kept", "in"),
)


def _field(tracer: Tracer, base: str, name: str) -> float:
    if name == "calls":
        return float(tracer.calls[base])
    if name in ("s", "self_s"):
        return tracer.self_time[base]
    return tracer.counts[f"{base}.{name}"]


def layer_metrics(tracer: Tracer) -> dict[str, float | None]:
    """Per-layer metric values by name; None marks an absent metric or a
    ratio with nothing to divide by."""
    out: dict[str, float | None] = {}
    for base, names in LAYER_FIELDS:
        for name in names:
            out[f"{base}.{name}"] = None if base in tracer.absent else _field(tracer, base, name)
    for base, name, num, den in LAYER_RATIOS:
        denominator = _field(tracer, base, den)
        out[f"{base}.{name}"] = (None if base in tracer.absent or not denominator
                                 else _field(tracer, base, num) / denominator)
    return out
