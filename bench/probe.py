"""Spans recorded around calls into dynssm's public entry points.

Nothing inside the package changes: a :class:`Probe` swaps module and class
attributes for timing wrappers while it is active and puts the originals back
when it exits. It has two levels.

* Timers (always on): one span per optimizer step (``training.batch`` then
  ``training.adam``), per model forward, per ``evaluate`` and per
  ``train_model`` call. The end-to-end figures come from these and cost a few
  microseconds per subject.
* Stages (traced rounds only): one span per pipeline stage, data reader and
  checkpoint call, plus the backward pass split by stage. Each stage span
  notes the range of ``Tape.nodes`` indices its call appended (found through
  ``active_tape()``); the innermost stage owns a node. While ``Tape.backward``
  runs, every node's vjp is timed and charged to its owner. Nodes appended
  outside any stage (the batch-mean loss, a probe loss) are charged to
  ``training.loss``.

Spans of one subject share the subject id that its ``model.forward`` span
opened. All spans stay in memory until :meth:`Recorder.dump`.
"""

from __future__ import annotations

import json
import time
import weakref
from collections import defaultdict

from dynssm import align as al
from dynssm import data as D
from dynssm import graph as gr
from dynssm import model as M
from dynssm import ssm as sm
from dynssm import tensor as tt
from dynssm import training as TR

clock = time.perf_counter_ns

UNOWNED_STAGE = "training.loss"

# (owner, attribute, span name); the owner is where the caller looks it up.
TIMERS = (
    (TR, "_batch_gradients", "training.batch"),
    (TR.Adam, "step", "training.adam"),
    (M.BrainSequenceClassifier, "forward", "model.forward"),
    (TR, "evaluate", "training.evaluate"),
    (TR, "train_model", "training.train_model"),
)

# Pipeline stages: their spans claim tape nodes.
STAGES = (
    (gr, "conv_stage", "graph.conv"),
    (gr, "encode_nodes", "graph.attention"),
    (tt, "scaled_self_outer", "graph.adjacency"),
    (gr, "encode_sequence", "graph.filter"),
    (sm, "selective_rates", "ssm.rates"),
    (tt, "selective_scan", "ssm.scan"),
    (sm, "ssm_forward", "ssm.mix"),
    (al, "compress_tokens", "align.compress"),
    (al, "surrogate_forward", "align.surrogate"),
    (TR, "cross_entropy", "training.loss"),
)

# Readers and writers: spans only.
IO = (
    (D, "synth_generate", "data.synth"),
    (D, "load_dataset", "data.load"),
    (D, "load_roi_csv", "data.load_csv"),
    (TR, "normalize_zscore", "data.normalize"),
    (M, "save_params", "checkpoint.save"),
    (M, "load_params", "checkpoint.load"),
)

STAGE_NAMES = tuple(name for _, _, name in STAGES)


class Span:
    __slots__ = ("name", "start", "end", "parent", "subject", "attrs")

    def __init__(self, name, start, parent, subject):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.subject = subject
        self.attrs = {}

    @property
    def duration(self) -> int:
        return self.end - self.start

    def as_dict(self, index: int) -> dict:
        return {"id": index, "name": self.name, "start_ns": self.start, "end_ns": self.end,
                "parent": self.parent, "subject": self.subject, **self.attrs}


class Recorder:
    """In-memory span store; a span's parent is the innermost open span."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._subjects = 0

    def begin(self, name: str, new_subject: bool = False, **attrs) -> int:
        parent = self._open[-1] if self._open else None
        if new_subject:
            self._subjects += 1
            subject = self._subjects
        else:
            subject = self.spans[parent].subject if parent is not None else None
        span = Span(name, 0, parent, subject)
        span.attrs.update(attrs)
        self.spans.append(span)
        index = len(self.spans) - 1
        self._open.append(index)
        span.start = clock()
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = clock()
        if self._open.pop() != index:
            raise RuntimeError("spans closed out of order")

    def children(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = defaultdict(list)
        for i, s in enumerate(self.spans):
            if s.parent is not None:
                kids[s.parent].append(i)
        return kids

    def self_ns(self, kids=None) -> list[int]:
        """Each span's duration minus the durations of its direct children."""
        kids = self.children() if kids is None else kids
        return [s.duration - sum(self.spans[c].duration for c in kids.get(i, ()))
                for i, s in enumerate(self.spans)]

    def dump(self, path) -> None:
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps(s.as_dict(i), sort_keys=True) + "\n")


class Probe:
    """Install the timers (and, when ``stages``, the tracing wrappers)."""

    def __init__(self, recorder: Recorder, stages: bool):
        self.rec = recorder
        self.stages = stages
        self._saved: list = []
        # Per tape: (first node, end node, stage span) in completion order.
        self._ranges = weakref.WeakKeyDictionary()

    def __enter__(self) -> "Probe":
        for owner, attr, name in TIMERS:
            self._swap(owner, attr, self._timer(getattr(owner, attr), name))
        if self.stages:
            for owner, attr, name in STAGES:
                self._swap(owner, attr, self._stage(getattr(owner, attr), name))
            for owner, attr, name in IO:
                self._swap(owner, attr, self._timer(getattr(owner, attr), name))
            self._swap(tt.Tape, "backward", self._backward(tt.Tape.backward))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _swap(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _timer(self, fn, name):
        rec = self.rec
        new_subject = name == "model.forward"
        def wrapped(*args, **kwargs):
            attrs = {}
            if name == "model.forward":
                attrs["training"] = bool(kwargs.get("training", False))
            elif name == "training.batch":
                attrs["subjects"] = len(args[1])
            elif name == "training.evaluate":
                attrs["subjects"] = len(args[1])
                attrs["test"] = not kwargs.get("normalized", False)
            index = rec.begin(name, new_subject=new_subject, **attrs)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.end(index)
        return wrapped

    def _stage(self, fn, name):
        rec, ranges = self.rec, self._ranges
        def wrapped(*args, **kwargs):
            tape = tt.active_tape()
            first = len(tape.nodes) if tape is not None else 0
            index = rec.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.end(index)
                if tape is not None:
                    ranges.setdefault(tape, []).append((first, len(tape.nodes), index))
        return wrapped

    def _owners(self, tape) -> list:
        """Innermost stage span per node; also sets each stage span's node count."""
        owner = [None] * len(tape.nodes)
        for first, stop, index in self._ranges.pop(tape, ()):
            claimed = 0
            for i in range(first, stop):
                if owner[i] is None:
                    owner[i] = index
                    claimed += 1
            self.rec.spans[index].attrs["nodes"] = claimed
        return owner

    def _backward(self, original):
        probe = self
        rec = self.rec
        def backward(tape, loss, params=None):
            owner = probe._owners(tape)
            vjp_ns: dict[str, int] = defaultdict(int)
            nodes_by_stage: dict[str, int] = defaultdict(int)
            originals = []
            for node, span_index in zip(tape.nodes, owner):
                stage = UNOWNED_STAGE if span_index is None else rec.spans[span_index].name
                nodes_by_stage[stage] += 1
                originals.append(node.vjp)
                node.vjp = _timed(node.vjp, vjp_ns, stage)
            tape_bytes = sum(node.out.data.nbytes for node in tape.nodes)
            index = rec.begin("tensor.backward", nodes=len(tape.nodes), tape_bytes=tape_bytes)
            try:
                return original(tape, loss, params)
            finally:
                rec.end(index)
                for node, vjp in zip(tape.nodes, originals):
                    node.vjp = vjp
                rec.spans[index].attrs["vjp_ns"] = dict(vjp_ns)
                rec.spans[index].attrs["nodes_by_stage"] = dict(nodes_by_stage)
        return backward


def _timed(vjp, acc, stage):
    def run(g):
        t0 = clock()
        try:
            return vjp(g)
        finally:
            acc[stage] += clock() - t0
    return run
