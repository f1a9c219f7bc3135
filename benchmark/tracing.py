"""Spans around calls into the package's modules, recorded from outside it.

``Tracer.installed()`` rebinds each listed function wherever the package
binds it, in its own module and in every sibling module that imported it by
name, so calls between modules are timed too. Spans (name, start, end,
parent) stay in memory until ``write_spans``. The package itself is not changed.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())


def _samples(c, args, kwargs, out):
    c["simulate.samples"] += len(out.left) + len(out.right)


def _bytes_written(c, args, kwargs, out):
    c["io_formats.bytes_written"] += _dir_bytes(args[1] if len(args) > 1 else kwargs["out_dir"])


def _bytes_read(c, args, kwargs, out):
    c["io_formats.bytes_read"] += _dir_bytes(args[0] if args else kwargs["corpus_dir"])


def _ma_samples(c, args, kwargs, out):
    c["preprocess.moving_average.samples"] += len(args[0])


def _distinct_signal(c, args, kwargs, out):
    rec, side, window = args
    c.setdefault("fusion.smoothed_magnitude.distinct", set()).add((rec.id, side, window))


def _nms_counts(c, args, kwargs, out):
    c["peaks.greedy_nms.in"] += len(out)
    c["peaks.greedy_nms.kept"] += int(out.sum())


def _candidate_count(c, args, kwargs, out):
    c["peaks.candidate_peaks.out"] += len(out)


def _cells(c, args, kwargs, out):
    c["pipeline.count_tensor.cells"] += out.size


def _phase_steps(c, args, kwargs, out):
    c["evaluate.phase_offsets.steps"] += len(out.dt_toe)


def _cv_name(args, kwargs) -> str:
    alg = args[1] if len(args) > 1 else kwargs["alg"]
    return f"tuning.cross_validate.{alg.value}"


# (module, attribute, counter): the public functions timed per layer.
TARGETS = [
    ("simulate", "simulate_corpus", None),
    ("simulate", "simulate_recording", _samples),
    ("io_formats", "save_corpus", _bytes_written),
    ("io_formats", "load_corpus", _bytes_read),
    ("preprocess", "magnitude", None),
    ("preprocess", "moving_average", _ma_samples),
    ("preprocess", "fit_normalization", None),
    ("preprocess", "min_max_normalize", None),
    ("fusion", "smoothed_magnitude", _distinct_signal),
    ("fusion", "fused_signal", None),
    ("fusion", "mutual_nearest", None),
    ("fusion", "union_fuse", None),
    ("fusion", "intersect_fuse", None),
    ("peaks", "candidate_peaks", _candidate_count),
    ("peaks", "priority_rank", None),
    ("peaks", "greedy_nms", _nms_counts),
    ("peaks", "suppress_peaks", None),
    ("pipeline", "CorpusEngine.steps", None),
    ("pipeline", "CorpusEngine.count_tensor", _cells),
    ("evaluate", "phase_offsets", _phase_steps),
    ("evaluate", "summarize_counts", None),
    ("evaluate", "evaluate_corpus", None),
    ("tuning", "cross_validate", None),
    ("tuning", "rmse", None),
    ("cli", "cli_main", None),
]

_SPAN_NAMES = {"tuning.cross_validate": _cv_name}


class Tracer:
    """Spans as parallel lists, so that a long run adds no objects for the
    garbage collector to walk."""

    def __init__(self):
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []  # index of the enclosing span, or -1
        self.counters: Dict[str, object] = defaultdict(int)
        self._stack: List[int] = []

    def _wrap(self, name: str, fn: Callable, counter: Optional[Callable]) -> Callable:
        namer = _SPAN_NAMES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(namer(args, kwargs) if namer else name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(0.0)
            self._stack.append(idx)
            self.starts.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.ends[idx] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                counter(self.counters, args, kwargs, out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every target in every loaded ``dualwrist`` module; restore on exit."""
        targets = [(importlib.import_module(f"dualwrist.{m}"), m, attr, counter) for m, attr, counter in TARGETS]
        modules = [m for n, m in list(sys.modules.items()) if n == "dualwrist" or n.startswith("dualwrist.")]
        undo = []
        try:
            for mod, mod_name, attr, counter in targets:
                name = f"{mod_name}.{attr.split('.')[-1]}"
                if "." in attr:  # a method: rebind it on its class
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    undo.append((cls, meth, cls.__dict__[meth]))
                    setattr(cls, meth, self._wrap(name, cls.__dict__[meth], counter))
                    continue
                original = getattr(mod, attr)
                wrapper = self._wrap(name, original, counter)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            undo.append((m, key, original))
                            setattr(m, key, wrapper)
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    def metrics(self) -> Dict[str, float]:
        """Per-name totals: ``.s`` (inclusive), ``.self_s`` (minus child
        spans), ``.calls``; plus the counters."""
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        child_s = [0.0] * len(durations)
        for d, parent in zip(durations, self.parents):
            if parent >= 0:
                child_s[parent] += d
        out: Dict[str, float] = defaultdict(float)
        for name, d, kids in zip(self.names, durations, child_s):
            out[f"{name}.s"] += d
            out[f"{name}.self_s"] += d - kids
            out[f"{name}.calls"] += 1
        for key, value in self.counters.items():
            out[key] = len(value) if isinstance(value, set) else value
        return out

    def spans(self, offset: int = 0) -> List[list]:
        """[name, start, end, parent] per span, indices shifted by ``offset``."""
        return [
            [n, s, e, p + offset if p >= 0 else -1]
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]


def write_spans(path: Path, spans: List[list], meta: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        json.dump({**meta, "fields": ["name", "start", "end", "parent"], "spans": spans}, f)
