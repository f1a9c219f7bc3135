"""On-disk corpus format: per-sensor CSV traces, JSON sidecars, session manifest.

Signal files are one CSV per sensor per recording with columns ``t,ax,ay,az``
(seconds, full decimal precision). Metadata and ground truth live in one JSON
sidecar per recording. The manifest is written last and acts as the commit
point for a session directory.
"""
from __future__ import annotations

import json
import math
from itertools import filterfalse
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from .core import GroundTruth, Recording, TriaxialSeries, WalkTask
from .preprocess import NormalizationContext

FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"
_COLUMNS = ("t", "ax", "ay", "az")


class FormatError(ValueError):
    """Malformed or inconsistent on-disk data."""


def _fmt(v: float) -> str:
    return repr(float(v))


def _write_series_csv(path: Path, series: TriaxialSeries) -> None:
    times = series.t0 + np.arange(len(series)) / series.rate
    with open(path, "w", newline="") as f:
        f.write("t,ax,ay,az\n")
        for t, x, y, z in zip(times, series.x, series.y, series.z):
            f.write(f"{_fmt(t)},{_fmt(x)},{_fmt(y)},{_fmt(z)}\n")


def _loadtxt(rows: List[str], usecols: Optional[List[int]] = None) -> np.ndarray:
    return np.loadtxt(rows, delimiter=",", comments=None, usecols=usecols, ndmin=2)


def _row_error(rows: List[str], ncols: int) -> Tuple[int, str]:
    """The first row that is not ``ncols`` numbers, and what is wrong with it.

    Found by bisection on row prefixes, so that ``np.loadtxt`` stays the one
    parser and its error text is never read.
    """
    def parses(part: List[str], usecols: Optional[List[int]] = None) -> bool:
        try:
            return _loadtxt(part, usecols).shape[1] == (ncols if usecols is None else 1)
        except ValueError:
            return False

    good, bad = 0, len(rows)  # rows[:good] parse, rows[:bad] do not
    while bad - good > 1:
        mid = (good + bad) // 2
        good, bad = (mid, bad) if parses(rows[:mid]) else (good, mid)
    fields = rows[good].strip().split(",")
    if len(fields) != ncols:
        return good, f"expected {ncols} fields"
    col = next(c for c in range(ncols) if not parses([rows[good]], [c]))
    return good, f"could not convert string to float: {fields[col]!r}"


def _line_of(lines: List[str], row: int) -> int:
    """The 1-based file line of data row ``row``; ``lines`` follow the header."""
    return [n for n, line in enumerate(lines, start=2) if not line.isspace()][row]


def _check(path: Path, lines: List[str], bad: np.ndarray, message: str) -> None:
    """Raise at the file line of the first data row where ``bad`` holds."""
    if bad.any():
        raise FormatError(f"{path}:{_line_of(lines, int(bad.argmax()))}: {message}")


def _read_series_csv(path: Path, rate: float, t0: float) -> TriaxialSeries:
    with open(path) as f:
        cols = f.readline().strip().split(",")
        lines = f.readlines()
    for col in _COLUMNS:
        if col not in cols:
            raise FormatError(f"{path}: missing column {col!r}")
    rows = list(filterfalse(str.isspace, lines))
    if not rows:
        raise FormatError(f"{path}: no samples")
    try:
        data = _loadtxt(rows)
    except ValueError:
        data = None
    if data is None or data.shape[1] != len(cols):
        row, message = _row_error(rows, len(cols))
        raise FormatError(f"{path}:{_line_of(lines, row)}: {message}")
    used = data[:, [cols.index(c) for c in _COLUMNS]]
    _check(path, lines, ~np.isfinite(used).all(axis=1), "values must be finite")
    t, x, y, z = used.T
    _check(path, lines, np.diff(t, prepend=-np.inf) <= 0, "non-monotonic timestamp")
    off_grid = np.abs(t - (t0 + np.arange(len(t)) / rate)) > 0.5 / rate
    _check(path, lines, off_grid, f"timestamp is not t0 + i/rate (t0={t0!r}, rate={rate!r})")
    return TriaxialSeries(rate=rate, x=x, y=y, z=z, t0=t0)


def _gt_to_json(gt: Optional[GroundTruth]) -> Optional[dict]:
    if gt is None:
        return None
    return {
        "step_times": list(gt.step_times),
        "heel_strikes_left": list(gt.heel_strikes_left),
        "heel_strikes_right": list(gt.heel_strikes_right),
        "toe_offs_left": list(gt.toe_offs_left),
        "toe_offs_right": list(gt.toe_offs_right),
        "label_count": gt.label_count,
    }


def _gt_from_json(d: Optional[dict], where: str) -> Optional[GroundTruth]:
    if d is None:
        return None
    try:
        return GroundTruth(**d)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{where}: invalid ground truth: {exc}") from None


def dump_json(path: Path, payload: dict) -> None:
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def save_recording(rec: Recording, out_dir) -> Dict[str, str]:
    """Write one recording; returns the relative file map for the manifest."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = {
        "left": f"{rec.id}_left.csv",
        "right": f"{rec.id}_right.csv",
        "sidecar": f"{rec.id}.json",
    }
    _write_series_csv(out_dir / files["left"], rec.left)
    _write_series_csv(out_dir / files["right"], rec.right)
    sidecar = {
        "format_version": FORMAT_VERSION,
        "id": rec.id,
        "subject_id": rec.subject_id,
        "task": rec.task.value,
        "duration": rec.duration,
        "self_count": rec.self_count,
        "left": {"rate": rec.left.rate, "t0": rec.left.t0},
        "right": {"rate": rec.right.rate, "t0": rec.right.t0},
        "ground_truth": _gt_to_json(rec.ground_truth),
    }
    dump_json(out_dir / files["sidecar"], sidecar)
    return files


def _time_base(meta: dict, side: str, sidecar_path: Path) -> Tuple[float, float]:
    """The sidecar's ``rate`` and ``t0`` for one wrist."""
    try:
        rate, t0 = meta[side]["rate"], meta[side]["t0"]
        valid = rate > 0 and math.isfinite(rate) and math.isfinite(t0)
    except (KeyError, TypeError):
        valid = False
    if not valid:
        raise FormatError(f"{sidecar_path}: {side!r} needs a finite 'rate' > 0 and a finite 't0'")
    return rate, t0


def load_recording(sidecar_path) -> Recording:
    """Load a recording from its JSON sidecar (CSV paths are relative to it)."""
    sidecar_path = Path(sidecar_path)
    try:
        with open(sidecar_path) as f:
            meta = json.load(f)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{sidecar_path}: invalid JSON: {exc}") from None
    version = meta.get("format_version")
    if version != FORMAT_VERSION:
        raise FormatError(f"{sidecar_path}: unsupported format version {version!r}")
    for key in ("id", "subject_id", "task", "duration", "left", "right"):
        if key not in meta:
            raise FormatError(f"{sidecar_path}: missing key {key!r}")
    try:
        task = WalkTask(meta["task"])
    except ValueError:
        raise FormatError(f"{sidecar_path}: unknown task {meta['task']!r}") from None
    rid = meta["id"]
    base = sidecar_path.parent
    left = _read_series_csv(base / f"{rid}_left.csv", *_time_base(meta, "left", sidecar_path))
    right = _read_series_csv(base / f"{rid}_right.csv", *_time_base(meta, "right", sidecar_path))
    gt = _gt_from_json(meta.get("ground_truth"), str(sidecar_path))
    try:
        return Recording(
            id=rid,
            subject_id=meta["subject_id"],
            task=task,
            left=left,
            right=right,
            duration=meta["duration"],
            ground_truth=gt,
            self_count=meta.get("self_count"),
        )
    except ValueError as exc:
        raise FormatError(f"{sidecar_path}: {exc}") from None


def context_to_json(ctx: NormalizationContext) -> dict:
    return {"global_min": ctx.global_min, "global_max": ctx.global_max}


def write_manifest(out_dir, recordings: List[Recording], file_maps: Dict[str, Dict[str, str]]) -> None:
    manifest = {
        "format_version": FORMAT_VERSION,
        "recordings": {
            rec.id: {
                "subject_id": rec.subject_id,
                "task": rec.task.value,
                "duration": rec.duration,
                "label_count": rec.ground_truth.label_count if rec.ground_truth else None,
                "self_count": rec.self_count,
                "files": file_maps[rec.id],
            }
            for rec in recordings
        },
    }
    dump_json(Path(out_dir) / MANIFEST_NAME, manifest)


def load_manifest(corpus_dir) -> dict:
    path = Path(corpus_dir) / MANIFEST_NAME
    if not path.exists():
        raise FormatError(f"{path}: manifest not found (incomplete session?)")
    with open(path) as f:
        manifest = json.load(f)
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported format version {version!r}")
    for rid, entry in manifest.get("recordings", {}).items():
        for role, fname in entry["files"].items():
            if not (Path(corpus_dir) / fname).exists():
                raise FormatError(f"{path}: missing {role} file {fname!r} for {rid}")
    return manifest


def load_corpus(corpus_dir) -> List[Recording]:
    """Load every recording referenced by the manifest, in sorted id order
    (the order ``dump_json`` writes the manifest's recordings in)."""
    corpus_dir = Path(corpus_dir)
    manifest = load_manifest(corpus_dir)
    return [
        load_recording(corpus_dir / entry["files"]["sidecar"])
        for entry in manifest["recordings"].values()
    ]


def save_corpus(recordings: List[Recording], out_dir) -> None:
    file_maps = {rec.id: save_recording(rec, out_dir) for rec in recordings}
    write_manifest(out_dir, recordings, file_maps)
