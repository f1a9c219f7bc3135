"""On-disk corpus format: per-sensor CSV traces, JSON sidecars, session manifest.

Signal files are one CSV per sensor per recording with columns ``t,ax,ay,az``
(seconds, full decimal precision). Beside each CSV, a ``.npy`` file holds the
same values as the float64 table the CSV parses to. Metadata, ground truth and
the sha256 of each CSV and ``.npy`` live in one JSON sidecar per recording; a
copy is read only while both digests match, so an edited CSV is always parsed.
The manifest is written last and acts as the commit point for a session
directory.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import GroundTruth, Recording, TriaxialSeries, WalkTask
from .preprocess import NormalizationContext

FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"
_COLUMNS = ("t", "ax", "ay", "az")
_DIGESTS = "sha256"  # sidecar key: file name -> sha256 of each wrist's CSV and .npy
_ROWS_PER_WRITE = 4096


class FormatError(ValueError):
    """Malformed or inconsistent on-disk data."""


def float_text(values) -> List[str]:
    """The CSV text of a float column: ``repr`` of each value as a Python
    float, which is the shortest text that parses back to the same double."""
    return list(map(repr, np.asarray(values, dtype=np.float64).tolist()))


def csv_text(header: str, columns: Sequence[List[str]]) -> str:
    """``header``, then one line per row of ``columns``, which are lists of
    field text of one length; every line ends in a newline."""
    rows = "\n".join(map(",".join, zip(*columns, strict=True)))
    return f"{header}\n{rows}\n" if columns[0] else f"{header}\n"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _time_column(series: TriaxialSeries) -> np.ndarray:
    """A wrist's timestamps ``t0 + i/rate``."""
    return series.t0 + np.arange(len(series)) / series.rate


def _write_series(out_dir: Path, wrists: Dict[str, Tuple[TriaxialSeries, np.ndarray]]) -> Dict[str, str]:
    """Write ``<stem>.csv`` and its binary copy ``<stem>.npy`` for each
    ``stem -> (series, times)`` of ``wrists``; returns the sha256 of each
    file by name. The CSVs are formatted, hashed and written
    ``_ROWS_PER_WRITE`` rows at a time, so the text held is one block's,
    and a block of a ``times`` array shared with the wrist before is
    formatted once."""
    digests = {}
    for stem, (series, times) in wrists.items():
        npy = io.BytesIO()
        # The C-ordered (n, 4) float64 table that parsing the CSV yields.
        np.save(npy, np.column_stack([times, series.x, series.y, series.z]))
        with npy.getbuffer() as data:
            (out_dir / f"{stem}.npy").write_bytes(data)
            digests[f"{stem}.npy"] = _sha256(data)
    header = f"{','.join(_COLUMNS)}\n".encode()
    with contextlib.ExitStack() as stack:
        csvs = {}
        for stem, (series, times) in wrists.items():
            out = stack.enter_context(open(out_dir / f"{stem}.csv", "wb"))
            out.write(header)
            csvs[f"{stem}.csv"] = (out, hashlib.sha256(header), series, times)
        for start in range(0, max(len(series) for series, _ in wrists.values()), _ROWS_PER_WRITE):
            block, shared = slice(start, start + _ROWS_PER_WRITE), None
            for out, sha, series, times in csvs.values():
                if start >= len(series):
                    continue
                if times is not shared:
                    shared, time_text = times, float_text(times[block])
                columns = [time_text, *(float_text(v[block]) for v in (series.x, series.y, series.z))]
                data = ("\n".join(map(",".join, zip(*columns))) + "\n").encode()
                out.write(data)
                sha.update(data)
    digests.update((name, sha.hexdigest()) for name, (_, sha, _, _) in csvs.items())
    return digests


def _loadtxt(rows: List[str], usecols: Optional[List[int]] = None, dtype: type = float) -> np.ndarray:
    return np.loadtxt(rows, dtype=dtype, delimiter=",", comments=None, usecols=usecols, ndmin=2)


def _row_error(rows: List[str], ncols: int, dtype: type = float) -> Tuple[int, str]:
    """The first row that is not ``ncols`` numbers of ``dtype``, and what is wrong with it.

    Found by bisection on row prefixes, so that ``np.loadtxt`` stays the one
    parser and its error text is never read.
    """
    def parses(part: List[str], usecols: Optional[List[int]] = None) -> bool:
        try:
            return _loadtxt(part, usecols, dtype).shape[1] == (ncols if usecols is None else 1)
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
    return good, f"could not convert string to {dtype.__name__}: {fields[col]!r}"


class CsvTable:
    """A CSV file's data rows, read once with blank lines skipped: each row's
    ``columns``, which the header must name, in ``values``; its ``label``
    field, the header's first column, in ``labels`` (a label may hold commas);
    and its 1-based file line in ``lines``. ``np.loadtxt`` parses every other
    field as a ``dtype``, ``float`` or ``int``, which numpy reads as 64-bit.
    Errors name the file, and a bad row's line.
    """

    def __init__(self, path: Path, columns: Sequence[str], label: Optional[str] = None, dtype: type = float):
        with open(path) as f:
            header = f.readline().strip().split(",")
            lines = f.readlines()
        for col in columns:
            if col not in header:
                raise FormatError(f"{path}: missing column {col!r}")
        if label is not None and header[0] != label:
            raise FormatError(f"{path}: the first column must be {label!r}")
        self.path = path
        self.lines = [n for n, line in enumerate(lines, start=2) if not line.isspace()]
        rows = [lines[n - 2] for n in self.lines]
        self.labels = [row.strip().rsplit(",", len(header) - 1)[0] for row in rows] if label is not None else []
        if label is not None:  # a 0 in the label's place keeps each row's field count for np.loadtxt
            rows = ["0" + row.strip()[len(text):] for row, text in zip(rows, self.labels)]
        self._header, self._rows = header, rows
        try:
            data = _loadtxt(rows, dtype=dtype) if rows else np.empty((0, len(header)), dtype)
        except ValueError:
            data = None
        if data is None or data.shape[1] != len(header):
            row, message = _row_error(rows, len(header), dtype)
            raise FormatError(f"{path}:{self.lines[row]}: {message}")
        self.values = data[:, [header.index(col) for col in columns]]

    def field(self, row: int, column: str) -> str:
        """The text of number ``column`` in data row ``row``."""
        return self._rows[row].strip().split(",")[self._header.index(column)]

    def check(self, bad: np.ndarray, message: Callable[[int], str]) -> None:
        """Raise ``message(row)`` at the file line of the first data row
        where ``bad`` holds."""
        if bad.any():
            row = int(bad.argmax())
            raise FormatError(f"{self.path}:{self.lines[row]}: {message(row)}")


def _table_checks(table: np.ndarray, rate: float, t0: float, sidecar_path: Path):
    """Each check of a ``t, ax, ay, az`` table against the sidecar's time base:
    the mask of the rows that fail it, and its message."""
    t, ax, ay, az = table.T
    # One elementwise AND per column, not one reduce call per row.
    yield ~(np.isfinite(t) & np.isfinite(ax) & np.isfinite(ay) & np.isfinite(az)), "values must be finite"
    yield np.diff(t, prepend=-np.inf) <= 0, "non-monotonic timestamp"
    off_grid = np.abs(t - (t0 + np.arange(len(t)) / rate)) > 0.5 / rate
    yield off_grid, f"timestamp is not t0 + i/rate (t0={t0!r}, rate={rate!r} in {sidecar_path})"


_NPY_HEADERS = {(1, 0): np.lib.format.read_array_header_1_0, (2, 0): np.lib.format.read_array_header_2_0}


def _view_table(npy: bytes) -> Optional[np.ndarray]:
    """The table a ``.npy`` body holds, viewed in ``npy`` itself, or None
    unless its header is format 1.0 or 2.0, C order, float64 and exactly
    ``(n, 4)`` with ``n >= 1``, and the body ends with the table's last byte."""
    f = io.BytesIO(npy)
    read_header = _NPY_HEADERS.get(np.lib.format.read_magic(f))
    if read_header is None:
        return None
    shape, fortran_order, dtype = read_header(f)
    rows = shape[0] if len(shape) == 2 and shape[1] == len(_COLUMNS) else 0
    size = f.tell() + rows * len(_COLUMNS) * dtype.itemsize
    if fortran_order or dtype != np.float64 or rows < 1 or len(npy) != size:
        return None
    return np.frombuffer(npy, np.float64, offset=f.tell()).reshape(shape)


def _read_copy(csv_path: Path, digests: dict, rate: float, t0: float, sidecar_path: Path) -> Optional[np.ndarray]:
    """The table in the ``.npy`` beside ``csv_path``, viewed in the bytes that
    were hashed, or None unless both files match their digests and the table
    passes every check."""
    npy_path = csv_path.with_suffix(".npy")
    try:
        csv, npy = csv_path.read_bytes(), npy_path.read_bytes()
        if _sha256(csv) != digests.get(csv_path.name) or _sha256(npy) != digests.get(npy_path.name):
            return None
        table = _view_table(npy)
    except (OSError, ValueError):
        return None
    if table is None or any(bad.any() for bad, _ in _table_checks(table, rate, t0, sidecar_path)):
        return None  # the parse names the line
    return table


def _parse_csv(path: Path, rate: float, t0: float, sidecar_path: Path) -> np.ndarray:
    """The checked ``t, ax, ay, az`` table of a CSV; errors name the file line."""
    rows = CsvTable(path, _COLUMNS)
    if not rows.lines:
        raise FormatError(f"{path}: no samples")
    for bad, message in _table_checks(rows.values, rate, t0, sidecar_path):
        rows.check(bad, lambda row: message)
    return rows.values


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


def _read_json(path: Path) -> dict:
    try:
        with open(path) as f:
            payload = json.load(f)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise FormatError(f"{path}: not a JSON object")
    return payload


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
    left_times = _time_column(rec.left)
    # Element i of t0 + arange(n)/rate depends on t0, rate and i alone, so
    # wrists with one time base share one formatted column. (t0 = -0.0 and
    # 0.0 compare equal and give the same sums: -0.0 + 0.0 is 0.0.)
    same_base = (rec.right.t0, rec.right.rate, len(rec.right)) == (rec.left.t0, rec.left.rate, len(rec.left))
    right_times = left_times if same_base else _time_column(rec.right)
    digests = _write_series(out_dir, {f"{rec.id}_left": (rec.left, left_times),
                                      f"{rec.id}_right": (rec.right, right_times)})
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
        _DIGESTS: digests,
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


def _read_series(sidecar_path: Path, meta: dict, side: str) -> TriaxialSeries:
    """One wrist: its binary copy while fresh, otherwise its parsed CSV."""
    rate, t0 = _time_base(meta, side, sidecar_path)
    csv_path = sidecar_path.parent / f"{meta['id']}_{side}.csv"
    digests = meta.get(_DIGESTS)
    table = _read_copy(csv_path, digests, rate, t0, sidecar_path) if isinstance(digests, dict) else None
    if table is None:
        table = _parse_csv(csv_path, rate, t0, sidecar_path)
    t, x, y, z = table.T
    return TriaxialSeries(rate=rate, x=x, y=y, z=z, t0=t0)


def load_recording(sidecar_path) -> Recording:
    """Load a recording from its JSON sidecar (CSV paths are relative to it)."""
    sidecar_path = Path(sidecar_path)
    meta = _read_json(sidecar_path)
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
    left = _read_series(sidecar_path, meta, "left")
    right = _read_series(sidecar_path, meta, "right")
    duration = meta["duration"]
    for side, series in (("left", left), ("right", right)):
        if not (isinstance(duration, (int, float)) and abs(series.span - duration) < 1 / series.rate):
            raise FormatError(f"{sidecar_path}: {side!r} holds {len(series)} samples at rate "
                              f"{series.rate!r}, a sample period or more off 'duration' {duration!r}")
    gt = _gt_from_json(meta.get("ground_truth"), str(sidecar_path))
    try:
        return Recording(
            id=rid,
            subject_id=meta["subject_id"],
            task=task,
            left=left,
            right=right,
            duration=duration,
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
    manifest = _read_json(path)
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported format version {version!r}")
    recordings = manifest.get("recordings", {})
    if not isinstance(recordings, dict) or not recordings:
        raise FormatError(f"{path}: 'recordings' must be an object naming at least one recording")
    for rid, entry in recordings.items():
        files = entry.get("files") if isinstance(entry, dict) else None
        if not isinstance(files, dict) or "sidecar" not in files:
            raise FormatError(f"{path}: recording {rid!r} needs a 'files' object with a 'sidecar'")
        for role, fname in files.items():
            if not isinstance(fname, str):
                raise FormatError(f"{path}: recording {rid!r} names its {role} file with {fname!r}, not a string")
            if not (Path(corpus_dir) / fname).exists():
                raise FormatError(f"{path}: missing {role} file {fname!r} for {rid}")
        for side in ("left", "right"):  # load_recording reads <id>_<side>.csv
            if files.get(side) != f"{rid}_{side}.csv":
                raise FormatError(f"{path}: recording {rid!r} names {files.get(side)!r} as its {side} file, "
                                  f"not {rid}_{side}.csv")
    return manifest


def load_corpus(corpus_dir) -> List[Recording]:
    """Load every recording referenced by the manifest, in sorted id order
    (the order ``dump_json`` writes the manifest's recordings in). Each
    entry's key must be its sidecar's ``id``."""
    corpus_dir = Path(corpus_dir)
    recordings = []
    for rid, entry in load_manifest(corpus_dir)["recordings"].items():
        rec = load_recording(corpus_dir / entry["files"]["sidecar"])
        if rec.id != rid:
            raise FormatError(f"{corpus_dir / MANIFEST_NAME}: recording {rid!r} names sidecar "
                              f"{entry['files']['sidecar']!r}, whose id is {rec.id!r}")
        recordings.append(rec)
    return recordings


def save_corpus(recordings: List[Recording], out_dir) -> None:
    if not recordings:  # load_manifest refuses a manifest that names no recording
        raise ValueError("a corpus to save needs at least one recording")
    # The manifest is the commit point: drop an old one before the first
    # recording is rewritten, so a save that stops partway commits nothing.
    (Path(out_dir) / MANIFEST_NAME).unlink(missing_ok=True)
    file_maps = {rec.id: save_recording(rec, out_dir) for rec in recordings}
    write_manifest(out_dir, recordings, file_maps)
