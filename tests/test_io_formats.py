"""On-disk corpus format: CSV traces, JSON sidecars, manifests."""
import dataclasses
import hashlib
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualwrist import CorpusSpec, TriaxialSeries, WalkTask, io_formats, simulate_corpus, simulate_recording
from dualwrist.io_formats import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    CsvTable,
    FormatError,
    dump_json,
    load_corpus,
    load_manifest,
    load_recording,
    save_corpus,
    save_recording,
)


@pytest.fixture(scope="module")
def rec():
    return simulate_recording(
        WalkTask.COMFORTABLE_PACE, overrides={"duration": 6.0}, seed=4
    )


class TestRecordingRoundTrip:
    def test_exact_round_trip(self, rec, tmp_path):
        save_recording(rec, tmp_path)
        loaded = load_recording(tmp_path / f"{rec.id}.json")
        assert loaded == rec  # bit-exact arrays, metadata, and labels

    def test_round_trip_without_ground_truth(self, rec, tmp_path):
        bare = dataclasses.replace(rec, ground_truth=None, self_count=None)
        save_recording(bare, tmp_path)
        loaded = load_recording(tmp_path / f"{bare.id}.json")
        assert loaded == bare
        assert loaded.ground_truth is None and loaded.self_count is None

    def test_missing_column_rejected(self, rec, tmp_path):
        save_recording(rec, tmp_path)
        csv = tmp_path / f"{rec.id}_left.csv"
        lines = csv.read_text().splitlines()
        lines[0] = "t,ax,ay"
        csv.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="missing column 'az'"):
            load_recording(tmp_path / f"{rec.id}.json")

    def test_bad_value_reports_line(self, rec, tmp_path):
        save_recording(rec, tmp_path)
        csv = tmp_path / f"{rec.id}_left.csv"
        lines = csv.read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0] + ",oops"
        csv.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=r":4:"):
            load_recording(tmp_path / f"{rec.id}.json")

    def test_non_monotonic_timestamp_rejected(self, rec, tmp_path):
        save_recording(rec, tmp_path)
        csv = tmp_path / f"{rec.id}_right.csv"
        lines = csv.read_text().splitlines()
        lines[2], lines[3] = lines[3], lines[2]
        csv.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="non-monotonic timestamp"):
            load_recording(tmp_path / f"{rec.id}.json")

    def test_wrong_field_count_rejected(self, rec, tmp_path):
        save_recording(rec, tmp_path)
        csv = tmp_path / f"{rec.id}_left.csv"
        lines = csv.read_text().splitlines()
        lines[5] += ",1.0"
        csv.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="expected 4 fields"):
            load_recording(tmp_path / f"{rec.id}.json")

    def test_version_mismatch_rejected(self, rec, tmp_path):
        save_recording(rec, tmp_path)
        sidecar = tmp_path / f"{rec.id}.json"
        meta = json.loads(sidecar.read_text())
        meta["format_version"] = FORMAT_VERSION + 1
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(FormatError, match="unsupported format version"):
            load_recording(sidecar)

    def test_unknown_task_rejected(self, rec, tmp_path):
        save_recording(rec, tmp_path)
        sidecar = tmp_path / f"{rec.id}.json"
        meta = json.loads(sidecar.read_text())
        meta["task"] = "moonwalk"
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(FormatError, match="unknown task 'moonwalk'"):
            load_recording(sidecar)

    def test_missing_key_rejected(self, rec, tmp_path):
        save_recording(rec, tmp_path)
        sidecar = tmp_path / f"{rec.id}.json"
        meta = json.loads(sidecar.read_text())
        del meta["subject_id"]
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(FormatError, match="missing key 'subject_id'"):
            load_recording(sidecar)

    def test_invalid_json_rejected(self, rec, tmp_path):
        sidecar = tmp_path / "broken.json"
        sidecar.write_text("{not json")
        with pytest.raises(FormatError, match="invalid JSON"):
            load_recording(sidecar)

    def test_invalid_ground_truth_rejected(self, rec, tmp_path):
        save_recording(rec, tmp_path)
        sidecar = tmp_path / f"{rec.id}.json"
        meta = json.loads(sidecar.read_text())
        # Toe-off before its heel strike violates the event pairing invariant.
        gt = meta["ground_truth"]
        gt["toe_offs_left"][0] = gt["heel_strikes_left"][0] - 0.5
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(FormatError, match="invalid ground truth"):
            load_recording(sidecar)

    def test_reordered_header_loads_the_same_arrays(self, rec, tmp_path):
        save_recording(rec, tmp_path)
        for side in ("left", "right"):
            csv = tmp_path / f"{rec.id}_{side}.csv"
            lines = csv.read_text().splitlines()
            # t,ax,ay,az -> ax,t,az,ay
            swapped = [",".join(f[i] for i in (1, 0, 3, 2)) for f in (ln.split(",") for ln in lines)]
            assert swapped[0] == "ax,t,az,ay"
            csv.write_text("\n".join(swapped) + "\n")
        assert load_recording(tmp_path / f"{rec.id}.json") == rec

    def test_extra_numeric_column_is_not_read(self, rec, tmp_path):
        save_recording(rec, tmp_path)
        csv = tmp_path / f"{rec.id}_left.csv"
        lines = csv.read_text().splitlines()
        lines = [lines[0] + ",temp"] + [ln + ",nan" for ln in lines[1:]]
        csv.write_text("\n".join(lines) + "\n")
        assert load_recording(tmp_path / f"{rec.id}.json") == rec

    def test_blank_lines_skipped_and_later_errors_keep_their_line(self, rec, tmp_path):
        save_recording(rec, tmp_path)
        csv = tmp_path / f"{rec.id}_left.csv"
        lines = csv.read_text().splitlines()
        lines[4:4] = ["", "   ", "\t"]  # file lines 5-7
        csv.write_text("\n".join(lines) + "\n\n  \n")
        assert load_recording(tmp_path / f"{rec.id}.json") == rec
        # float() accepts "1_0"; the reader does not.
        fields = lines[20].split(",")
        fields[2] = "1_0"
        lines[20] = ",".join(fields)
        csv.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=r"_left\.csv:21: could not convert string to float: '1_0'"):
            load_recording(tmp_path / f"{rec.id}.json")

    @pytest.mark.parametrize("column, token", [(1, "nan"), (3, "-inf"), (0, "inf")])
    def test_non_finite_value_reports_line(self, rec, tmp_path, column, token):
        save_recording(rec, tmp_path)
        csv = tmp_path / f"{rec.id}_right.csv"
        lines = csv.read_text().splitlines()
        fields = lines[-3].split(",")
        fields[column] = token
        lines[-3] = ",".join(fields)
        csv.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=rf"_right\.csv:{len(lines) - 2}: values must be finite"):
            load_recording(tmp_path / f"{rec.id}.json")

    def test_rows_missing_from_both_wrists_rejected(self, rec, tmp_path):
        # 6 s at 128 Hz: 768 samples per wrist. Dropping the same 130 rows
        # from both keeps the wrists consistent with each other, but the
        # timestamps after the gap no longer sit on t0 + i/rate.
        assert len(rec.left) == len(rec.right) == 768
        save_recording(rec, tmp_path)
        for side in ("left", "right"):
            csv = tmp_path / f"{rec.id}_{side}.csv"
            lines = csv.read_text().splitlines()
            del lines[100:230]
            csv.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=r"_left\.csv:101: timestamp is not t0 \+ i/rate"):
            load_recording(tmp_path / f"{rec.id}.json")

    def test_rows_cut_from_the_end_of_both_wrists_rejected(self, rec, tmp_path):
        # The timestamps that remain sit on t0 + i/rate; only the sidecar's
        # duration tells that 130 samples are gone.
        save_recording(rec, tmp_path)
        for side in ("left", "right"):
            csv = tmp_path / f"{rec.id}_{side}.csv"
            lines = csv.read_text().splitlines()
            csv.write_text("\n".join(lines[:639]) + "\n")  # header + 638 rows
        with pytest.raises(FormatError, match=rf"{rec.id}\.json: 'left' holds 638 samples .* 'duration' 6\.0"):
            load_recording(tmp_path / f"{rec.id}.json")

    @pytest.mark.parametrize("side, key, value", [
        ("left", "rate", None), ("right", "t0", None), ("left", "rate", 0.0),
        ("right", "rate", -128.0), ("left", "t0", "0.0"),
    ])
    def test_invalid_time_base_rejected(self, rec, tmp_path, side, key, value):
        save_recording(rec, tmp_path)
        sidecar = tmp_path / f"{rec.id}.json"
        meta = json.loads(sidecar.read_text())
        if value is None:
            del meta[side][key]
        else:
            meta[side][key] = value
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(FormatError, match=rf"{rec.id}\.json: '{side}' needs"):
            load_recording(sidecar)


# Finite doubles, with the cases where decimal text and binary differ most.
doubles = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308, 0.1 + 0.2, 1 / 3]
)


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(st.tuples(doubles, doubles, doubles, doubles, doubles, doubles),
                    min_size=1, max_size=20),
    rate=st.floats(min_value=1.0, max_value=1000.0),
    t0=st.floats(min_value=-1e3, max_value=1e3),
)
def test_round_trip_is_bit_exact(rec, values, rate, t0):
    cols = np.array(values).T
    left = TriaxialSeries(rate=rate, x=cols[0], y=cols[1], z=cols[2], t0=t0)
    right = TriaxialSeries(rate=rate, x=cols[3], y=cols[4], z=cols[5], t0=t0)
    original = dataclasses.replace(rec, left=left, right=right, duration=left.span)
    with tempfile.TemporaryDirectory() as tmp:
        save_recording(original, tmp)
        from_copy = load_recording(f"{tmp}/{rec.id}.json")
        for npy in Path(tmp).glob("*.npy"):
            npy.unlink()
        parsed = load_recording(f"{tmp}/{rec.id}.json")
    for loaded in (from_copy, parsed):
        for a, b in ((original.left, loaded.left), (original.right, loaded.right)):
            assert (a.rate, a.t0) == (b.rate, b.t0)
            for axis in ("x", "y", "z"):
                assert np.array_equal(getattr(a, axis).view(np.int64), getattr(b, axis).view(np.int64))


def _csv_by_row(series):
    """One wrist's CSV text as ``save_recording`` first wrote it, one f-string
    of per-value ``repr(float(v))`` per row: the oracle for the column-wise
    writer and its shared time column."""
    times = series.t0 + np.arange(len(series)) / series.rate
    return "t,ax,ay,az\n" + "".join(
        f"{repr(float(t))},{repr(float(x))},{repr(float(y))},{repr(float(z))}\n"
        for t, x, y, z in zip(times, series.x, series.y, series.z)
    )


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(st.tuples(doubles, doubles, doubles, doubles, doubles, doubles), min_size=1, max_size=20),
    rate=st.floats(min_value=1.0, max_value=1000.0),
    t0=st.floats(min_value=-1e3, max_value=1e3) | st.sampled_from([0.0, -0.0]),
    right_base=st.sampled_from(["same", "signed_zero_t0", "later_t0", "one_more_sample", "one_less_sample"]),
)
def test_csv_bytes_match_the_per_row_writer(rec, values, rate, t0, right_base):
    # Every example holds the values whose shortest text is most unlike %g.
    cols = np.array([(-0.0, 5e-324, 1e16, 1e-5, 1e16, 1e-5)] + values).T
    n = len(values) + 1
    right_t0, right_n = {
        "same": (t0, n),
        "signed_zero_t0": (-t0 if t0 == 0 else t0, n),
        "later_t0": (t0 + 0.25 / rate, n),
        "one_more_sample": (t0 - 0.5 / rate, n + 1),
        "one_less_sample": (t0 + 0.5 / rate, n - 1),
    }[right_base]
    right_cols = np.resize(cols[3:], (3, right_n))
    left = TriaxialSeries(rate=rate, x=cols[0], y=cols[1], z=cols[2], t0=t0)
    right = TriaxialSeries(rate=rate, x=right_cols[0], y=right_cols[1], z=right_cols[2], t0=right_t0)
    original = dataclasses.replace(rec, left=left, right=right, duration=left.span)
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        io_formats, "_time_column", wraps=io_formats._time_column
    ) as time_column:
        save_corpus([original], tmp)
        for side, series in (("left", left), ("right", right)):
            assert Path(tmp, f"{rec.id}_{side}.csv").read_bytes() == _csv_by_row(series).encode()
    shared = right_base in ("same", "signed_zero_t0")
    assert time_column.call_count == (1 if shared else 2)


@pytest.mark.parametrize("right_n", [0, 1, -1])
def test_csv_written_in_blocks_matches_the_per_row_writer(rec, right_n, monkeypatch, tmp_path):
    """Blocks of 4 rows, with the right wrist as long as the left (sharing its
    time column), a row longer or a row shorter, give the per-row bytes, and
    the sidecar's digests are those of the files written."""
    monkeypatch.setattr(io_formats, "_ROWS_PER_WRITE", 4)
    n, rate = 13, rec.left.rate
    left = TriaxialSeries(rate=rate, x=rec.left.x[:n], y=rec.left.y[:n], z=rec.left.z[:n], t0=0.5)
    right = TriaxialSeries(rate=rate, x=rec.right.x[:n + right_n], y=rec.right.y[:n + right_n],
                           z=rec.right.z[:n + right_n], t0=0.5 - right_n * 0.5 / rate)
    save_corpus([dataclasses.replace(rec, left=left, right=right, duration=left.span)], tmp_path)
    digests = json.loads((tmp_path / f"{rec.id}.json").read_text())["sha256"]
    for side, series in (("left", left), ("right", right)):
        assert (tmp_path / f"{rec.id}_{side}.csv").read_bytes() == _csv_by_row(series).encode()
    assert digests == {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                       for path in tmp_path.iterdir() if path.suffix in (".csv", ".npy")}


def _table_checks_by_row(table, rate, t0, sidecar_path):
    """``io_formats._table_checks`` as it first read, with one ``all``
    reduce per row for the finite mask: the oracle for the column-wise AND."""
    yield ~np.isfinite(table).all(axis=1), "values must be finite"
    t = table[:, 0]
    yield np.diff(t, prepend=-np.inf) <= 0, "non-monotonic timestamp"
    off_grid = np.abs(t - (t0 + np.arange(len(t)) / rate)) > 0.5 / rate
    yield off_grid, f"timestamp is not t0 + i/rate (t0={t0!r}, rate={rate!r} in {sidecar_path})"


@st.composite
def faulty_tables(draw):
    """An on-grid ``t, ax, ay, az`` table with up to five faults: a
    non-finite cell, a repeated or decreasing timestamp, or a timestamp half
    a period off the grid or one ulp to either side of that."""
    n = draw(st.integers(min_value=1, max_value=60))
    rate = draw(st.floats(min_value=1.0, max_value=1000.0))
    t0 = draw(st.floats(min_value=-1e3, max_value=1e3))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    grid = t0 + np.arange(n) / rate
    table = np.column_stack([grid, np.random.default_rng(seed).normal(size=(n, 3))])
    rows = st.integers(min_value=0, max_value=n - 1)
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        kind, row = draw(st.sampled_from(["non_finite", "repeat", "decrease", "off_grid"])), draw(rows)
        if kind == "non_finite":
            col = draw(st.integers(min_value=0, max_value=3))
            table[row, col] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        elif kind == "repeat" and row:
            table[row, 0] = table[row - 1, 0]
        elif kind == "decrease" and row:
            step = draw(st.sampled_from([0.0, 1.0 / rate]))
            table[row, 0] = np.nextafter(table[row - 1, 0] - step, -np.inf)
        elif kind == "off_grid":
            edge = grid[row] + draw(st.sampled_from([-0.5, 0.5])) / rate
            table[row, 0] = np.nextafter(edge, draw(st.sampled_from([-np.inf, edge, np.inf])))
    return table, rate, t0


@settings(max_examples=300, deadline=None)
@given(case=faulty_tables())
def test_table_checks_match_the_per_row_checks(case):
    table, rate, t0 = case
    sidecar = Path("rec.json")
    with np.errstate(invalid="ignore"):  # inf - inf in the timestamp differences
        got = list(io_formats._table_checks(table, rate, t0, sidecar))
        want = list(_table_checks_by_row(table, rate, t0, sidecar))
    assert [message for _, message in got] == [message for _, message in want]
    for (bad, _), (expected, _) in zip(got, want, strict=True):
        assert np.array_equal(bad, expected)


@pytest.fixture(scope="module")
def corpus():
    counts = {WalkTask.SLOW_PACE: 2, WalkTask.CANE_RIGHT_HAND: 1}
    return simulate_corpus(CorpusSpec(task_counts=counts, seed=8))


class TestCorpusRoundTrip:
    def test_round_trip_preserves_content(self, corpus, tmp_path):
        save_corpus(corpus, tmp_path)
        loaded = load_corpus(tmp_path)
        # The manifest keeps recordings sorted by id, so loading yields the
        # same set in canonical id order.
        assert loaded == sorted(corpus, key=lambda r: r.id)

    def test_manifest_is_commit_point(self, corpus, tmp_path):
        save_corpus(corpus, tmp_path)
        (tmp_path / MANIFEST_NAME).unlink()
        with pytest.raises(FormatError, match="manifest not found"):
            load_corpus(tmp_path)

    def test_save_over_a_corpus_uncommits_it_first(self, corpus, tmp_path, monkeypatch):
        save_corpus(corpus, tmp_path)
        reseeded = simulate_corpus(CorpusSpec(task_counts={WalkTask.SLOW_PACE: 2, WalkTask.CANE_RIGHT_HAND: 1},
                                              seed=9))
        assert sorted(r.id for r in reseeded) == sorted(r.id for r in corpus)
        saved = []

        def fail_on_second(rec, out_dir):
            if saved:
                raise OSError("disk full")
            saved.append(save_recording(rec, out_dir))
            return saved[-1]

        monkeypatch.setattr(io_formats, "save_recording", fail_on_second)
        with pytest.raises(OSError, match="disk full"):
            save_corpus(reseeded, tmp_path)
        # One new recording beside two old ones: nothing may load as a corpus.
        with pytest.raises(FormatError, match="manifest not found"):
            load_corpus(tmp_path)

    def test_save_without_recordings_touches_nothing(self, corpus, tmp_path):
        fresh = tmp_path / "fresh"
        with pytest.raises(ValueError, match="at least one recording"):
            save_corpus([], fresh)
        assert not fresh.exists()
        save_corpus(corpus, tmp_path / "old")
        with pytest.raises(ValueError, match="at least one recording"):
            save_corpus([], tmp_path / "old")
        assert list(load_manifest(tmp_path / "old")["recordings"]) == sorted(r.id for r in corpus)

    def test_manifest_detects_missing_files(self, corpus, tmp_path):
        save_corpus(corpus, tmp_path)
        (tmp_path / f"{corpus[0].id}_left.csv").unlink()
        with pytest.raises(FormatError, match="missing left file"):
            load_manifest(tmp_path)

    def test_manifest_version_checked(self, corpus, tmp_path):
        save_corpus(corpus, tmp_path)
        path = tmp_path / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        manifest["format_version"] = 99
        path.write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match="unsupported format version"):
            load_corpus(tmp_path)

    def test_manifest_carries_labels(self, corpus, tmp_path):
        save_corpus(corpus, tmp_path)
        manifest = load_manifest(tmp_path)
        for rec in corpus:
            entry = manifest["recordings"][rec.id]
            assert entry["label_count"] == rec.ground_truth.label_count
            assert entry["task"] == rec.task.value


class TestCsvTable:
    def test_rows_keep_their_labels_and_file_lines(self, tmp_path):
        path = tmp_path / "steps.csv"
        path.write_text("recording_id,time,amplitude\n\na,b,0.5,1.0\n \t\nc,1.5,2.0\n\n")
        rows = CsvTable(path, ["time"], label="recording_id")
        assert rows.labels == ["a,b", "c"]  # a label keeps its commas
        assert rows.lines == [3, 5]
        assert rows.values.tolist() == [[0.5], [1.5]]
        assert rows.field(1, "amplitude") == "2.0"

    def test_counts_parse_as_int64(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("recording_id,count\na,+7\nb, 3\n")
        rows = CsvTable(path, ["count"], label="recording_id", dtype=int)
        assert rows.values.dtype == np.int64 and rows.values.tolist() == [[7], [3]]

    def test_bad_row_names_its_file_line(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("recording_id,count\n\na,1\nb,2.5\n")
        with pytest.raises(FormatError, match=r"counts.csv:4: could not convert string to int: '2.5'$"):
            CsvTable(path, ["count"], label="recording_id", dtype=int)

    def test_label_must_be_the_first_column(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("count,recording_id\n1,a\n")
        with pytest.raises(FormatError, match="the first column must be 'recording_id'"):
            CsvTable(path, ["count"], label="recording_id", dtype=int)

    def test_file_without_rows_gives_no_values(self, tmp_path):
        path = tmp_path / "steps.csv"
        path.write_text("recording_id,time,amplitude\n\n")
        rows = CsvTable(path, ["time"], label="recording_id")
        assert rows.labels == [] and rows.lines == [] and rows.values.shape == (0, 1)


def _count_parses(monkeypatch):
    """A list that grows by one for each CSV ``io_formats`` parses."""
    parses = []
    parse = io_formats._loadtxt

    def counted(rows, usecols=None, dtype=float):
        parses.append(len(rows))
        return parse(rows, usecols, dtype)

    monkeypatch.setattr(io_formats, "_loadtxt", counted)
    return parses


def _change_npy_value(tmp_path, rid):
    npy = tmp_path / f"{rid}_left.npy"
    table = np.load(npy)
    table[5, 1] += 1.0
    np.save(npy, table)


def _drop_digests(tmp_path, rid):
    sidecar = tmp_path / f"{rid}.json"
    meta = json.loads(sidecar.read_text())
    del meta["sha256"]
    sidecar.write_text(json.dumps(meta))


def _npy_body(array, version=None):
    body = io.BytesIO()
    np.lib.format.write_array(body, array, version=version)
    return body.getvalue()


def _rewrite_copy(tmp_path, rid, body):
    """Write ``body`` as the left wrist's ``.npy`` and its sha256 into the
    sidecar, so the copy is fresh and only its contents decide."""
    npy = tmp_path / f"{rid}_left.npy"
    npy.write_bytes(body)
    sidecar = tmp_path / f"{rid}.json"
    meta = json.loads(sidecar.read_text())
    meta["sha256"][npy.name] = hashlib.sha256(body).hexdigest()
    sidecar.write_text(json.dumps(meta))


class TestBinaryCopy:
    def test_copy_loads_the_parsed_values_bit_for_bit(self, corpus, tmp_path):
        save_corpus(corpus, tmp_path)
        from_copy = load_corpus(tmp_path)
        npys = sorted(tmp_path.glob("*.npy"))
        assert len(npys) == 2 * len(corpus)
        for npy in npys:
            npy.unlink()
        parsed = load_corpus(tmp_path)
        for a, b in zip(from_copy, parsed, strict=True):
            assert a == b
            for sa, sb in ((a.left, b.left), (a.right, b.right)):
                assert (sa.rate, sa.t0) == (sb.rate, sb.t0)
                for axis in ("x", "y", "z"):
                    assert getattr(sa, axis).tobytes() == getattr(sb, axis).tobytes()

    def test_fresh_corpus_is_not_parsed(self, corpus, tmp_path, monkeypatch):
        save_corpus(corpus, tmp_path)
        parses = _count_parses(monkeypatch)
        load_corpus(tmp_path)
        assert len(parses) == 0
        (tmp_path / f"{corpus[0].id}_right.npy").unlink()
        load_corpus(tmp_path)
        assert len(parses) == 1

    @pytest.mark.parametrize("edit, csvs_parsed", [
        (_change_npy_value, 1),
        (lambda tmp_path, rid: (tmp_path / f"{rid}_left.npy").unlink(), 1),
        (_drop_digests, 2),
    ], ids=["npy_value_changed", "npy_deleted", "older_sidecar_without_digests"])
    def test_stale_or_missing_copy_loads_the_csv(self, rec, tmp_path, monkeypatch, edit, csvs_parsed):
        save_recording(rec, tmp_path)
        edit(tmp_path, rec.id)
        parses = _count_parses(monkeypatch)
        assert load_recording(tmp_path / f"{rec.id}.json") == rec
        assert len(parses) == csvs_parsed

    @pytest.mark.parametrize("body", [
        lambda table, npy: _npy_body(np.asfortranarray(table)),
        lambda table, npy: _npy_body(table.astype(np.float32)),
        lambda table, npy: _npy_body(table[:, :3]),
        lambda table, npy: _npy_body(table.ravel()),
        lambda table, npy: npy[:-32],
        lambda table, npy: npy + bytes(8),
    ], ids=["fortran_order", "float32", "three_columns", "flat", "one_row_short", "trailing_bytes"])
    def test_other_npy_bodies_load_the_csv(self, rec, tmp_path, monkeypatch, body):
        save_recording(rec, tmp_path)
        npy = tmp_path / f"{rec.id}_left.npy"
        _rewrite_copy(tmp_path, rec.id, body(np.load(npy), npy.read_bytes()))
        parses = _count_parses(monkeypatch)
        assert load_recording(tmp_path / f"{rec.id}.json") == rec
        assert len(parses) == 1

    def test_format_2_copy_is_not_parsed(self, rec, tmp_path, monkeypatch):
        save_recording(rec, tmp_path)
        table = np.load(tmp_path / f"{rec.id}_left.npy")
        _rewrite_copy(tmp_path, rec.id, _npy_body(table, version=(2, 0)))
        parses = _count_parses(monkeypatch)
        assert load_recording(tmp_path / f"{rec.id}.json") == rec
        assert len(parses) == 0

    def test_loaded_axes_own_their_memory(self, rec, tmp_path):
        save_recording(rec, tmp_path)
        loaded = load_recording(tmp_path / f"{rec.id}.json")
        for series in (loaded.left, loaded.right):
            for axis in ("x", "y", "z"):
                assert getattr(series, axis).base is None

    def test_edited_csv_is_read_over_its_copy(self, rec, tmp_path):
        save_recording(rec, tmp_path)
        csv = tmp_path / f"{rec.id}_left.csv"
        lines = csv.read_text().splitlines()
        fields = lines[10].split(",")
        fields[1] = "1.5"
        lines[10] = ",".join(fields)
        csv.write_text("\n".join(lines) + "\n")
        loaded = load_recording(tmp_path / f"{rec.id}.json")
        assert loaded.left.x[9] == 1.5 != rec.left.x[9]
        assert loaded.right == rec.right


class TestDumpJson:
    def test_deterministic_serialization(self, tmp_path):
        payload = {"b": 1.5, "a": [1, 2], "nested": {"y": None, "x": "s"}}
        dump_json(tmp_path / "one.json", payload)
        dump_json(tmp_path / "two.json", dict(reversed(list(payload.items()))))
        assert (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()

    def test_trailing_newline(self, tmp_path):
        dump_json(tmp_path / "x.json", {"a": 1})
        assert (tmp_path / "x.json").read_text().endswith("\n")


class TestFloatPrecision:
    def test_csv_preserves_full_precision(self, tmp_path):
        rec = simulate_recording(
            WalkTask.FAST_PACE, overrides={"duration": 3.0}, seed=99
        )
        save_recording(rec, tmp_path)
        loaded = load_recording(tmp_path / f"{rec.id}.json")
        assert np.array_equal(loaded.left.x, rec.left.x)
        assert np.array_equal(loaded.right.z, rec.right.z)
