"""On-disk corpus format: CSV traces, JSON sidecars, manifests."""
import dataclasses
import json
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualwrist import CorpusSpec, TriaxialSeries, WalkTask, simulate_corpus, simulate_recording
from dualwrist.io_formats import (
    FORMAT_VERSION,
    MANIFEST_NAME,
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
    original = dataclasses.replace(rec, left=left, right=right)
    with tempfile.TemporaryDirectory() as tmp:
        save_recording(original, tmp)
        loaded = load_recording(f"{tmp}/{rec.id}.json")
    for a, b in ((original.left, loaded.left), (original.right, loaded.right)):
        assert (a.rate, a.t0) == (b.rate, b.t0)
        for axis in ("x", "y", "z"):
            assert np.array_equal(getattr(a, axis).view(np.int64), getattr(b, axis).view(np.int64))



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
