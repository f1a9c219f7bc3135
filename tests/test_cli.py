"""End-to-end command-line workflows."""
import json
import shutil

import numpy as np
import pytest

from dualwrist import AlgorithmId
from dualwrist.cli import cli_main
from dualwrist.config import grid_from_config, write_config
from dualwrist.io_formats import load_corpus
from dualwrist.tuning import cross_validate_study

SMALL_CFG = {
    "version": 1,
    "corpus": {
        "seed": 7,
        "tasks": {"slow_pace": 3, "comfortable_pace": 3, "fast_pace": 3},
    },
    "cv": {"folds": 3, "seed": 0},
    "grid": {
        "smooth_single": [0.1, 0.2],
        "smooth_fused": [0.0, 0.08],
        "min_peak_amp": [0.08, 0.12],
        "min_peak_gap": [0.22, 0.4],
        "fuse_max_dist": [0.18, 0.3],
        "fuse_min_dist": [0.18, 0.3],
    },
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """simulate -> tune(union) -> detect(union) run once, shared read-only."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "cfg.json"
    write_config(SMALL_CFG, cfg)
    assert cli_main(["simulate", "--spec", str(cfg), "--out", str(root / "corpus")]) == 0
    assert cli_main([
        "tune", "--corpus", str(root / "corpus"), "--out", str(root / "tuned"),
        "--alg", "union", "--config", str(cfg),
    ]) == 0
    assert cli_main([
        "detect", "--alg", "union", "--params", str(root / "tuned" / "tuned_params.json"),
        "--corpus", str(root / "corpus"), "--out", str(root / "det"),
    ]) == 0
    return root, cfg


def _tree(root):
    """Every file under ``root`` and its bytes, by relative path."""
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _strict_json(path):
    """Parse ``path``, rejecting the non-standard NaN and Infinity tokens."""
    def reject(token):
        raise ValueError(f"{path}: non-standard JSON token {token}")
    return json.loads(path.read_text(), parse_constant=reject)


class TestSimulate:
    def test_writes_manifest_and_files(self, workspace):
        root, _ = workspace
        corpus = root / "corpus"
        assert (corpus / "manifest.json").exists()
        manifest = json.loads((corpus / "manifest.json").read_text())
        assert len(manifest["recordings"]) == 9
        for entry in manifest["recordings"].values():
            for fname in entry["files"].values():
                assert (corpus / fname).exists()

    def test_seed_override_changes_corpus(self, workspace, tmp_path):
        root, cfg = workspace
        assert cli_main(["simulate", "--spec", str(cfg), "--seed", "8",
                         "--out", str(tmp_path / "c8")]) == 0
        a = (root / "corpus" / "slow_pace_000_left.csv").read_bytes()
        b = (tmp_path / "c8" / "slow_pace_000_left.csv").read_bytes()
        assert a != b

    def test_byte_identical_across_runs(self, workspace, tmp_path):
        root, cfg = workspace
        assert cli_main(["simulate", "--spec", str(cfg), "--out", str(tmp_path / "again")]) == 0
        tree = _tree(root / "corpus")
        assert sum(name.endswith(".npy") for name in tree) == 18
        assert _tree(tmp_path / "again") == tree


class TestTune:
    def test_outputs(self, workspace):
        root, _ = workspace
        report = json.loads((root / "tuned" / "cv_union.json").read_text())
        assert report["algorithm"] == "union"
        assert len(report["fold_params"]) == 3
        assert len(report["fold_test_rmse"]) == 3
        tuned = json.loads((root / "tuned" / "tuned_params.json").read_text())
        assert set(tuned) == {"union"}
        assert tuned["union"] == report["mean_params"]

    def test_folds_and_seed_override_the_config(self, workspace, tmp_path):
        root, cfg = workspace
        assert cli_main([
            "tune", "--corpus", str(root / "corpus"), "--out", str(tmp_path), "--alg", "union",
            "--config", str(cfg), "--folds", "2", "--seed", "5",
        ]) == 0
        report = json.loads((tmp_path / "cv_union.json").read_text())
        assert len(report["fold_params"]) == 2 != SMALL_CFG["cv"]["folds"]
        union, corpus, grid = AlgorithmId.HIGH_LEVEL_UNION, load_corpus(root / "corpus"), grid_from_config(SMALL_CFG)
        expected = cross_validate_study(corpus, [union], grid, k=2, seed=5)[union]
        assert report == json.loads(json.dumps(expected.to_dict()))
        # The seed moved the folds: the config's seed gives another report.
        of_config_seed = cross_validate_study(corpus, [union], grid, k=2, seed=SMALL_CFG["cv"]["seed"])[union]
        assert report != json.loads(json.dumps(of_config_seed.to_dict()))

    def test_only_the_requested_grids_are_checked(self, workspace, tmp_path):
        """A grid that leaves ``intersect`` no point still tunes ``left``,
        which does not read ``fuse_max_dist``."""
        root, _ = workspace
        cfg = tmp_path / "c.json"
        write_config({**SMALL_CFG, "grid": {"fuse_max_dist": [0.5], "min_peak_gap": [0.4]}}, cfg)
        assert cli_main(["tune", "--corpus", str(root / "corpus"), "--out", str(tmp_path / "tuned"),
                         "--alg", "left", "--config", str(cfg)]) == 0
        assert cli_main(["tune", "--corpus", str(root / "corpus"), "--out", str(tmp_path / "tuned"),
                         "--alg", "intersect", "--config", str(cfg)]) == 1


class TestDetect:
    def test_outputs(self, workspace):
        root, _ = workspace
        det = root / "det"
        counts = (det / "counts_union.csv").read_text().splitlines()
        assert counts[0] == "recording_id,count"
        assert len(counts) == 10
        steps = (det / "steps_union.csv").read_text().splitlines()
        assert steps[0] == "recording_id,time,amplitude"
        meta = json.loads((det / "detect_union.json").read_text())
        assert meta["algorithm"] == "union"
        assert "global_min" in meta["context"]

    def test_accepts_cv_report_as_params(self, workspace, tmp_path):
        root, _ = workspace
        assert cli_main([
            "detect", "--alg", "union", "--params", str(root / "tuned" / "cv_union.json"),
            "--corpus", str(root / "corpus"), "--out", str(tmp_path / "det2"),
        ]) == 0
        a = (root / "det" / "counts_union.csv").read_bytes()
        b = (tmp_path / "det2" / "counts_union.csv").read_bytes()
        assert a == b

    def test_accepts_plain_params_dict(self, workspace, tmp_path):
        root, _ = workspace
        params = tmp_path / "params.json"
        params.write_text(json.dumps({
            "smooth_single": 0.1, "min_peak_amp": 0.12,
            "min_peak_gap": 0.4, "fuse_min_dist": 0.3,
        }))
        assert cli_main([
            "detect", "--alg", "union", "--params", str(params),
            "--corpus", str(root / "corpus"), "--out", str(tmp_path / "det3"),
        ]) == 0

    def test_byte_identical_across_runs(self, workspace, tmp_path):
        root, _ = workspace
        params = tmp_path / "left_params.json"
        params.write_text(json.dumps({
            "smooth_single": 0.2, "min_peak_amp": 0.12, "min_peak_gap": 0.4,
        }))
        for out in ("da", "db"):
            assert cli_main([
                "detect", "--alg", "left", "--params", str(params),
                "--corpus", str(root / "corpus"), "--out", str(tmp_path / out),
            ]) == 0
        for name in ("steps_left.csv", "counts_left.csv", "detect_left.json"):
            assert (tmp_path / "da" / name).read_bytes() == (tmp_path / "db" / name).read_bytes()

    def test_failure_leaves_no_partial_outputs(self, workspace, tmp_path, capsys):
        root, _ = workspace
        corpus = tmp_path / "corpus"
        shutil.copytree(root / "corpus", corpus)
        csv = corpus / "slow_pace_000_left.csv"
        lines = csv.read_text().split("\n")
        fields = lines[50].split(",")
        fields[1] = "nan"
        lines[50] = ",".join(fields)
        csv.write_text("\n".join(lines))
        out = tmp_path / "det"
        assert cli_main([
            "detect", "--alg", "union", "--params", str(root / "tuned" / "tuned_params.json"),
            "--corpus", str(corpus), "--out", str(out),
        ]) == 1
        err = capsys.readouterr().err
        assert "values must be finite" in err
        assert "slow_pace_000_left.csv:51:" in err
        assert not (out / "steps_union.csv").exists()
        assert not (out / "counts_union.csv").exists()


def test_chain_reads_the_same_corpus_without_its_copies(workspace, tmp_path):
    """tune, detect and evaluate write the same bytes whether the corpus is
    read from its binary copies or parsed from its CSVs."""
    root, cfg = workspace
    corpus = tmp_path / "corpus"
    shutil.copytree(root / "corpus", corpus)
    for npy in corpus.glob("*.npy"):
        npy.unlink()
    parsed = tmp_path / "parsed"
    assert cli_main(["tune", "--corpus", str(corpus), "--out", str(parsed / "tuned"),
                     "--alg", "union", "--config", str(cfg)]) == 0
    assert cli_main(["detect", "--alg", "union", "--params", str(parsed / "tuned" / "tuned_params.json"),
                     "--corpus", str(corpus), "--out", str(parsed / "det")]) == 0
    for sub in ("tuned", "det"):
        assert _tree(parsed / sub) == _tree(root / sub)
    for src, det, out in ((root / "corpus", root / "det", tmp_path / "copied_eval"),
                          (corpus, parsed / "det", parsed / "eval")):
        assert cli_main(["evaluate", "--corpus", str(src), "--detections", str(det), "--out", str(out)]) == 0
    assert _tree(parsed / "eval") == _tree(tmp_path / "copied_eval")


class TestEvaluateAndReport:
    def test_evaluate_before_detect_fails_cleanly(self, workspace, tmp_path, capsys):
        root, _ = workspace
        empty = tmp_path / "empty"
        empty.mkdir()
        code = cli_main([
            "evaluate", "--corpus", str(root / "corpus"),
            "--detections", str(empty), "--out", str(tmp_path / "eval"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "run `detect` first" in err

    def test_evaluate_outputs(self, workspace, tmp_path, capsys):
        root, _ = workspace
        out = tmp_path / "eval"
        assert cli_main([
            "evaluate", "--corpus", str(root / "corpus"),
            "--detections", str(root / "det"), "--out", str(out),
        ]) == 0
        summary = _strict_json(out / "summary.json")
        assert "union" in summary["per_algorithm"]
        assert "union" in summary["phase"]
        long_rows = (out / "results_long.csv").read_text().splitlines()
        assert long_rows[0] == "recording_id,task,algorithm,count,label,pct_error"
        assert len(long_rows) == 10
        phase_rows = (out / "phase_offsets.csv").read_text().splitlines()
        assert phase_rows[0] == "algorithm,dt_heel,dt_toe"
        assert len(phase_rows) > 1
        capsys.readouterr()

        # The report renders every task present in the evaluation.
        assert cli_main(["report", "--evaluation", str(out)]) == 0
        text = capsys.readouterr().out
        assert "slow_pace" in text and "union" in text
        assert "mean|err|" in text

    def test_detections_without_steps_give_no_phase(self, workspace, tmp_path):
        root, _ = workspace
        det = tmp_path / "det"
        det.mkdir()
        shutil.copy(root / "det" / "counts_union.csv", det)
        (det / "steps_union.csv").write_text("recording_id,time,amplitude\n")
        out = tmp_path / "eval"
        assert cli_main([
            "evaluate", "--corpus", str(root / "corpus"),
            "--detections", str(det), "--out", str(out),
        ]) == 0
        summary = _strict_json(out / "summary.json")
        assert "union" in summary["per_algorithm"]
        assert summary["phase"] == {}

    def test_detections_from_another_corpus_fail_cleanly(self, workspace, tmp_path, capsys):
        root, _ = workspace
        cfg = tmp_path / "other.json"
        write_config({"version": 1, "corpus": {"seed": 7, "tasks": {"no_arm_swing": 2}}}, cfg)
        assert cli_main(["simulate", "--spec", str(cfg), "--out", str(tmp_path / "other")]) == 0
        assert cli_main([
            "detect", "--alg", "union", "--params", str(root / "tuned" / "tuned_params.json"),
            "--corpus", str(tmp_path / "other"), "--out", str(tmp_path / "det"),
        ]) == 0
        capsys.readouterr()
        code = cli_main([
            "evaluate", "--corpus", str(root / "corpus"),
            "--detections", str(tmp_path / "det"), "--out", str(tmp_path / "eval"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "counts_union.csv:2: recording 'no_arm_swing_000' is not in the corpus" in err

    @pytest.mark.parametrize("side, key, value", [("left", "rate", None), ("right", "t0", None)])
    def test_invalid_sidecar_time_base_fails_cleanly(self, workspace, tmp_path, capsys,
                                                     side, key, value):
        root, _ = workspace
        corpus = tmp_path / "corpus"
        shutil.copytree(root / "corpus", corpus)
        sidecar = corpus / "fast_pace_001.json"
        meta = json.loads(sidecar.read_text())
        if value is None:
            del meta[side][key]
        else:
            meta[side][key] = value
        sidecar.write_text(json.dumps(meta))
        code = cli_main([
            "evaluate", "--corpus", str(corpus),
            "--detections", str(root / "det"), "--out", str(tmp_path / "eval"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert f"fast_pace_001.json: '{side}' needs" in err
        assert "Traceback" not in err

    def test_undefined_pearson_r_is_null(self, workspace, tmp_path, capsys):
        root, _ = workspace
        cfg = tmp_path / "one.json"
        write_config({"version": 1, "corpus": {"seed": 7, "tasks": {"no_arm_swing": 1}}}, cfg)
        corpus, det, out = tmp_path / "corpus", tmp_path / "det", tmp_path / "eval"
        assert cli_main(["simulate", "--spec", str(cfg), "--out", str(corpus)]) == 0
        assert cli_main([
            "detect", "--alg", "union", "--params", str(root / "tuned" / "tuned_params.json"),
            "--corpus", str(corpus), "--out", str(det),
        ]) == 0
        assert cli_main([
            "evaluate", "--corpus", str(corpus), "--detections", str(det), "--out", str(out),
        ]) == 0
        summary = _strict_json(out / "summary.json")
        assert summary["per_task"]["no_arm_swing/union"]["pearson_r"] is None
        assert summary["per_algorithm"]["union"]["pearson_r"] is None
        capsys.readouterr()
        assert cli_main(["report", "--evaluation", str(out)]) == 0
        assert "r n/a" in capsys.readouterr().out

    def test_report_without_evaluation_fails(self, tmp_path, capsys):
        code = cli_main(["report", "--evaluation", str(tmp_path)])
        assert code == 1
        assert "run `evaluate` first" in capsys.readouterr().err

    def test_unreadable_corpus_fails_cleanly(self, tmp_path, capsys):
        code = cli_main([
            "tune", "--corpus", str(tmp_path / "missing"),
            "--out", str(tmp_path / "t"),
        ])
        assert code == 1
        assert "manifest not found" in capsys.readouterr().err


def _edit_row(text, lineno, edit):
    """``text`` with line ``lineno`` replaced by ``edit`` of it, or deleted
    when ``edit`` returns None."""
    lines = text.split("\n")
    new = edit(lines[lineno - 1])
    lines[lineno - 1 : lineno] = [] if new is None else [new]
    return "\n".join(lines)


def _in_row(lineno, edit):
    """An edit of the whole text that edits line ``lineno``."""
    return lambda text: _edit_row(text, lineno, edit)


def _sidecar(**changes):
    """An edit of a sidecar's text that sets ``changes``."""
    return lambda text: json.dumps({**json.loads(text), **changes})


def _shift_left_t0(text):
    """A sidecar's text with the left wrist's ``t0`` one second later; the
    digests of the files beside it still match."""
    meta = json.loads(text)
    return json.dumps({**meta, "left": {**meta["left"], "t0": meta["left"]["t0"] + 1.0}})


_NO_LABELLED_STEPS = {"step_times": [], "heel_strikes_left": [], "heel_strikes_right": [],
                      "toe_offs_left": [], "toe_offs_right": [], "label_count": 0}


def _manifest_file(rid, role, name):
    """An edit of the manifest's text that sets recording ``rid``'s ``role``
    file to ``name``."""
    def edit(text):
        manifest = json.loads(text)
        manifest["recordings"][rid]["files"][role] = name
        return json.dumps(manifest)
    return edit


# (case, file written, its content or an edit of a workspace file, command,
#  text the message must hold besides the file name). An edit changes row 2
#  of a detections file, or the whole text of a corpus/ file.
BAD_INPUTS = [
    ("params_missing_fields", "p.json", '{"union": {"smooth_single": 0.1}}', "detect union", "'union'"),
    ("params_list", "p.json", "[0.1, 0.4]", "detect union", "'union'"),
    ("params_list_for_alg", "p.json", '{"union": [0.1, 0.4]}', "detect union", "'union'"),
    ("params_truncated", "p.json", '{"smooth_single": 0.1,', "detect left", "'left'"),
    ("params_string_value", "p.json", '{"smooth_single": "x", "min_peak_amp": 0.1, "min_peak_gap": 0.4}',
     "detect left", "smooth_single"),
    ("params_string_amplitude", "p.json", '{"smooth_single": 0.1, "min_peak_amp": "0.1", "min_peak_gap": 0.4}',
     "detect left", "'left': min_peak_amp must be a number, not '0.1'"),
    ("params_infinite_window", "p.json", '{"smooth_single": Infinity, "min_peak_amp": 0.1, "min_peak_gap": 0.4}',
     "detect left", "'left': smooth_single must be finite, not inf"),
    ("params_nan_gap", "p.json", '{"smooth_single": 0.1, "min_peak_amp": 0.1, "min_peak_gap": NaN}',
     "detect left", "'left': min_peak_gap must be finite, not nan"),
    ("params_infinite_union_distance", "p.json",
     '{"smooth_single": 0.1, "min_peak_amp": 0.1, "min_peak_gap": 0.4, "fuse_min_dist": -Infinity}',
     "detect union", "'union': fuse_min_dist must be finite, not -inf"),
    ("config_scalar_grid", "c.json", '{"version": 1, "grid": {"min_peak_amp": 0.1}}', "tune",
     "grid.min_peak_amp"),
    ("config_text_in_grid", "c.json", '{"version": 1, "grid": {"min_peak_gap": [0.2, "x"]}}', "tune",
     "grid.min_peak_gap"),
    ("config_empty_grid", "c.json", '{"version": 1, "grid": {"fuse_min_dist": []}}', "tune",
     "grid.fuse_min_dist"),
    ("config_infinite_in_grid", "c.json", '{"version": 1, "grid": {"smooth_single": [0.1, Infinity]}}', "tune",
     "grid.smooth_single must be a non-empty list of finite numbers, not [0.1, inf]"),
    ("config_grid_not_object", "c.json", '{"version": 1, "grid": 0.1}', "tune", "grid"),
    ("config_amp_out_of_range", "c.json", '{"version": 1, "grid": {"min_peak_amp": [-0.1]}}', "tune",
     "c.json: min_peak_amp must lie in [0, 1]"),
    ("config_negative_window", "c.json", '{"version": 1, "grid": {"smooth_single": [-0.1]}}', "tune",
     "c.json: smooth_single must be >= 0"),
    ("config_no_intersect_point", "c.json", '{"version": 1, "grid": {"fuse_max_dist": [0.5], "min_peak_gap": [0.4]}}',
     "tune", "c.json: grid is empty after constraint filtering"),
    ("config_no_recordings", "c.json", '{"version": 1, "corpus": {"tasks": {"slow_pace": 0, "fast_pace": 0}}}',
     "simulate", "c.json: corpus.tasks must ask for at least one recording"),
    ("config_task_count", "c.json", '{"version": 1, "corpus": {"tasks": {"slow_pace": "x"}}}', "simulate",
     "corpus.tasks.slow_pace"),
    ("config_folds", "c.json", '{"version": 1, "cv": {"folds": "x"}}', "tune", "cv.folds"),
    ("counts_not_integer", "counts_union.csv", lambda row: row.rsplit(",", 1)[0] + ",x", "evaluate",
     "counts_union.csv:2:"),
    ("counts_listed_twice", "counts_union.csv", lambda row: "\n".join([row, row]), "evaluate",
     "counts_union.csv:3:"),
    ("counts_missing_recording", "counts_union.csv", lambda row: None, "evaluate",
     "recording 'comfortable_pace_000' of the corpus is missing"),
    ("steps_recording_not_in_corpus", "steps_union.csv", lambda row: "other_000," + row.split(",", 1)[1],
     "evaluate", "steps_union.csv:2: recording 'other_000' is not in the corpus"),
    ("steps_short_row", "steps_union.csv", lambda row: row.rsplit(",", 1)[0], "evaluate",
     "steps_union.csv:2:"),
    ("steps_time_not_number", "steps_union.csv", lambda row: row.split(",")[0] + ",x,1.0", "evaluate",
     "steps_union.csv:2:"),
    ("steps_time_nan", "steps_union.csv", lambda row: row.split(",")[0] + ",nan,1.0", "evaluate",
     "steps_union.csv:2: 'nan' is not a finite number"),
    ("steps_time_past_the_next_row", "steps_union.csv", lambda row: row.split(",")[0] + ",1e9,1.0", "evaluate",
     "steps_union.csv:3: time "),
    ("steps_time_before_the_recording", "steps_union.csv", lambda row: row.split(",")[0] + ",-50.0,1.0",
     "evaluate", "steps_union.csv:2: time -50.0 lies outside recording 'comfortable_pace_000'"),
    ("counts_negative", "counts_union.csv", lambda row: row.rsplit(",", 1)[0] + ",-7", "evaluate",
     "counts_union.csv:2: '-7' is not an integer count of 0 or more"),
    ("counts_digit_group", "counts_union.csv", lambda row: row.rsplit(",", 1)[0] + ",1_38", "evaluate",
     "counts_union.csv:2:"),
    ("steps_time_digit_group", "steps_union.csv", lambda row: row.split(",")[0] + ",0_1,1.0", "evaluate",
     "steps_union.csv:2:"),
    ("steps_amplitude_not_number", "steps_union.csv", lambda row: row.rsplit(",", 1)[0] + ",abc", "evaluate",
     "steps_union.csv:2:"),
    ("counts_disagree_with_steps", "counts_union.csv", lambda row: row.rsplit(",", 1)[0] + ",1000000",
     "evaluate", "counts_union.csv counts 1000000"),
    ("sidecar_without_ground_truth", "corpus/slow_pace_001.json", _sidecar(ground_truth=None), "evaluate",
     "recording 'slow_pace_001' has no ground truth"),
    ("sidecar_without_ground_truth_tune", "corpus/slow_pace_001.json", _sidecar(ground_truth=None), "tune corpus",
     "recording 'slow_pace_001' has no ground truth"),
    ("sidecar_without_labelled_steps", "corpus/slow_pace_001.json", _sidecar(ground_truth=_NO_LABELLED_STEPS),
     "evaluate", "recording 'slow_pace_001' has no labelled steps"),
    ("corpus_off_grid_timestamp", "corpus/slow_pace_001_left.csv",
     _in_row(2, lambda row: "-1.0," + row.split(",", 1)[1]), "evaluate",
     "slow_pace_001_left.csv:2: timestamp is not t0 + i/rate"),
    ("corpus_text_value", "corpus/slow_pace_001_left.csv", _in_row(3, lambda row: row.rsplit(",", 1)[0] + ",x"),
     "evaluate", "slow_pace_001_left.csv:3: could not convert string to float: 'x'"),
    ("sidecar_unknown_task", "corpus/slow_pace_001.json", _sidecar(task="hopping"), "evaluate",
     "unknown task 'hopping'"),
    ("sidecar_t0_shift", "corpus/slow_pace_001.json", _shift_left_t0, "evaluate",
     "slow_pace_001_left.csv:2: timestamp is not t0 + i/rate"),
    ("sidecar_zero_rate", "corpus/slow_pace_001.json", _sidecar(left={"rate": 0, "t0": 0.0}), "evaluate",
     "'left' needs a finite 'rate' > 0"),
    ("manifest_invalid_json", "corpus/manifest.json", lambda text: text[:-10], "tune corpus", "manifest.json: "),
    ("manifest_recordings_not_object", "corpus/manifest.json",
     lambda text: json.dumps({**json.loads(text), "recordings": ["slow_pace_000"]}), "tune corpus",
     "manifest.json: "),
    ("manifest_no_recordings", "corpus/manifest.json",
     lambda text: json.dumps({**json.loads(text), "recordings": {}}), "tune corpus",
     "manifest.json: 'recordings' must be an object naming at least one recording"),
    ("manifest_entry_without_files", "corpus/manifest.json", lambda text: text.replace('"files"', '"filez"', 1),
     "tune corpus", "manifest.json: "),
    ("manifest_missing_file", "corpus/manifest.json",
     lambda text: text.replace('"slow_pace_001_left.csv"', '"missing_left.csv"'), "evaluate",
     "missing left file 'missing_left.csv' for slow_pace_001"),
    ("manifest_file_name_not_string", "corpus/manifest.json", _manifest_file("slow_pace_001", "sidecar", 5),
     "evaluate", "manifest.json: "),
    ("manifest_file_name_null", "corpus/manifest.json", _manifest_file("slow_pace_001", "left", None),
     "tune corpus", "manifest.json: "),
    ("manifest_names_another_left_file", "corpus/manifest.json",
     _manifest_file("fast_pace_000", "left", "slow_pace_000_left.csv"), "evaluate",
     "recording 'fast_pace_000' names 'slow_pace_000_left.csv' as its left file"),
    ("manifest_key_not_sidecar_id", "corpus/manifest.json",
     _manifest_file("slow_pace_001", "sidecar", "slow_pace_000.json"), "evaluate",
     "recording 'slow_pace_001' names sidecar 'slow_pace_000.json', whose id is 'slow_pace_000'"),
    ("counts_of_no_detector", "det/counts_foo.csv", "recording_id,count\n", "evaluate", "counts_foo.csv"),
    ("summary_invalid_json", "summary.json", '{"per_algorithm": {', "report", "invalid JSON"),
    ("summary_without_per_algorithm", "summary.json", '{"per_task": {}}', "report", "'per_algorithm'"),
    ("summary_without_pearson_r", "summary.json", '{"per_algorithm": {"union": {"mean_abs": 1.0}}, "per_task": {}}',
     "report", "'pearson_r'"),
]


@pytest.mark.parametrize("case, name, content, command, expected", BAD_INPUTS, ids=[c[0] for c in BAD_INPUTS])
def test_bad_input_fails_cleanly(workspace, tmp_path, capsys, case, name, content, command, expected):
    """Every malformed input exits 1 with a message naming the file, never a traceback."""
    root, _ = workspace
    det, corpus = tmp_path / "det", root / "corpus"
    shutil.copytree(root / "det", det)
    if name.startswith("corpus/"):
        corpus = tmp_path / "corpus"
        shutil.copytree(root / "corpus", corpus)
        bad = tmp_path / name
        bad.write_text(content(bad.read_text()))
    elif callable(content):
        bad = det / name
        bad.write_text(_edit_row(bad.read_text(), 2, content))
    else:
        bad = tmp_path / name
        bad.write_text(content)
    corpus, out = str(corpus), str(tmp_path / "out")
    argv = {
        "detect union": ["detect", "--alg", "union", "--params", str(bad), "--corpus", corpus, "--out", out],
        "detect left": ["detect", "--alg", "left", "--params", str(bad), "--corpus", corpus, "--out", out],
        "tune": ["tune", "--config", str(bad), "--corpus", corpus, "--out", out],
        "tune corpus": ["tune", "--corpus", corpus, "--out", out],
        "simulate": ["simulate", "--spec", str(bad), "--out", out],
        "evaluate": ["evaluate", "--corpus", corpus, "--detections", str(det), "--out", out],
        "report": ["report", "--evaluation", str(bad.parent)],
    }[command]
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert str(bad) in err and expected in err
    assert "Traceback" not in err


def test_blank_lines_in_detections_are_skipped(workspace, tmp_path):
    """Trailing blank and whitespace-only lines in the detections files
    leave every byte that evaluate writes unchanged."""
    root, _ = workspace
    det = tmp_path / "det"
    shutil.copytree(root / "det", det)
    for name in ("counts_union.csv", "steps_union.csv"):
        with open(det / name, "a") as f:
            f.write("\n \t\n\n")
    for src, out in ((root / "det", tmp_path / "eval"), (det, tmp_path / "eval_blank")):
        assert cli_main(["evaluate", "--corpus", str(root / "corpus"), "--detections", str(src),
                         "--out", str(out)]) == 0
    assert _tree(tmp_path / "eval_blank") == _tree(tmp_path / "eval")


def test_tune_accepts_a_recording_without_labelled_steps(workspace, tmp_path):
    root, cfg = workspace
    corpus = tmp_path / "corpus"
    shutil.copytree(root / "corpus", corpus)
    sidecar = corpus / "slow_pace_001.json"
    sidecar.write_text(_sidecar(ground_truth=_NO_LABELLED_STEPS)(sidecar.read_text()))
    assert cli_main(["tune", "--corpus", str(corpus), "--out", str(tmp_path / "tuned"),
                     "--alg", "left", "--config", str(cfg)]) == 0


def _loadtxt_value(token, dtype):
    """``token`` as ``np.loadtxt`` reads one field of ``dtype``, or None
    when it rejects it."""
    try:
        return np.loadtxt([token], dtype=dtype, delimiter=",", comments=None).item()
    except ValueError:
        return None


@pytest.mark.parametrize("token", ["1_0", "\u0661", "+7", " 7", "7.0", "1e1", "nan", "inf"])
@pytest.mark.parametrize("field", ["count", "time"])
def test_detections_read_numbers_as_loadtxt_does(workspace, tmp_path, capsys, field, token):
    """A count is read exactly when ``np.loadtxt`` reads it as an int64 of
    0 or more, and a step time exactly when it reads it as a finite float."""
    root, _ = workspace
    det = tmp_path / "det"
    det.mkdir()
    counts = (root / "det" / "counts_union.csv").read_text().splitlines()
    rid = counts[1].split(",")[0]
    if field == "count":
        value = _loadtxt_value(token, np.int64)
        accepted = value is not None and value >= 0
        counts[1] = f"{rid},{token}"
    else:
        # One step, of the first recording, so no order or count check applies.
        value = _loadtxt_value(token, np.float64)
        accepted = value is not None and np.isfinite(value)
        counts[1:] = [f"{row.split(',')[0]},{int(n == 1)}" for n, row in enumerate(counts[1:], start=1)]
        (det / "steps_union.csv").write_text(f"recording_id,time,amplitude\n{rid},{token},1.0\n")
    (det / "counts_union.csv").write_text("\n".join(counts) + "\n")
    code = cli_main(["evaluate", "--corpus", str(root / "corpus"), "--detections", str(det),
                     "--out", str(tmp_path / "eval")])
    err = capsys.readouterr().err
    assert code == (0 if accepted else 1), err
    if not accepted:
        bad = "counts_union.csv:2:" if field == "count" else "steps_union.csv:2:"
        assert bad in err and "Traceback" not in err
