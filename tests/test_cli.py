"""End-to-end command-line workflows."""
import json
import shutil

import pytest

from dualwrist.cli import cli_main
from dualwrist.config import write_config

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

    @pytest.mark.parametrize("side, key, value", [("left", "rate", None), ("right", "t0", None),
                                                  ("left", "rate", 0)])
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
