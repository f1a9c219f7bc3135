"""Session configuration loading and validation."""
import json

import pytest

from dualwrist import ParamGrid, WalkTask
from dualwrist.config import (
    corpus_spec_from_config,
    default_config,
    grid_from_config,
    load_config,
    validate_config,
    write_config,
)


class TestDefaultConfig:
    def test_default_is_valid(self):
        cfg = default_config()
        assert validate_config(cfg) is cfg

    def test_default_mirrors_grid_and_corpus(self):
        cfg = default_config()
        grid = ParamGrid()
        for name, values in cfg["grid"].items():
            assert tuple(values) == getattr(grid, name)
        assert sum(cfg["corpus"]["tasks"].values()) == 203
        assert cfg["cv"] == {"folds": 5, "seed": 0}

    def test_round_trips_through_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        write_config(default_config(), path)
        assert load_config(path) == default_config()


class TestValidation:
    def test_unknown_top_level_key(self):
        # Detector parameters come from `tune` output, never from the config.
        for key in ("bogus", "params"):
            cfg = default_config()
            cfg[key] = 1
            with pytest.raises(ValueError, match=rf"top level: \['{key}'\]"):
                validate_config(cfg)

    def test_unknown_corpus_key(self):
        cfg = default_config()
        cfg["corpus"]["extra"] = 1
        with pytest.raises(ValueError, match="corpus"):
            validate_config(cfg)

    def test_unknown_task_name(self):
        cfg = default_config()
        cfg["corpus"]["tasks"]["moonwalk"] = 5
        with pytest.raises(ValueError, match="corpus.tasks"):
            validate_config(cfg)

    def test_unknown_cv_key(self):
        cfg = default_config()
        cfg["cv"]["reps"] = 3
        with pytest.raises(ValueError, match="cv"):
            validate_config(cfg)

    def test_unknown_grid_key(self):
        cfg = default_config()
        cfg["grid"]["window"] = [0.1]
        with pytest.raises(ValueError, match="grid"):
            validate_config(cfg)

    def test_version_required(self):
        cfg = default_config()
        cfg["version"] = 99
        with pytest.raises(ValueError, match="unsupported config version"):
            validate_config(cfg)

    def test_non_dict_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            validate_config([1, 2])


class TestExtraction:
    def test_corpus_spec_overrides(self):
        cfg = {"version": 1, "corpus": {"seed": 7, "tasks": {"slow_pace": 3}}}
        spec = corpus_spec_from_config(validate_config(cfg))
        assert spec.seed == 7
        assert spec.task_counts == {WalkTask.SLOW_PACE: 3}
        assert corpus_spec_from_config(cfg, seed_override=9).seed == 9

    def test_corpus_spec_defaults(self):
        spec = corpus_spec_from_config({"version": 1})
        assert spec.seed == 42 and spec.total() == 203

    def test_grid_partial_override(self):
        cfg = {"version": 1, "grid": {"min_peak_amp": [0.1, 0.2]}}
        grid = grid_from_config(validate_config(cfg))
        assert grid.min_peak_amp == (0.1, 0.2)
        assert grid.min_peak_gap == ParamGrid().min_peak_gap

    def test_grid_absent_gives_defaults(self):
        assert grid_from_config({"version": 1}) == ParamGrid()

    def test_load_config_validates(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 1, "nope": True}))
        with pytest.raises(ValueError, match="top level"):
            load_config(path)
