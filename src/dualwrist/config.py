"""Declarative session configuration: simulator spec, parameter grids, CV setup.

One versioned JSON file drives simulate/tune runs. Unknown keys are errors.
"""
from __future__ import annotations

import math
from pathlib import Path
from typing import Optional, Sequence

from .core import PARAM_FIELD_ORDER, AlgorithmId, WalkTask
from .io_formats import FormatError, _read_json, dump_json
from .simulate import DEFAULT_TASK_COUNTS, CorpusSpec
from .tuning import ParamGrid

CONFIG_VERSION = 1

_TOP_KEYS = {"version", "corpus", "cv", "grid"}
_CORPUS_KEYS = {"seed", "tasks"}
_CV_KEYS = {"folds", "seed"}
_GRID_KEYS = set(PARAM_FIELD_ORDER)


def default_config() -> dict:
    grid = ParamGrid()
    return {
        "version": CONFIG_VERSION,
        "corpus": {
            "seed": 42,
            "tasks": {task.value: n for task, n in DEFAULT_TASK_COUNTS.items()},
        },
        "cv": {"folds": 5, "seed": 0},
        "grid": {name: list(getattr(grid, name)) for name in sorted(_GRID_KEYS)},
    }


def _reject_unknown(d: dict, allowed: set, where: str) -> None:
    if not isinstance(d, dict):
        raise FormatError(f"{where} must be a JSON object, not {d!r}")
    unknown = set(d) - allowed
    if unknown:
        raise ValueError(f"unknown config key(s) in {where}: {sorted(unknown)}")


def validate_config(cfg: dict) -> dict:
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    _reject_unknown(cfg, _TOP_KEYS, "top level")
    if cfg.get("version") != CONFIG_VERSION:
        raise ValueError(f"unsupported config version {cfg.get('version')!r}")
    if "corpus" in cfg:
        _reject_unknown(cfg["corpus"], _CORPUS_KEYS, "corpus")
        tasks = cfg["corpus"].get("tasks", {})
        known = {t.value for t in WalkTask}
        _reject_unknown(tasks, known, "corpus.tasks")
    if "cv" in cfg:
        _reject_unknown(cfg["cv"], _CV_KEYS, "cv")
        for key, v in cfg["cv"].items():
            if not _is_int(v):
                raise FormatError(f"cv.{key} must be an integer, not {v!r}")
    if "grid" in cfg:
        _reject_unknown(cfg["grid"], _GRID_KEYS, "grid")
    return cfg


def load_config(path) -> dict:
    """Read and validate a config file; a bad one raises a ``FormatError``
    naming the file and the key."""
    cfg = _read_json(Path(path))
    try:
        validate_config(cfg)
        corpus_spec_from_config(cfg)
        grid_from_config(cfg)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None
    return cfg


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def corpus_spec_from_config(cfg: dict, seed_override: Optional[int] = None) -> CorpusSpec:
    corpus = cfg.get("corpus", {})
    tasks = corpus.get("tasks")
    for name, n in (tasks or {}).items():
        if not (_is_int(n) and n >= 0):
            raise FormatError(f"corpus.tasks.{name} must be a non-negative integer, not {n!r}")
    counts = (
        {WalkTask(name): n for name, n in tasks.items()}
        if tasks is not None
        else dict(DEFAULT_TASK_COUNTS)
    )
    if not sum(counts.values()):
        raise FormatError(f"corpus.tasks must ask for at least one recording, not {tasks!r}")
    seed = seed_override if seed_override is not None else corpus.get("seed", 42)
    if not _is_int(seed):
        raise FormatError(f"corpus.seed must be an integer, not {seed!r}")
    return CorpusSpec(task_counts=counts, seed=seed)


def grid_from_config(cfg: dict, algorithms: Sequence[AlgorithmId] = ()) -> ParamGrid:
    grid_cfg = cfg.get("grid") or {}
    for name, values in grid_cfg.items():
        if not (isinstance(values, list) and values and all(_is_number(v) and math.isfinite(v) for v in values)):
            raise FormatError(f"grid.{name} must be a non-empty list of finite numbers, not {values!r}")
    grid = ParamGrid(**{name: tuple(values) for name, values in grid_cfg.items()})  # defaults fill the rest
    for alg in algorithms:
        grid.points(alg)  # each value in its field's range, and a point left after filtering
    return grid


def write_config(cfg: dict, path) -> None:
    dump_json(Path(path), cfg)
