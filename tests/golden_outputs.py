"""Golden outputs: sha256 digests of what the package computes on small,
fixed inputs, so that a change meant to keep outputs can show it kept them.

    PYTHONPATH=src python tests/golden_outputs.py

rewrites ``tests/golden/digests.json``; ``tests/test_golden.py`` recomputes
the digests and compares them with that file. The digests cover:

- every file the CLI chain ``simulate -> tune -> detect x6 -> evaluate``
  writes under ``tuned/``, ``det/`` and ``eval/``, on 8 recordings with two
  values per grid field;
- the cross-validation reports of all six detectors and the
  ``evaluate_corpus`` rows, on 16 recordings with the same grid;
- the steps of one 10-minute recording at ``benchmark/fixed_params.json``;
- the simulated ``x``/``y``/``z`` of both wrists of the 16 recordings and of
  the 10-minute recording, so a drift in the simulator shows directly.

Regenerate only when an output is meant to change, and record which digests
moved and why. The numpy version is stored with the digests, because a
different numpy may round a smoothing or a sum differently.
"""
from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import dualwrist as dw
from dualwrist import cli
from dualwrist.config import write_config

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).with_name("golden") / "digests.json"
FIXED_PARAMS = ROOT / "benchmark" / "fixed_params.json"

GRID = {
    "smooth_single": [0.1, 0.2],
    "smooth_fused": [0.0, 0.08],
    "min_peak_amp": [0.08, 0.12],
    "min_peak_gap": [0.28, 0.4],
    "fuse_max_dist": [0.18, 0.3],
    "fuse_min_dist": [0.18, 0.3],
}
CLI_TASKS = 1  # recordings per walking task for the CLI chain
API_TASKS = 2  # recordings per walking task for cross-validation
SEED = 7
LONG_DURATION = 600.0


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _json_sha(payload) -> str:
    return _sha(json.dumps(payload, sort_keys=True).encode())


def _signals_sha(recs) -> str:
    """Digest of every simulated sample: each recording's left then right
    ``x``, ``y`` and ``z``, in corpus order."""
    return _sha(b"".join(a.tobytes() for r in recs for s in (r.left, r.right) for a in (s.x, s.y, s.z)))


def cli_digests(work: Path) -> dict:
    """Digest of every file the CLI chain writes, by path under ``work``."""
    cfg = work / "config.json"
    write_config({"version": 1, "corpus": {"seed": SEED, "tasks": {t.value: CLI_TASKS for t in dw.WalkTask}},
                  "cv": {"folds": 4, "seed": 0}, "grid": GRID}, cfg)
    corpus, tuned, det, ev = (str(work / d) for d in ("corpus", "tuned", "det", "eval"))
    params = str(work / "tuned" / "tuned_params.json")
    commands = [["simulate", "--spec", str(cfg), "--out", corpus],
                ["tune", "--corpus", corpus, "--config", str(cfg), "--out", tuned]]
    commands += [["detect", "--alg", a.value, "--params", params, "--corpus", corpus, "--out", det]
                 for a in dw.AlgorithmId]
    commands.append(["evaluate", "--corpus", corpus, "--detections", det, "--out", ev])
    for argv in commands:
        if cli.cli_main(argv) != 0:
            raise RuntimeError(f"`dualwrist {' '.join(argv)}` failed")
    return {
        str(p.relative_to(work)): _sha(p.read_bytes())
        for sub in ("tuned", "det", "eval")
        for p in sorted((work / sub).rglob("*"))
        if p.is_file()
    }


def api_digests() -> dict:
    """Digests of the simulated corpus, six cross-validation reports and the
    evaluation rows."""
    recs = dw.simulate_corpus(dw.CorpusSpec(task_counts={t: API_TASKS for t in dw.WalkTask}, seed=SEED))
    engine = dw.CorpusEngine(recs)
    grid = dw.ParamGrid(**GRID)
    reports = {a: dw.cross_validate(recs, a, grid, k=5, seed=0, engine=engine) for a in dw.AlgorithmId}
    params = {a: r.mean_params for a, r in reports.items()}
    result = dw.evaluate_corpus(recs, list(dw.AlgorithmId), params, engine=engine)
    rows = [[r.recording_id, r.task.value, r.algorithm.value, r.count, r.label, r.pct_error, r.error]
            for r in result.rows]
    return {
        "simulate.corpus": _signals_sha(recs),
        "cross_validate": _json_sha({a.value: r.to_dict() for a, r in reports.items()}),
        "evaluate_corpus.rows": _json_sha(rows),
    }


def long_recording_digests() -> dict:
    """Digests of one 10-minute recording's signals and each detector's steps."""
    rec = dw.simulate_recording(dw.WalkTask.COMFORTABLE_PACE, seed=SEED, recording_id="long",
                                overrides={"duration": LONG_DURATION, "lead_in": 5.0, "lead_out": 5.0})
    fixed = json.loads(FIXED_PARAMS.read_text())
    engine = dw.CorpusEngine([rec])
    out = {"simulate.long": _signals_sha([rec])}
    for alg in dw.AlgorithmId:
        steps = engine.steps(alg, rec.id, dw.DetectorParams.from_dict(fixed[alg.value]))
        out[f"long.steps_{alg.value}"] = _sha(steps.times.tobytes() + steps.amplitudes.tobytes())
    return out


def compute_digests() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        digests = cli_digests(Path(tmp))
    digests.update(api_digests())
    digests.update(long_recording_digests())
    return digests


def main() -> int:
    payload = {"numpy": np.__version__, "digests": compute_digests()}
    DIGESTS.parent.mkdir(exist_ok=True)
    with open(DIGESTS, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {len(payload['digests'])} digests to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
