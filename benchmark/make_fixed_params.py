"""Regenerate fixed_params.json: the cross-fold mean parameters of the
default full run (203 recordings, corpus seed 42, 5 folds, CV seed 0,
default grid), which the free_living workload detects with.

    python3 benchmark/make_fixed_params.py
"""
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import dualwrist as dw  # noqa: E402


def main() -> None:
    recs = dw.simulate_corpus(dw.CorpusSpec())
    engine = dw.CorpusEngine(recs)
    fixed = {}
    for alg in dw.AlgorithmId:
        report = dw.cross_validate(recs, alg, dw.ParamGrid(), k=5, seed=0, engine=engine)
        fixed[alg.value] = {k: v for k, v in report.mean_params.to_dict().items() if v is not None}
    with open(BENCH / "fixed_params.json", "w") as f:
        json.dump(fixed, f, indent=2, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
