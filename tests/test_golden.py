"""Outputs must not move: CLI files, CV reports, evaluation rows, long-trace
steps and simulated signals hash to the digests committed in
``tests/golden/digests.json``.

A change that is meant to move an output regenerates the file with
``PYTHONPATH=src python tests/golden_outputs.py`` and says which digests
moved and why."""
import json

import numpy as np

from golden_outputs import DIGESTS, compute_digests


def test_outputs_match_the_golden_digests():
    committed = json.loads(DIGESTS.read_text())
    got = compute_digests()
    want = committed["digests"]
    moved = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
    assert not moved, (f"outputs moved: {moved} (numpy {np.__version__} here, "
                       f"{committed['numpy']} when the digests were written)")
