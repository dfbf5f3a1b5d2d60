"""Pinned benchmark outputs, checked in the fast suite.

``bench/digests.json`` pins the exit code and the SHA-256 of stdout of
every benchmark command.  The benchmark checks them only when it runs;
here the fastest command of each workload for seed 1 (a few milliseconds
each) and the ext commands whose exploration merges the most
configurations run through ``lagc.cli.main``, so an output change shows
up in the tests.  Neither ``bench/workloads.py`` nor ``bench/digests.json``
is written.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from lagc.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

DIGESTS = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))
SEED = 1
FASTEST = {
    "wl-sequential": "random-5",
    "ext-interleave": "k2-2x1",
    "ext-calls": "calls-1",
}
# the heaviest ext commands, where merging configurations saves the most
HEAVIEST = (
    ("ext-interleave", "k4-2x2x2x1"),
    ("ext-calls", "calls-3"),
    ("ext-calls", "equiv-3-calls"),
)
CASES = [pytest.param(w, FASTEST[w], id=w) for w in sorted(FASTEST)] + [
    pytest.param(w, slot, id=f"{w}-{slot}") for w, slot in HEAVIEST
]


@pytest.mark.parametrize("workload, slot", CASES)
def test_fastest_command_reproduces_pinned_digest(workload, slot, tmp_path):
    (command,) = [c for c in workloads.commands(workload, SEED) if c.slot == slot]
    paths = []
    for i, text in enumerate(command.files):
        path = tmp_path / f"{i}.prog"
        path.write_text(text, encoding="utf-8")
        paths.append(str(path))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main([arg.format(*paths) for arg in command.args])
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert [rc, digest] == DIGESTS[command.key]
