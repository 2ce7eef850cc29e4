"""The benchmark runs end to end and its own checker passes: a change that
breaks a workload, or an output the checker verifies, fails here first.

Each run writes its record under ``bench/out/``, which git ignores."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["fuzz-n15", "explore-n5"])
def test_a_short_benchmark_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.01"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
    assert result["attempted"] > 0


def test_a_traced_search_interns_process_states_by_their_key():
    # The traced path runs end to end, and its layer counts show where a
    # search's transition-table misses go: each new process state is
    # interned by its exact state_key, no process image is built, and a
    # miss steps a clone of one process, not a configuration, and a chunk's
    # roots are children of its start configuration's frame, so the search
    # makes no apply_deliver call at all.
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "explore-n5", "--seed", "1",
         "--seconds", "0.01", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    metrics = result["metrics"]
    assert metrics["protocol.state_key.calls"]["value"] > 0
    assert metrics["protocol.canonical_bytes.calls"]["value"] == 0
    assert metrics["simulation.apply_deliver.calls"]["value"] == 0
