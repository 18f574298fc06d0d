"""Each benchmark workload runs one short round against the package and passes its checks.

The workloads call public package names (`lattice.CheatingLatticeAlice`,
`analysis.binding_search`, `engine.run_session`, ...); deleting or renaming
one of them shows here as a failed run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _round_passes(workload: str, trace: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0, proc.stderr
    return result


@pytest.mark.parametrize("workload", ["exact-analyze", "binding-highd", "sampling"])
def test_benchmark_workload_round_passes(workload):
    _round_passes(workload, "0")


def test_traced_benchmark_round_passes():
    # the per-layer run wraps package names in every module it traces
    # (`lattice.build_angle_basis`, `analysis.decode_commit`, `engine.sample`,
    # ...), so renaming one of them fails here
    metrics = _round_passes("exact-analyze", "1")["metrics"]
    assert metrics["lattice.build_angle_basis_s"]["value"] > 0
