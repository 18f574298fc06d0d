import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import framebc
print(framebc.__version__)
print(" ".join(sorted(n for n in dir(framebc) if not n.startswith("_"))))
print(hasattr(framebc, "__all__"))
"""


def test_package_exposes_only_its_submodules():
    # a fresh process, so no other test's imports (framebc.cli) leak in
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    version, names, has_all = result.stdout.splitlines()
    assert version == "0.1.0"
    # the submodules alone: no re-exported name such as make_params or run_session
    assert names.split() == ["analysis", "engine", "lattice", "simple", "so3"]
    assert has_all == "False"
