"""The benchmark tracer still finds every function it wraps.

`benchmark/tracing.py` patches public functions of `framebc` by name; a
refactor that renames or moves one of them would otherwise only fail the
traced benchmark run.  The check runs in a child process so that it sees a
fresh import of the package.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHECK = """
import sys
sys.path.insert(0, sys.argv[1])
from tracing import Tracer
from framebc import analysis, engine, lattice

originals = {name: getattr(engine, name) for name in ("run_session", "sample")}
tracer = Tracer()
tracer.install(lattice, analysis, engine)
tracer.install_sessions(engine)
assert all(getattr(engine, name) is not fn for name, fn in originals.items())
patched = len(tracer._patched)
tracer.uninstall()
assert all(getattr(engine, name) is fn for name, fn in originals.items())
print(patched)
"""


def test_benchmark_tracer_installs_on_fresh_import():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", CHECK, str(ROOT / "benchmark")],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) > 0
