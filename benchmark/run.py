"""framebc benchmark: run one workload with one seed and print its metrics.

Run from the repository root:

    python3 benchmark/run.py --workload exact-analyze --seed 1 --seconds 30 --trace 0

The program is imported from `src/` and its command runs as
`python3 -m framebc.cli`, one child process at a time.  A run sets up seven
times (a fresh `import framebc` plus `make_params` for every (d, L) the
workload uses), then repeats whole rounds of the workload's operations on
the same seeded inputs until the next round would end after `--seconds`.
Every output is checked against a property the method must have (see
`workloads.py`).  The last line of standard output is one JSON object:

- `--trace 0`: `round_s` (median seconds of a round's operations),
  `setup_s` (median set-up) and `peak_rss_mb` (this process or its
  largest child);
- `--trace 1`: per-layer timings and counts, recorded by wrapping the
  package's public functions in this process and in every child
  (`tracing.py`).  Timings are medians, with a p99 where a layer has
  1000 samples or more; a layer the workload does not call reads 0.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from tracing import Tracer
from workloads import WORKLOADS, parse_report

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_build"

SETUP_REPEATS = 7
STARTUP_PROBES = 3
STARTUP_ARGS = ["analyze", "--protocol", "four-symbol"]
CLI_TIMEOUT_S = 150

END_TO_END = [("round_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


class Harness:
    """Runs operations for a workload and counts attempts and failures."""

    def __init__(self, trace: bool, work_dir: Path) -> None:
        self.tracer = Tracer() if trace else None
        self.work_dir = work_dir
        self.fb = None
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self._traces = 0
        path = os.environ.get("PYTHONPATH")
        self.env = {**os.environ,
                    "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}

    def fail(self, what: str, n: int = 1, wrong: bool = False) -> None:
        """Count n failed operations; `wrong` marks an incorrect output."""
        self.failed += n
        if wrong:
            self.correct = False
        print(f"benchmark: failed: {what}", file=sys.stderr)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.fail(what, wrong=True)

    def cli(self, args: list[str], traced: bool | None = None) -> tuple[str | None, float]:
        """Run one `framebc` command; returns (stdout or None on failure, wall s)."""
        self.attempted += 1
        traced = self.tracer is not None if traced is None else traced
        if traced:
            self._traces += 1
            trace_file = self.work_dir / f"trace-{self._traces}.npz"
            cmd = [sys.executable, str(BENCH_DIR / "tracing.py"), str(trace_file), *args]
        else:
            cmd = [sys.executable, "-m", "framebc.cli", *args]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env,
                                  cwd=ROOT, timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.fail(f"framebc {' '.join(args)} timed out")
            return None, time.perf_counter() - t0
        wall = time.perf_counter() - t0
        if traced and trace_file.exists():
            for name, values in Tracer.load(trace_file).items():
                self.tracer.samples[name].extend(values)
            trace_file.unlink()
        if proc.returncode != 0:
            self.fail(f"framebc {' '.join(args)} exited {proc.returncode}: "
                      f"{proc.stderr.strip()[-300:]}")
            return None, wall
        return proc.stdout, wall

    def call(self, fn, *args):
        """Call one library function; returns (result or None on failure, wall s)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # the run goes on and reports the failure
            self.fail(f"{fn.__name__} raised {exc!r}")
            return None, time.perf_counter() - t0
        return result, time.perf_counter() - t0


def set_up(sizes, tracer: Tracer | None):
    """Fresh `import framebc` plus `make_params` for each size; returns (s, fb, params)."""
    for name in [m for m in sys.modules if m == "framebc" or m.startswith("framebc.")]:
        del sys.modules[name]
    if tracer is not None:
        tracer.uninstall()
    t0 = time.perf_counter()
    fb = importlib.import_module("framebc")
    if tracer is not None:
        tracer.install(fb.lattice, fb.analysis, fb.engine)
        tracer.install_sessions(fb.engine)
    params = {(d, L): fb.lattice.make_params(d, L) for d, L in sizes}
    return time.perf_counter() - t0, fb, params


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def layer_metrics(setups, rounds, startup, traced_round) -> list[tuple[str, float, str]]:
    """Per-layer metrics from the traced set-ups and rounds."""

    def pooled(name):
        return np.concatenate([np.asarray(r.get(name, []), dtype=float) for r in rounds])

    def us(name):
        x = pooled(name)
        return float(np.median(x)) * 1e6 if len(x) else 0.0

    def p99_us(name):
        x = pooled(name)
        return float(np.percentile(x, 99)) * 1e6 if len(x) >= 1000 else 0.0

    def per_round(name, reduce=sum):
        return statistics.median(reduce(r.get(name, [])) for r in rounds)

    def count(name):
        return per_round(name, len)

    def per_setup(name):
        return statistics.median(sum(s.get(name, [])) for s in setups)

    def haar_rate():
        n = per_round("so3.haar_rotations.n")
        return n / per_round("so3.haar_rotations") if n else 0.0

    return [
        ("lattice.build_angle_basis_s", per_setup("lattice.build_angle_basis"), "s"),
        ("lattice.params_init_s", per_setup("lattice.params_init"), "s"),
        ("lattice.decode_commit_us", us("lattice.decode_commit"), "us"),
        ("lattice.decode_commit_p99_us", p99_us("lattice.decode_commit"), "us"),
        ("lattice.decode_commit_calls", count("lattice.decode_commit"), "count"),
        ("analysis.lattice_soundness_exact_s", per_round("analysis.lattice_soundness_exact"), "s"),
        ("analysis.concealing_exact_s", per_round("analysis.concealing_exact"), "s"),
        ("analysis.binding_search_s", per_round("analysis.binding_search"), "s"),
        ("analysis.binding_sum_max_s", per_round("analysis.binding_sum_max"), "s"),
        ("analysis.lattice_soundness_mc_us",
         us("analysis.lattice_soundness_mc.per_trial"), "us/trial"),
        ("simple.four_symbol_mc_us", us("simple.four_symbol_mc.per_trial"), "us/trial"),
        ("simple.continuous_mc_us", us("simple.continuous_mc.per_trial"), "us/trial"),
        ("engine.run_session_honest_us", us("engine.run_session_honest"), "us"),
        ("engine.run_session_honest_p99_us", p99_us("engine.run_session_honest"), "us"),
        ("engine.run_session_cheat_us", us("engine.run_session_cheat"), "us"),
        ("engine.run_session_cheat_p99_us", p99_us("engine.run_session_cheat"), "us"),
        ("engine.outcome.accepted", count("engine.outcome.accepted"), "count"),
        ("engine.outcome.reveal-reject", count("engine.outcome.reveal-reject"), "count"),
        ("engine.outcome.commit-decode", count("engine.outcome.commit-decode"), "count"),
        ("so3.sample_us", us("so3.sample"), "us"),
        ("so3.sample_p99_us", p99_us("so3.sample"), "us"),
        ("engine.compiled_transcript_distribution_s",
         per_round("engine.compiled_transcript_distribution"), "s"),
        ("engine.haar_twirl_moments_s", per_round("engine.haar_twirl_moments"), "s"),
        ("so3.haar_rotations_per_s", haar_rate(), "rotations/s"),
        ("cli.startup_s", statistics.median(startup), "s"),
        ("trace.round_s", traced_round, "s"),
    ]


def startup_probe(h: Harness) -> float:
    """Wall time of the trivial `framebc analyze --protocol four-symbol`."""
    out, wall = h.cli(STARTUP_ARGS, traced=False)
    if out is not None:
        r = parse_report(out)
        h.check(r.get("soundness.exact") == "1" and r.get("concealing_exact.exact") == "0"
                and r.get("binding_flip.exact") == "1/2"
                and r.get("binding_sum_max.exact") == "3/2", "four-symbol analyze report")
    return wall


def run(args, work_dir: Path) -> dict:
    h = Harness(bool(args.trace), work_dir)
    workload_cls = WORKLOADS[args.workload]
    setup_s, setups = [], []
    for _ in range(SETUP_REPEATS):
        elapsed, h.fb, params = set_up(workload_cls.sizes, h.tracer)
        setup_s.append(elapsed)
        if h.tracer is not None:
            setups.append(h.tracer.take())
    workload = workload_cls(args.seed, h, params)
    if h.tracer is not None:
        h.tracer.take()  # calls that prepared the inputs belong to no round

    busy, walls, rounds = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        busy.append(workload.round())
        walls.append(time.perf_counter() - t0)
        if h.tracer is not None:
            rounds.append(h.tracer.take())
        if time.perf_counter() - start + statistics.median(walls) > args.seconds:
            break

    if args.trace:
        startup = [startup_probe(h) for _ in range(STARTUP_PROBES)]
        metrics = layer_metrics(setups, rounds, startup, statistics.median(busy))
    else:
        metrics = [(name, value, unit) for (name, unit), value in zip(
            END_TO_END, (statistics.median(busy), statistics.median(setup_s), peak_rss_mb()))]
    print(f"benchmark: {args.workload} seed={args.seed} rounds={len(busy)} "
          f"round_s={[round(b, 3) for b in busy]}", file=sys.stderr)
    return {
        "correct": h.correct,
        "attempted": h.attempted,
        "failed": h.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit in metrics},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description="framebc benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "framebc" / "__init__.py").is_file():
        print(f"benchmark: no framebc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR, prefix="framebc-") as work_dir:
        result = run(args, Path(work_dir))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
