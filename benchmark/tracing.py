"""Call tracing for the benchmark, installed from outside the framebc package.

The tracer replaces selected public functions of the package's modules with
wrappers that time each call with `time.perf_counter_ns` and count it.  A
function is patched under every module name it is bound to, because modules
import each other's functions by name (`analysis` calls its own binding of
`lattice.decode_commit`, for example).

Run as a script, this file is the traced stand-in for the `framebc` command:

    python3 benchmark/tracing.py OUT.npz analyze --protocol four-symbol

runs `framebc.cli.main` on the remaining arguments with the tracer installed,
writes the recorded samples to OUT.npz and exits with the command's code.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

NS = 1e-9


class Tracer:
    """Per-name lists of samples, filled by the installed wrappers.

    Sample kinds, by name:
    - plain names hold call durations in seconds;
    - `*.per_trial` holds a Monte Carlo call's duration divided by its trials;
    - `*.n` holds an item count recorded next to a duration of the same name;
    - `engine.outcome.<reason>` holds one 1.0 per session with that outcome.
    """

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def take(self) -> dict[str, list[float]]:
        """Return the samples recorded so far and start empty."""
        out = dict(self.samples)
        self.samples = defaultdict(list)
        return out

    def save(self, path) -> None:
        np.savez(path, **{k: np.asarray(v, dtype=float) for k, v in self.samples.items()})

    @staticmethod
    def load(path) -> dict[str, list[float]]:
        with np.load(path) as data:
            return {k: data[k].tolist() for k in data.files}

    # -- wrappers --------------------------------------------------------

    def _patch(self, owners, attr: str, make_wrapper) -> None:
        original = getattr(owners[0], attr)
        wrapper = make_wrapper(original)
        for owner in owners:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"{owner!r}.{attr} is not the same function everywhere")
            self._patched.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def _timed(self, name: str):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter_ns()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.samples[name].append((time.perf_counter_ns() - t0) * NS)
            return wrapper
        return make

    def _per_trial(self, name: str):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter_ns()
                estimate = fn(*args, **kwargs)
                elapsed = (time.perf_counter_ns() - t0) * NS
                self.samples[name + ".per_trial"].append(elapsed / estimate.trials)
                return estimate
            return wrapper
        return make

    def _counted(self, name: str):
        """Time a call and record its first argument as the item count."""
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter_ns()
                result = fn(*args, **kwargs)
                self.samples[name].append((time.perf_counter_ns() - t0) * NS)
                self.samples[name + ".n"].append(float(args[0]))
                return result
            return wrapper
        return make

    def _session(self, engine):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(spec, rng=None, **kwargs):
                kind = "cheat" if kwargs.get("alice") is not None else "honest"
                t0 = time.perf_counter_ns()
                transcript = fn(spec, rng, **kwargs)
                self.samples[f"engine.run_session_{kind}"].append(
                    (time.perf_counter_ns() - t0) * NS
                )
                outcome = transcript.outcome
                if isinstance(outcome, engine.Accepted):
                    reason = "accepted"
                else:
                    reason = outcome.reason.split(":", 1)[0]
                self.samples[f"engine.outcome.{reason}"].append(1.0)
                return transcript
            return wrapper
        return make

    def install(self, lattice, analysis, engine) -> None:
        """Wrap the traced public functions of one import of the package."""
        p = self._patch
        p([lattice], "build_angle_basis", self._timed("lattice.build_angle_basis"))
        p([lattice.LatticeParams], "__post_init__", self._timed("lattice.params_init"))
        p([lattice, analysis], "decode_commit", self._timed("lattice.decode_commit"))
        for fn in ("lattice_soundness_exact", "concealing_exact",
                   "binding_search", "binding_sum_max"):
            p([analysis], fn, self._timed(f"analysis.{fn}"))
        p([analysis], "lattice_soundness_mc",
          self._per_trial("analysis.lattice_soundness_mc"))
        p([analysis], "four_symbol_soundness_mc", self._per_trial("simple.four_symbol_mc"))
        p([analysis], "continuous_acceptance_mc", self._per_trial("simple.continuous_mc"))
        p([engine], "sample", self._timed("so3.sample"))
        p([engine], "compiled_transcript_distribution",
          self._timed("engine.compiled_transcript_distribution"))
        p([engine], "haar_twirl_moments", self._timed("engine.haar_twirl_moments"))
        p([engine], "haar_rotations", self._counted("so3.haar_rotations"))

    def install_sessions(self, engine) -> None:
        """Wrap `engine.run_session` for the lattice sessions the benchmark runs.

        Only the benchmark's own process installs this: the twirl check's
        enumeration runs thousands of probe sessions that are not lattice
        sessions.
        """
        self._patch([engine], "run_session", self._session(engine))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def main(argv: list[str]) -> int:
    out, cli_args = argv[0], argv[1:]
    from framebc import analysis, cli, engine, lattice

    tracer = Tracer()
    tracer.install(lattice, analysis, engine)
    try:
        return cli.main(cli_args)
    finally:
        tracer.save(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
