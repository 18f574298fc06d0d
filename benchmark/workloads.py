"""The three benchmark workloads and the properties their outputs must have.

Every expected value is computed here from (d, L) in exact `Fraction`s,
never copied from an earlier run of the program:

- soundness is 1 and the concealing distance is 2/L for even L, below the
  boundary bound 1 - ((L-1)/(L+2))^d;
- the best flip cheat is 1/d under the lenient reveal test and 1/(2d)
  under the strict one, and the best sum of both reveals is 1 + 1/d;
- the continuous interpolation attack at alpha = 1/2 accepts either reveal
  with probability 3/4;
- honest sessions accept their own bit, and the cheating witness of
  `binding_search` is accepted with probability 1/d.

A workload's `round` runs the same operations on the same inputs each time
it is called and returns the seconds spent in them, check time excluded.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np

#: sampling-workload sizes
MC_TRIALS = 10_000
HAAR_SAMPLES = 100_000
SESSIONS = 2_000
#: binomial checks allow this many standard deviations
Z_TOL = 6.0


def parse_report(text: str) -> dict[str, str]:
    """`key = value` rows of a framebc report."""
    rows = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            rows[key] = value
    return rows


def concealing_bound(d: int, L: int) -> Fraction:
    return 1 - Fraction(L - 1, L + 2) ** d


def within_binomial(successes: int, trials: int, p: Fraction) -> bool:
    p = float(p)
    return abs(successes - trials * p) <= Z_TOL * math.sqrt(trials * p * (1 - p))


def samples_field(value: str) -> tuple[int, int]:
    """`k/n seed=s` -> (k, n)."""
    k, n = value.split(" ", 1)[0].split("/")
    return int(k), int(n)


def parity(point) -> int:
    return sum(int(x) for x in point) % 2


class ExactAnalyze:
    """`framebc analyze` at (4, 16), then `framebc sweep` over a 3 x 3 grid.

    The seed picks the measurement tolerance passed to `analyze` (a fraction
    of the certified maximum) and the order of the sweep's value lists; the
    work done does not depend on either.
    """

    D, L = 4, 16
    SWEEP_D = (1, 2, 3)
    SWEEP_L = (4, 8, 16)
    GRID = [(d, L) for d in SWEEP_D for L in (4, 8, 16)]
    sizes = [(D, L)] + GRID

    def __init__(self, seed: int, harness, params) -> None:
        rng = np.random.default_rng(seed)
        max_eps = params[(self.D, self.L)].basis.max_safe_eps
        self.eps = repr(float(rng.uniform(0.1, 0.45)) * max_eps)
        d_values = [int(x) for x in rng.permutation(self.SWEEP_D)]
        L_values = [int(x) for x in rng.permutation(self.SWEEP_L)]
        self.analyze_args = ["analyze", "--protocol", "lattice", "--d", str(self.D),
                             "--L", str(self.L), "--eps", self.eps]
        self.sweep_args = ["sweep", "--protocol", "lattice",
                           "--d-values", ",".join(map(str, d_values)),
                           "--L-values", ",".join(map(str, L_values))]
        self.h = harness

    def round(self) -> float:
        busy = 0.0
        out, wall = self.h.cli(self.analyze_args)
        busy += wall
        if out is not None:
            self.h.check(self.analyze_ok(parse_report(out)), "analyze report")
        out, wall = self.h.cli(self.sweep_args)
        busy += wall
        if out is not None:
            self.h.check(self.sweep_ok(out), "sweep table")
        return busy

    def analyze_ok(self, r: dict[str, str]) -> bool:
        d, L = self.D, self.L
        concealing = Fraction(r["concealing_exact.exact"])
        return (
            r["eps_meas"] == self.eps
            and Fraction(r["soundness.exact"]) == 1
            and concealing == Fraction(2, L)
            and Fraction(r["concealing_bound.exact"]) == concealing_bound(d, L)
            and concealing <= concealing_bound(d, L)
            and Fraction(r["binding_flip_strict.exact"]) == Fraction(1, 2 * d)
            and Fraction(r["binding_flip_lenient.exact"]) == Fraction(1, d)
            and Fraction(r["binding_sum_max.exact"]) == 1 + Fraction(1, d)
        )

    def sweep_ok(self, text: str) -> bool:
        rows = [line.split("\t") for line in text.splitlines()[2:] if line]
        seen = set()
        for cells in rows:
            d, L = int(cells[0]), int(cells[1])
            seen.add((d, L))
            expected = [1, Fraction(2, L), concealing_bound(d, L),
                        Fraction(1, 2 * d), Fraction(1, d)]
            if [float(c) for c in cells[3:]] != [float(x) for x in expected]:
                return False
            if float(cells[4]) > float(cells[5]):
                return False
        return len(rows) == len(self.GRID) and seen == set(self.GRID)


class BindingHighD:
    """Exact binding at d=6, L=8 through the library.

    The inputs are fixed: the computation is exact and draws nothing at
    random, so the seed does not enter this workload.
    """

    D, L = 6, 8
    sizes = [(D, L)]

    def __init__(self, seed: int, harness, params) -> None:
        self.params = params[(self.D, self.L)]
        self.h = harness

    def round(self) -> float:
        fb = self.h.fb
        busy = 0.0
        flips = {}
        for predicate in ("strict", "lenient"):
            result, wall = self.h.call(fb.analysis.binding_search, self.params, predicate)
            busy += wall
            if result is not None:
                flips[predicate] = result.probability
                self.h.check(self.witness_ok(result, predicate), f"{predicate} witness")
        result, wall = self.h.call(fb.analysis.binding_sum_max, self.params)
        busy += wall
        if result is not None:
            flip = flips.get("lenient", Fraction(1, self.D))
            self.h.check(result[0] == 1 + Fraction(1, self.D) == 1 + flip,
                         "binding_sum_max = 1 + flip")
        return busy

    def witness_ok(self, result, predicate: str) -> bool:
        """Replay the witness over the 2d equally likely noise events."""
        d, L = self.D, self.L
        expected = Fraction(1, d) if predicate == "lenient" else Fraction(1, 2 * d)
        commit, reveal, bit = result.commit_point, result.reveal_point, result.reveal_bit
        hits = 0
        for j in range(d):
            for m in (1, 2):
                bumped = list(commit)
                bumped[j] += m
                if bumped[j] <= L + 1 and self.h.fb.lattice.verify_reveal(
                    self.params, bumped, bit, reveal, predicate=predicate
                ):
                    hits += 1
        return (
            result.probability == expected
            and Fraction(hits, 2 * d) == result.probability
            and bit == parity(reveal) != parity(commit)
        )


class Sampling:
    """Monte Carlo `simulate` runs, engine sessions and the twirl checks.

    The seed draws the `--seed` of each command, the honest sessions' bits
    and the generator seeds of both session batches.
    """

    D, L = 4, 16
    sizes = [(D, L)]

    def __init__(self, seed: int, harness, params) -> None:
        fb = harness.fb
        self.h = harness
        self.params = params[(self.D, self.L)]
        rng = np.random.default_rng(seed)
        s = [int(x) for x in rng.integers(0, 2**31, size=6)]
        trials = ["--trials", str(MC_TRIALS)]
        self.simulate = [
            ["simulate", "--protocol", "lattice", "--d", str(self.D), "--L", str(self.L),
             *trials, "--seed", str(s[0])],
            ["simulate", "--protocol", "four-symbol", *trials, "--seed", str(s[1])],
            ["simulate", "--protocol", "continuous", "--alpha", "0.5", *trials,
             "--seed", str(s[2])],
        ]
        self.twirl = [
            ["twirl-check", "--group", "z64"],
            ["twirl-check", "--group", "haar", "--samples", str(HAAR_SAMPLES),
             "--seed", str(s[3])],
        ]
        self.honest_bits = [int(b) for b in rng.integers(0, 2, size=SESSIONS)]
        self.honest_seed, self.cheat_seed = s[4], s[5]
        # the cheating strategy is an input: the lenient flip witness
        witness = fb.analysis.binding_search(self.params, "lenient")
        self.cheat_bit = witness.reveal_bit
        self.cheat_reveal = witness.reveal_point
        self.cheat_payload = fb.lattice.encode(self.params, witness.commit_point)

    def round(self) -> float:
        busy = 0.0
        for args in self.simulate:
            out, wall = self.h.cli(args)
            busy += wall
            if out is not None:
                self.h.check(self.simulate_ok(args[2], parse_report(out)), f"simulate {args[2]}")
        busy += self.honest_sessions()
        busy += self.cheat_sessions()
        for args in self.twirl:
            out, wall = self.h.cli(args)
            busy += wall
            if out is not None:
                self.h.check(self.twirl_ok(args[2], parse_report(out)), f"twirl-check {args[2]}")
        return busy

    @staticmethod
    def simulate_ok(protocol: str, r: dict[str, str]) -> bool:
        if protocol in ("lattice", "four-symbol"):
            return samples_field(r["soundness_mc.samples"]) == (MC_TRIALS, MC_TRIALS)
        alpha = Fraction(1, 2)
        closed = {"0": 1 - alpha / 2, "1": (1 + alpha) / 2}
        return all(
            float(r[f"accept_reveal{b}"]) == float(p)
            and samples_field(r[f"accept_reveal{b}_mc.samples"])[1] == MC_TRIALS
            and within_binomial(samples_field(r[f"accept_reveal{b}_mc.samples"])[0],
                                MC_TRIALS, p)
            for b, p in closed.items()
        )

    @staticmethod
    def twirl_ok(group: str, r: dict[str, str]) -> bool:
        if group == "z64":
            return (
                r["transcript_distributions_equal"] == "true"
                and r["relative_frame_uniform"] == "true"
                and r["support_size"] == "64"
                and r["verdict"] == "pass"
            )
        threshold = float(r["threshold"])
        deltas = [float(v) for k, v in r.items() if k.endswith("_max")]
        return r["verdict"] == "pass" and len(deltas) == 6 and max(deltas) < threshold

    def honest_sessions(self) -> float:
        fb = self.h.fb
        rng = np.random.default_rng(self.honest_seed)
        outcomes = []
        t0 = time.perf_counter()
        for b in self.honest_bits:
            spec = fb.lattice.lattice_protocol(self.params, b)
            outcomes.append(fb.engine.run_session(spec, rng).outcome)
        wall = time.perf_counter() - t0
        self.h.attempted += SESSIONS
        for b, outcome in zip(self.honest_bits, outcomes):
            if isinstance(outcome, fb.engine.Aborted) and outcome.reason.startswith("strategy-error"):
                self.h.fail(f"honest session {outcome.reason}")
            else:
                self.h.check(outcome == fb.engine.Accepted(b), f"honest session {outcome}")
        return wall

    def cheat_sessions(self) -> float:
        fb = self.h.fb
        spec = fb.lattice.lattice_protocol(self.params, self.cheat_bit)
        rng = np.random.default_rng(self.cheat_seed)
        outcomes = []
        t0 = time.perf_counter()
        for _ in range(SESSIONS):
            alice = fb.lattice.CheatingLatticeAlice(
                self.params, self.cheat_payload, self.cheat_bit, self.cheat_reveal
            )
            outcomes.append(fb.engine.run_session(spec, rng, alice=alice).outcome)
        wall = time.perf_counter() - t0
        self.h.attempted += SESSIONS
        accepted = outcomes.count(fb.engine.Accepted(self.cheat_bit))
        rejected = sum(outcomes.count(fb.engine.Aborted(r))
                       for r in ("reveal-reject", "commit-decode"))
        if not within_binomial(accepted, SESSIONS, Fraction(1, self.D)):
            # a wrong acceptance rate is the batch's output: every session fails
            self.h.fail(f"cheat acceptance {accepted}/{SESSIONS}", n=SESSIONS, wrong=True)
        elif accepted + rejected < SESSIONS:
            self.h.fail("cheating session ended otherwise than accept or reject",
                        n=SESSIONS - accepted - rejected)
        return wall


WORKLOADS = {
    "exact-analyze": ExactAnalyze,
    "binding-highd": BindingHighD,
    "sampling": Sampling,
}
