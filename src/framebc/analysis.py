"""Exact and Monte Carlo security figures: soundness, concealing, binding.

Everything enumerable is computed in exact rational arithmetic (Fraction);
Monte Carlo estimators exist alongside as an independent route through the
actual channel geometry and must agree with the exact values.  Concealing
uses the distance sum_x |P(x|b=0) - P(x|b=1)|, i.e. twice the total
variation distance; reports carry both to prevent misreading.  The lattice
concealing distance is a closed-form O(d^2) sum that depends on (d, L)
alone, and the codeword binding figures are closed forms in d and the
reveal predicate, proved in `binding_search`.  Lattice soundness is 1 by
proof from `lattice.soundness_floor(d)` up; below it, eps = 0 included, it
enumerates every honest point through the channel geometry, and only that
enumeration is capped by the enumeration budget.  The four-symbol figures
are read from the engine's exact session laws over `simple.four_symbol_mu`.

Binding is formalized as the best acceptance probability over non-adaptive
cheating strategies (commit action fixed up front, reveal pair fixed before
the channel outcome is known, which is all the implemented protocols allow
since Alice hears nothing between commit and reveal).  Two reveal-test
readings are analyzed side by side: "strict" (decoded minus revealed must
be a single bump of 1 or 2) caps the flip cheat at 1/(2d), "lenient"
(additionally accepts a zero difference) at 1/d.  The discrepancy is
reported, never silently resolved.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, NamedTuple

import numpy as np

from . import engine
from .lattice import (
    DEFAULT_ENUM_BUDGET,
    BudgetExceededError,
    LatticeParams,
    _check_size,
    _decode_lex,
    _resolve_predicate,
    accepting_reveals,
    decode_batch,
    decode_commit,
    encode_batch,
    honest_points,
    lattice_mu,
    parity,
    parity_class_size,
    soundness_floor,
)
from .simple import (
    FourSymbolCodeword,
    acceptance_probability,
    arc_accepts,
    codeword_angle,
    four_symbol_channel,
    four_symbol_protocol,
    four_symbol_spec,
    four_symbol_verify,
    interpolation_acceptance,
)
from .so3 import Record

#: two-sided 99% normal quantile, for Wilson intervals: statistics.NormalDist().inv_cdf(0.995)
Z_99 = 2.5758293035489


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise ValueError("need at least one trial")


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score interval at 99% for a binomial proportion."""
    _check_trials(trials)
    z = Z_99
    p_hat = successes / trials
    denom = 1.0 + z * z / trials
    center = (p_hat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p_hat * (1 - p_hat) / trials + z * z / (4 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


class MonteCarloEstimate(Record, NamedTuple("MonteCarloEstimate", [
    ("successes", int), ("trials", int), ("seed", int)
])):
    """A seeded Monte Carlo count: `successes` of `trials` draws from `seed`."""

    @property
    def rate(self) -> float:
        return self.successes / self.trials

    @property
    def interval99(self) -> tuple[float, float]:
        return wilson_interval(self.successes, self.trials)


def _sampler(trials: int, seed: int) -> tuple[np.random.Generator, Iterable[int]]:
    """A Monte Carlo estimator's generator and chunk sizes; a run with no trials is refused.

    Every estimator draws its trials SOUNDNESS_CHUNK at a time, so memory stays bounded.
    """
    _check_trials(trials)
    chunks = range(0, trials, SOUNDNESS_CHUNK)
    return np.random.default_rng(seed), (min(SOUNDNESS_CHUNK, trials - s) for s in chunks)


# ---------------------------------------------------------------------------
# lattice scheme: concealing
# ---------------------------------------------------------------------------

def distribution_distance(
    p: dict, q: dict
) -> Fraction:
    """sum_x |p(x) - q(x)| over the union support (twice total variation)."""
    keys = set(p) | set(q)
    return sum(
        (abs(p.get(k, Fraction(0)) - q.get(k, Fraction(0))) for k in keys),
        Fraction(0),
    )


def concealing_exact(d: int, L: int) -> Fraction:
    """sum_x |P(x|0) - P(x|1)| over Bob's decoded point x, in closed form.

    h_b(x) counts the (parity-b honest point a, noise event (j, m)) pairs
    with a + m*e_j = x, so the distance is sum_x |h0 n1 - h1 n0| / (n0 n1)
    with n_b = |class b| * 2d.  h vanishes unless at most one coordinate of
    x exceeds L-1, which leaves O(d^2) groups of x with equal h:
    - every coordinate below L, k1 of them 1 and k2 in 2..L-1 with values
      summing to parity q: x has parity p = (k1 + q) mod 2, the k1 + k2
      events with m = 1 come from parity 1-p and the k2 with m = 2 from p;
    - one coordinate at L: one event of each parity (m = 1 and m = 2);
    - one coordinate at L+1: only m = 2, from x's own parity.
    """
    _check_size(d, L)
    n0, n1 = (parity_class_size(d, L, b) * 2 * d for b in (0, 1))
    total = 0
    for k1 in range(d + 1):
        for k2 in range(d - k1 + 1):
            ways = math.comb(d, k1) * math.comb(d - k1, k2)
            for q in (0, 1):
                # k2-tuples over 2..L-1 summing to parity q: ((e+o)^k2 + (-1)^q (e-o)^k2) / 2
                # with e and o its even and odd values, e + o = L-2 and e - o = L mod 2
                count = ways * ((L - 2) ** k2 + (-1) ** q * (L % 2) ** k2) // 2
                h = [k2, k2]
                h[1 - (k1 + q) % 2] += k1
                total += count * abs(h[0] * n1 - h[1] * n0)
    total += d * L ** (d - 1) * abs(n1 - n0)
    total += d * (parity_class_size(d - 1, L, (L + 1) % 2) * n1
                  + parity_class_size(d - 1, L, L % 2) * n0)
    return Fraction(total, n0 * n1)


def concealing_bound_exact(d: int, L: int) -> Fraction:
    """Boundary-counting upper bound 1 - ((L-1)/(L+2))^d on the concealing distance."""
    _check_size(d, L)
    return 1 - Fraction(L - 1, L + 2) ** d


# ---------------------------------------------------------------------------
# lattice scheme: binding
# ---------------------------------------------------------------------------

class BindingSearchResult(Record, NamedTuple("BindingSearchResult", [
    ("probability", Fraction), ("commit_point", tuple[int, ...]),
    ("reveal_point", tuple[int, ...]), ("reveal_bit", int),
])):
    """The best flip cheat's acceptance probability and its witness."""


def _flip_share(params: LatticeParams, predicate: str | None) -> Fraction:
    """The best flip's share of the 2d noise events: 2 under lenient, 1 under strict."""
    _check_size(params.d, params.L)
    return Fraction(2 if _resolve_predicate(params, predicate) == "lenient" else 1, 2 * params.d)


def binding_search(
    params: LatticeParams, predicate: str | None = None
) -> BindingSearchResult:
    """Best flip cheat over all codebook commit points and opposite-parity reveals.

    Model: Alice commits a codeword c in {0..L+1}^d.  Each of the 2d equally
    likely noise events (j, m), m in {1, 2}, decodes to c + m*e_j when that
    stays in the codebook and aborts otherwise.  Bob accepts (b, a) when a
    is in {0..L-1}^d, parity(a) = b and c + m*e_j - a is in S = {e_k, 2e_k}
    (strict), plus 0 (lenient).  A reveal wins the share of events accepting it.

    Proof of the closed form, with delta = c - a, so that a decodable event
    (j, m) accepts exactly when delta + m*e_j is in S:
    - delta = 0 (c's own parity): every decodable event accepts, at most 2d.
    - delta = delta_p*e_p: only j = p can accept, so at most 2 events; under
      strict, m = 1 and m = 2 both accepting needs delta_p = 0, so at most 1.
    - delta on {p, q}: (j, m) needs m = -delta_j and the other entry in
      {1, 2}, so j = p and j = q need opposite signs of delta_q: at most 1.
    - wider support: no event accepts.
    So a flip (delta != 0) wins at most 2 events under lenient, 1 under
    strict.  From c = 0 all 2d events decode (2 <= L+1), and the reveal e_p
    (valid as L >= 2) is accepted by (p, 1) and (p, 2) under lenient, by
    (p, 2) under strict; any other odd reveal leaves delta an entry below 0
    that no event clears, so exactly the e_p reach the maximum.

    Ties go to the first commit in lexicographic order, then its smallest
    reveal: commit 0, reveal e_{d-1} = (0, ..., 0, 1), bit 1.  Only d and
    the predicate are read; L is checked to be at least 2.
    """
    reveal = (0,) * (params.d - 1) + (1,)
    return BindingSearchResult(_flip_share(params, predicate), (0,) * params.d, reveal, 1)


def binding_sum_max(
    params: LatticeParams, predicate: str | None = None
) -> tuple[Fraction, tuple[int, ...]]:
    """Max over commit points of best-reveal-0 plus best-reveal-1 acceptance.

    By `binding_search`'s proof, c's own parity wins at most all 2d events
    and the other at most the best flip; from commit 0, the first maximum,
    the reveal 0 wins all 2d.  So the sum is 1 plus the flip share.
    """
    return 1 + _flip_share(params, predicate), (0,) * params.d


class FinitePrecisionBinding(Record, NamedTuple("FinitePrecisionBinding", [
    ("anchor", tuple[int, ...] | None),
    ("best_reveal", dict[int, tuple[Fraction, tuple[int, ...] | None]]),
    ("flip_probability", Fraction), ("overall", Fraction),
])):
    """Binding figures for an arbitrary committed vector.

    anchor is the codeword the vector decodes to directly (None when it is
    farther than eps from every codeword).  best_reveal maps each revealed
    bit to its best acceptance probability and the achieving lattice point.
    flip_probability is the best reveal of the bit opposite the anchor's
    parity, or the overall best when there is no anchor.
    """


def binding_search_finite_precision(
    params: LatticeParams, w: np.ndarray, predicate: str | None = None
) -> FinitePrecisionBinding:
    """Exact acceptance probabilities when Alice commits an arbitrary unit vector.

    Pushes w through each of the 2d noise rotations, decodes with the real
    tolerance-ball rule, and scores every reveal that could accept at least
    one event.  A vector within eps of a codeword behaves exactly like that
    codeword; vectors beyond eps of every codeword decode nowhere under
    almost every rotation and score zero, except for the thin family sitting
    within eps of the codebook's out-of-range formal extension, which can
    reach the same 1/d (lenient) and 1/(2d) (strict) caps as codeword
    commits.  That off-codebook vectors never exceed those caps is checked
    on sampled angles only, not proved.  `anchor` decodes w itself,
    unrotated; when it decodes nowhere, `flip_probability` falls back to
    `overall`, the best reveal of either bit, so a vector just outside every
    tolerance ball whose rotated copies still decode can read above the caps.
    """
    w = np.asarray(w, dtype=float)
    if not abs(float(np.linalg.norm(w)) - 1.0) <= 1e-9:
        raise ValueError("committed payload must be a unit vector")
    points, ok = decode_batch(params, lattice_mu(params).rotations @ w)
    reveals, in_range = accepting_reveals(params, points, predicate)
    # np.unique sorts the reveals, so the first maximum is the smallest reveal reaching it
    reveals, counts = np.unique(reveals[in_range & ok[:, None]], axis=0, return_counts=True)
    best = dict.fromkeys((0, 1), (Fraction(0), None))
    bits = reveals.sum(axis=1) % 2
    for bit in (0, 1):
        rows = np.flatnonzero(bits == bit)
        if len(rows):
            k = rows[counts[rows].argmax()]
            best[bit] = (Fraction(int(counts[k]), 2 * params.d), tuple(reveals[k].tolist()))

    anchor_arr = decode_commit(params, w)
    anchor = None if anchor_arr is None else tuple(int(x) for x in anchor_arr)
    overall = max(best[0][0], best[1][0])
    if anchor is not None:
        flip = best[1 - parity(anchor)][0]
    else:
        flip = overall
    return FinitePrecisionBinding(
        anchor=anchor, best_reveal=best, flip_probability=flip, overall=overall
    )


# ---------------------------------------------------------------------------
# lattice scheme: soundness
# ---------------------------------------------------------------------------

#: honest points encoded per soundness chunk; each is decoded under all 2d events
#: in the exact enumeration and under one drawn event in the Monte Carlo estimate
SOUNDNESS_CHUNK = 4096


def _lex_weights(d: int, L: int) -> np.ndarray:
    """Place values of the lexicographic index lex(x) = sum_j x_j (L+2)^(d-1-j) of {0..L+1}^d."""
    return (L + 2) ** np.arange(d - 1, -1, -1, dtype=np.int64)


def _reveal_steps(params: LatticeParams) -> np.ndarray:
    """The differences lex(decoded) - lex(a) at which Bob accepts an honest reveal of a.

    An honest reveal (parity(a), a), a in {0..L-1}^d, passes `verify_reveal`
    exactly when decoded = a + m*e_k, m in {1, 2} (or decoded = a, under
    lenient).  All of these lie in the codebook, on which lex is a
    bijection, so the test is lex(decoded) - lex(a) in {m*(L+2)^(d-1-k)}
    (plus 0 under lenient): 2d distinct values, since L+2 > 2.  The shifts
    are read from `accepting_reveals`, whose reveals from the origin are
    the negated accepted differences decoded - a.
    """
    reveals, _ = accepting_reveals(params, np.zeros(params.d, dtype=np.int64))
    return -(reveals @ _lex_weights(params.d, params.L))


def _honest_accepts(
    params: LatticeParams, points: np.ndarray, lex: np.ndarray, rotations: np.ndarray
) -> np.ndarray:
    """Bob's verdict on the honest reveals of `points`, shape (n, d), sent through `rotations`.

    Encodes the points, rotates the payloads by one stacked product, decodes
    each received vector to the lexicographic index of its codeword
    (`lattice._decode_lex`) and tests it with `_reveal_steps` against `lex`,
    the points' own indices.  `rotations` broadcasts against the n
    payloads: shape (k, 1, 3, 3) sends every point through each of k
    rotations, with a verdict of shape (k, n), and shape (n, 3, 3) sends
    point i through rotation i.
    """
    payloads = encode_batch(params, points)
    # the stacked matmul computes each row exactly as rotation @ payload does
    received = (rotations @ payloads[:, :, None])[..., 0]
    decoded, ok = _decode_lex(params, received)
    return ok & np.isin(decoded - lex, _reveal_steps(params))


def lattice_soundness_exact(
    params: LatticeParams, budget: int = DEFAULT_ENUM_BUDGET
) -> Fraction:
    """Exact honest acceptance through the channel geometry, b uniform.

    From `lattice.soundness_floor(d)` up, it is 1 by proof: the floor's
    docstring shows that every honest point, under every noise event,
    decodes to itself plus the event's bump, whatever the summation order
    of the rotation and the table angles, so nothing is decoded.  Below
    the floor, eps = 0 included, rounding decides, and
    `_soundness_enumerated` counts every honest decode; a size it could not
    run within the budget is refused before it starts.
    """
    d, L = params.d, params.L
    if params.eps_meas >= soundness_floor(d):
        return Fraction(1)
    cost = (L**d) * 2 * d
    if cost > budget:
        raise BudgetExceededError(
            f"soundness enumeration size {cost} exceeds budget {budget}"
        )
    return _soundness_enumerated(params)


def _soundness_enumerated(params: LatticeParams) -> Fraction:
    """`lattice_soundness_exact` by enumerating {0..L-1}^d against the full noise support.

    Walks the honest points in lexicographic order, SOUNDNESS_CHUNK at a
    time, and sends each chunk through `_honest_accepts` under all 2d
    rotations rot_z(m*theta_j) at once, which verifies the honest reveal
    (its own parity and point).  Counts acceptances per parity class and
    returns the exact acceptance probability with b uniform.
    """
    d, L = params.d, params.L
    rotations = lattice_mu(params).rotations
    weights = _lex_weights(d, L)
    accepted = [0, 0]
    for start in range(0, L**d, SOUNDNESS_CHUNK):
        flat = np.arange(start, min(start + SOUNDNESS_CHUNK, L**d))
        points = np.stack(np.unravel_index(flat, (L,) * d), axis=1)
        ok = _honest_accepts(params, points, points @ weights, rotations[:, None])
        bits = points.sum(axis=1) % 2
        for b in (0, 1):
            accepted[b] += int(np.count_nonzero(ok & (bits == b)))
    # P(accept) = 1/2 * sum_b accepted_b / (|class b| * 2d)
    n0, n1 = (parity_class_size(d, L, b) * 2 * d for b in (0, 1))
    return Fraction(accepted[0] * n1 + accepted[1] * n0, 2 * n0 * n1)


def lattice_soundness_mc(
    params: LatticeParams, trials: int = 10_000, seed: int = 42
) -> MonteCarloEstimate:
    """Seeded honest acceptance rate over the full geometric path.

    Trials run SOUNDNESS_CHUNK at a time.  Each chunk of n draws, from one
    generator seeded with `seed`, in this order: the n committed bits, the
    honest points (by `honest_points`, as a session's `commit` draws them),
    and the n noise events.  A noise event is a row of the channel's 2d
    `rotations`, row 2j + m - 1 for the event (j, m).  `_honest_accepts` then
    encodes, rotates, decodes and verifies every trial as a session does it,
    row by row in arrays.
    """
    rng, chunks = _sampler(trials, seed)
    rotations = lattice_mu(params).rotations
    weights = _lex_weights(params.d, params.L)
    successes = 0
    for n in chunks:
        bits = rng.integers(2, size=n)
        points = honest_points(params, bits, rng)
        events = rng.integers(len(rotations), size=n)
        ok = _honest_accepts(params, points, points @ weights, rotations[events])
        successes += int(np.count_nonzero(ok))
    return MonteCarloEstimate(successes=successes, trials=trials, seed=seed)


# ---------------------------------------------------------------------------
# four-symbol scheme figures
# ---------------------------------------------------------------------------

def four_symbol_concealing_exact() -> Fraction:
    """sum_x |P(x|0) - P(x|1)| over Bob's commit message x, a uniform, from `four_symbol_mu`."""
    laws = ({}, {})
    for codeword in map(FourSymbolCodeword.from_symbol, range(4)):
        for view, p in engine.bob_wire_view_distribution(four_symbol_protocol(codeword)).items():
            laws[codeword.b][view[0]] = laws[codeword.b].get(view[0], Fraction(0)) + p / 2
    return distribution_distance(*laws)


@functools.cache
def _accept_probability(commit_symbol: int, reveal: FourSymbolCodeword) -> Fraction:
    """Probability that Bob accepts `reveal` after Alice sends `commit_symbol`.

    It is the Accepted mass of the engine's exact session law over
    `four_symbol_mu`, enumerated once per pair and process.
    """
    law = engine.transcript_distribution(four_symbol_spec(commit_symbol, reveal))
    return sum((p for key, p in law.items() if key[-1] == engine.Accepted(reveal.b)), Fraction(0))


def four_symbol_soundness_exact() -> Fraction:
    return sum(_accept_probability(s, FourSymbolCodeword.from_symbol(s)) for s in range(4)) / 4


def four_symbol_flip_cheat() -> tuple[Fraction, tuple[int, FourSymbolCodeword]]:
    """Best passive flip: commit a codeword, reveal one with the other bit.

    The witness is the first maximum, by commit symbol and then reveal index a.
    """
    flips = [(s, FourSymbolCodeword(a, 1 - s % 2)) for s in range(4) for a in (0, 1)]
    witness = max(flips, key=lambda flip: _accept_probability(*flip))
    return _accept_probability(*witness), witness


def four_symbol_sum_max() -> Fraction:
    """Max over commit symbols of best-reveal-0 plus best-reveal-1."""
    return max(
        sum(max(_accept_probability(s, FourSymbolCodeword(a, b)) for a in (0, 1)) for b in (0, 1))
        for s in range(4)
    )


def four_symbol_soundness_mc(trials: int = 10_000, seed: int = 42) -> MonteCarloEstimate:
    """Seeded honest acceptance rate; each chunk draws its bits a, then b, then the channel."""
    rng, chunks = _sampler(trials, seed)
    successes = 0
    for n in chunks:
        symbols = 2 * rng.integers(2, size=n) + rng.integers(2, size=n)
        received = four_symbol_channel(symbols, rng)
        for s in range(4):
            honest = FourSymbolCodeword.from_symbol(s)
            successes += int(np.count_nonzero(four_symbol_verify(received[symbols == s], honest)))
    return MonteCarloEstimate(successes=successes, trials=trials, seed=seed)


# ---------------------------------------------------------------------------
# continuous scheme figures
# ---------------------------------------------------------------------------

class ContinuousCurveRow(Record, NamedTuple("ContinuousCurveRow", [
    ("alpha", float), ("p0_exact", float), ("p1_exact", float),
    ("p0_mc", MonteCarloEstimate | None), ("p1_mc", MonteCarloEstimate | None),
])):
    """One alpha of the interpolation curve: exact acceptance, optional Monte Carlo."""

    def __new__(cls, alpha, p0_exact, p1_exact, p0_mc=None, p1_mc=None) -> ContinuousCurveRow:
        return super().__new__(cls, alpha, p0_exact, p1_exact, p0_mc, p1_mc)


def continuous_acceptance_mc(
    alpha: float, reveal_b: int, trials: int = 10_000, seed: int = 42
) -> MonteCarloEstimate:
    """Seeded acceptance rate of reveal_b when Alice sends the angle alpha*pi/2.

    The channel shift is uniform on [0, pi]; drawn in chunks, it gives the
    same doubles as one scalar draw per trial.
    """
    rng, chunks = _sampler(trials, seed)
    successes = 0
    for n in chunks:
        shifts = rng.uniform(0.0, math.pi, size=n)
        accepted = arc_accepts(alpha * math.pi / 2.0 + shifts, codeword_angle(0, reveal_b))
        successes += int(np.count_nonzero(accepted))
    return MonteCarloEstimate(successes, trials, seed)


def cheat_curve_continuous(
    alphas: Iterable[float],
    trials: int = 10_000,
    seed: int = 42,
    with_mc: bool = True,
) -> list[ContinuousCurveRow]:
    """Exact interpolation-attack curve with optional Monte Carlo cross-check.

    Row i samples its reveal-0 and reveal-1 acceptance with seeds seed + 2i
    and seed + 2i + 1.
    """
    rows = []
    for i, alpha in enumerate(alphas):
        alpha = float(alpha)
        p0, p1 = interpolation_acceptance(alpha)
        mc0 = mc1 = None
        if with_mc:
            mc0 = continuous_acceptance_mc(alpha, 0, trials, seed + 2 * i)
            mc1 = continuous_acceptance_mc(alpha, 1, trials, seed + 2 * i + 1)
        rows.append(ContinuousCurveRow(alpha, p0, p1, mc0, mc1))
    return rows


def continuous_soundness_exact() -> float:
    """Honest acceptance probability, closed form (arcs start at the codeword)."""
    return min(
        acceptance_probability(codeword_angle(a, b), codeword_angle(a, b))
        for a in (0, 1)
        for b in (0, 1)
    )


# ---------------------------------------------------------------------------
# security reports
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, Fraction):
        return repr(float(value))
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _mode_config(mode: str, trials: int, seed: int) -> tuple[tuple[str, object], ...]:
    """Config rows for the run mode; sampling inputs read 0 in exact mode."""
    if mode not in ("exact", "monte-carlo"):
        raise ValueError("mode must be exact or monte-carlo")
    sampled = mode != "exact"
    return (
        ("mode", mode), ("trials", trials if sampled else 0), ("seed", seed if sampled else 0)
    )


class SecurityReport(Record, NamedTuple("SecurityReport", [
    ("title", str), ("config", tuple[tuple[str, object], ...]),
    ("results", tuple[tuple[str, object], ...]), ("notes", tuple[str, ...]),
])):
    """Self-describing, byte-deterministic `key = value` report.

    Every `framebc` report but the sweep tables is one of these; `title`
    names the report ("security", "twirl equivalence", ...); config
    rows echo every resolved input (including defaulted seeds);
    result rows carry a decimal rendering and, for exactly computed values,
    an additional `.exact` row with the rational.  Key order is fixed, so
    identical inputs serialize to identical bytes.
    """

    def __new__(cls, title, config, results, notes=()) -> SecurityReport:
        return super().__new__(cls, title, config, results, notes)

    def to_text(self) -> str:
        lines = [f"# framebc {self.title} report", "schema = 1", "[config]"]
        for key, value in self.config:
            lines.append(f"{key} = {_fmt(value)}")
        lines.append("[results]")
        for key, value in self.results:
            if isinstance(value, Fraction):
                lines.append(f"{key} = {_fmt(value)}")
                lines.append(f"{key}.exact = {value}")
            elif isinstance(value, MonteCarloEstimate):
                lo, hi = value.interval99
                lines.append(f"{key} = {_fmt(value.rate)}")
                lines.append(
                    f"{key}.wilson99 = [{_fmt(lo)}, {_fmt(hi)}]"
                )
                lines.append(
                    f"{key}.samples = {value.successes}/{value.trials} seed={value.seed}"
                )
            else:
                lines.append(f"{key} = {_fmt(value)}")
        if self.notes:
            lines.append("[notes]")
            lines.extend(self.notes)
        return "\n".join(lines) + "\n"


def lattice_report(
    params: LatticeParams,
    *,
    mode: str = "exact",
    trials: int = 10_000,
    seed: int = 42,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> SecurityReport:
    """Full security report for a lattice parameter set.

    mode "exact" computes the exact figures, "monte-carlo" simulates
    soundness only.  Exact soundness is 1 by proof from
    `lattice.soundness_floor(d)` up, and below the floor enumerates the
    honest points, refused past `budget` (see `lattice_soundness_exact`);
    the method row says which.  Concealing, its bound and both binding
    figures are closed forms in (d, L) and the predicate.
    """
    config = (
        ("protocol", "lattice"),
        ("d", params.d),
        ("L", params.L),
        ("eps_meas", params.eps_meas),
        ("predicate", params.predicate),
        ("min_gap", params.basis.min_gap),
        ("separation", params.basis.separation),
    ) + _mode_config(mode, trials, seed)
    results: list[tuple[str, object]] = []
    notes: list[str] = []
    if mode == "exact":
        # the budgeted enumeration first, so an over-budget size does nothing else
        soundness = lattice_soundness_exact(params, budget=budget)
        enumerated = params.eps_meas < soundness_floor(params.d)
        eps = concealing_exact(params.d, params.L)
        bound = concealing_bound_exact(params.d, params.L)
        flip_strict = binding_search(params, "strict").probability
        flip_lenient = binding_search(params, "lenient").probability
        sum_max, _ = binding_sum_max(params)
        results += [
            ("soundness", soundness),
            ("concealing_exact", eps),
            ("concealing_tv", eps / 2),
            ("concealing_bound", bound),
            ("binding_flip_strict", flip_strict),
            ("binding_flip_lenient", flip_lenient),
            ("binding_sum_max", sum_max),
            ("method", "exact-enumeration" if enumerated else "closed-form"),
        ]
        if params.L >= 4 and eps > bound:
            results.append(("concealing_bound_violated", True))
            notes.append(
                "exact concealing distance exceeds the boundary-counting bound"
            )
        notes.append(
            "reveal-test readings differ: flip cheat is "
            f"{flip_strict} under strict, {flip_lenient} under lenient"
        )
    else:
        results.append(("soundness_mc", lattice_soundness_mc(params, trials, seed)))
        results.append(("method_mc", f"monte-carlo trials={trials} seed={seed}"))
    return SecurityReport("security", config, tuple(results), tuple(notes))


def four_symbol_report(
    *, mode: str = "exact", trials: int = 10_000, seed: int = 42
) -> SecurityReport:
    config = (("protocol", "four-symbol"),) + _mode_config(mode, trials, seed)
    results: list[tuple[str, object]] = []
    if mode == "exact":
        flip, _ = four_symbol_flip_cheat()
        results += [
            ("soundness", four_symbol_soundness_exact()),
            ("concealing_exact", four_symbol_concealing_exact()),
            ("binding_flip", flip),
            ("binding_sum_max", four_symbol_sum_max()),
            ("method", "exact-enumeration"),
        ]
    else:
        results.append(("soundness_mc", four_symbol_soundness_mc(trials, seed)))
        results.append(("method_mc", f"monte-carlo trials={trials} seed={seed}"))
    return SecurityReport("security", config, tuple(results))


def continuous_report(
    alpha: float = 0.5,
    *,
    mode: str = "exact",
    trials: int = 10_000,
    seed: int = 42,
) -> SecurityReport:
    config = (("protocol", "continuous"), ("alpha", float(alpha))) + _mode_config(
        mode, trials, seed
    )
    sampled = mode != "exact"
    (row,) = cheat_curve_continuous([alpha], trials, seed, with_mc=sampled)
    results: list[tuple[str, object]] = [
        ("soundness", continuous_soundness_exact()),
        ("concealing_exact", Fraction(0)),
        ("accept_reveal0", row.p0_exact),
        ("accept_reveal1", row.p1_exact),
        ("accept_sum", row.p0_exact + row.p1_exact),
        ("binding_passive_flip", Fraction(1, 2)),
        ("method", "closed-form"),
    ]
    if sampled:
        results.append(("accept_reveal0_mc", row.p0_mc))
        results.append(("accept_reveal1_mc", row.p1_mc))
        results.append(("method_mc", f"monte-carlo trials={trials} seed={seed}"))
    notes = (
        "concealing is exact: the received-direction law is uniform for both bits",
    )
    return SecurityReport("security", config, tuple(results), notes)
