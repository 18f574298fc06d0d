"""Two warm-up commitment schemes with axis-vector codewords.

Both schemes commit by sending one of the four planar axis vectors
{+x, +y, -x, -y}, indexed by the symbol 2a + b for a random index bit a and
the committed bit b.  The discrete scheme runs over a channel that leaves
the symbol alone or advances it by one quadrant, each with probability 1/2;
the continuous scheme runs over a rotation about z by an angle uniform on
[0, pi].  Bob accepts a reveal exactly when the vector he received has
nonzero likelihood under the revealed codeword, which for the continuous
channel is the closed half-plane arc of length pi starting at the codeword
angle.

Both are perfectly sound and perfectly concealing but only 1/2-binding, and
the continuous one admits a one-parameter interpolation attack: committing
the vector at angle alpha*pi/2 lets Alice reveal 0 with acceptance
probability 1 - alpha/2 and 1 with probability (1 + alpha)/2, hence either
bit with probability 3/4 at alpha = 1/2.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import engine
from .so3 import (
    TAU,
    FiniteSupport,
    UniformSegment,
    enumerate_support,
    identity_rotation,
    plane_angle,
    planar_unit,
    rot_z,
)

QUARTER = math.pi / 2.0

#: maximum out-of-plane component accepted after normalization
PLANE_TOL = 1e-6


# ---------------------------------------------------------------------------
# four-symbol scheme
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FourSymbolCodeword:
    """Codeword indexed by (a, b); the wire symbol is 2a + b."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if self.a not in (0, 1) or self.b not in (0, 1):
            raise ValueError("codeword bits must be 0 or 1")

    @property
    def symbol(self) -> int:
        return 2 * self.a + self.b

    @staticmethod
    def from_symbol(symbol: int) -> "FourSymbolCodeword":
        if symbol not in (0, 1, 2, 3):
            raise ValueError("symbol must be in 0..3")
        return FourSymbolCodeword(a=symbol // 2, b=symbol % 2)


def symbol_vector(symbol: int) -> np.ndarray:
    """Axis vector for a symbol: 0 -> +x, 1 -> +y, 2 -> -x, 3 -> -y."""
    return planar_unit(symbol * QUARTER)


def _unit_in_plane(v: np.ndarray) -> np.ndarray | None:
    """v normalised, or None when v is near zero or leaves the z = 0 plane."""
    v = np.asarray(v, dtype=float)
    norm = float(np.linalg.norm(v))
    if norm < 1e-12:
        return None
    u = v / norm
    if abs(u[2]) > PLANE_TOL:
        return None
    return u


def decode_symbol(v: np.ndarray) -> int | None:
    """Nearest axis symbol, or None when v is not essentially an axis vector."""
    u = _unit_in_plane(v)
    if u is None:
        return None
    best = int(np.argmax([float(u @ symbol_vector(s)) for s in range(4)]))
    if float(np.linalg.norm(u - symbol_vector(best))) > PLANE_TOL:
        return None
    return best


def four_symbol_channel(symbols, rng: np.random.Generator) -> np.ndarray:
    """Symbol channel: outputs i or i+1 (mod 4), each with probability 1/2.

    Passes every symbol i of an array independently, one draw per symbol.
    """
    symbols = np.asarray(symbols)
    if not np.isin(symbols, (0, 1, 2, 3)).all():
        raise ValueError("channel input must be in 0..3")
    return (symbols + rng.integers(2, size=symbols.shape)) % 4


def four_symbol_channel_law(i: int) -> dict[int, Fraction]:
    return {i % 4: Fraction(1, 2), (i + 1) % 4: Fraction(1, 2)}


def four_symbol_mu() -> FiniteSupport:
    """Rotation realization: identity or a quarter turn about z, each 1/2."""
    return FiniteSupport(
        (
            (identity_rotation(), Fraction(1, 2)),
            (rot_z(QUARTER), Fraction(1, 2)),
        )
    )


def four_symbol_rotation_law(i: int) -> dict[int, Fraction]:
    """Exact symbol law induced by sending symbol i through the rotation channel."""
    law: dict[int, Fraction] = {}
    for rotation, prob in enumerate_support(four_symbol_mu()):
        out = decode_symbol(rotation @ symbol_vector(i))
        if out is None:
            raise RuntimeError("rotation realization left the codeword set")
        law[out] = law.get(out, Fraction(0)) + prob
    return law


def four_symbol_verify(received, revealed: FourSymbolCodeword):
    """Accept iff the received symbol has nonzero probability under the reveal.

    `received` may be an array of symbols, judged elementwise.
    """
    return (received - revealed.symbol) % 4 <= 1


def four_symbol_received_distribution(b: int) -> dict[int, Fraction]:
    """Exact law of Bob's received symbol given the committed bit."""
    dist: dict[int, Fraction] = {}
    for a in (0, 1):
        law = four_symbol_channel_law(FourSymbolCodeword(a, b).symbol)
        for symbol, prob in law.items():
            dist[symbol] = dist.get(symbol, Fraction(0)) + Fraction(1, 2) * prob
    return dist


def four_symbol_protocol(codeword: FourSymbolCodeword) -> engine.ProtocolSpec:
    return engine.commit_reveal_protocol(
        four_symbol_mu(),
        engine.commit_reveal_script(
            symbol_vector(codeword.symbol), codeword.b, codeword.a
        ),
        decode_symbol,
        lambda received, b, a: four_symbol_verify(
            received, FourSymbolCodeword(operator.index(a), b)
        ),
    )


# ---------------------------------------------------------------------------
# continuous-angle scheme
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InterpolationStrategy:
    """Cheating commit between the b=0 and b=1 codewords, at angle alpha*pi/2."""

    alpha: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")

    @property
    def angle(self) -> float:
        return self.alpha * QUARTER


def continuous_mu() -> UniformSegment:
    return UniformSegment(math.pi)


def codeword_angle(a: int, b: int) -> float:
    return (2 * a + b) * QUARTER


def continuous_receive_angle(v: np.ndarray) -> float | None:
    """Planar angle of a received vector; None rejects off-plane payloads."""
    u = _unit_in_plane(v)
    return None if u is None else plane_angle(u)


def arc_accepts(received_angle, codeword_angle_: float):
    """Membership in the closed arc [codeword, codeword + pi] (mod 2*pi).

    `received_angle` may be an array of angles, judged elementwise.
    """
    offset = (received_angle - codeword_angle_) % TAU
    return (offset <= math.pi + 1e-12) | (TAU - offset <= 1e-12)


def acceptance_probability(sent_angle: float, codeword_angle_: float) -> float:
    """Closed-form probability that a uniform [0, pi] shift lands in the arc.

    The shift must move the sent angle into [codeword, codeword + pi]; the
    admissible shifts form one interval whose overlap with [0, pi] has
    length pi - g or g - pi for the angular gap g = codeword - sent mod 2*pi.
    """
    g = (codeword_angle_ - sent_angle) % TAU
    if g <= math.pi:
        return (math.pi - g) / math.pi
    return (g - math.pi) / math.pi


def interpolation_acceptance(alpha: float) -> tuple[float, float]:
    """Acceptance probabilities (reveal 0, reveal 1) for the alpha attack."""
    strategy = InterpolationStrategy(alpha)
    p0 = acceptance_probability(strategy.angle, codeword_angle(0, 0))
    p1 = acceptance_probability(strategy.angle, codeword_angle(0, 1))
    return p0, p1


def quadrant_indicator_distribution(b: int) -> dict[tuple[int, ...], Fraction]:
    """Exact law of the acceptance-indicator vector under honest play.

    The statistic records, for each of the four codewords, whether the
    received direction lies in that codeword's acceptance arc.  Arcs have
    length pi and all breakpoints sit on quadrant boundaries, so the law is
    a finitely supported exact object: the received direction lands in
    quadrant q with some rational probability, and every interior point of
    quadrant q is accepted exactly by the codewords at q-1 and q.
    """
    if b not in (0, 1):
        raise ValueError("bit must be 0 or 1")
    quadrant_mass: dict[int, Fraction] = {q: Fraction(0) for q in range(4)}
    for a in (0, 1):
        c = 2 * a + b
        # uniform shift over [0, pi] covers quadrants c and c+1, half each
        for q in (c % 4, (c + 1) % 4):
            quadrant_mass[q] += Fraction(1, 2) * Fraction(1, 2)
    dist: dict[tuple[int, ...], Fraction] = {}
    for q, mass in quadrant_mass.items():
        if mass == 0:
            continue
        indicator = tuple(1 if k in (q, (q - 1) % 4) else 0 for k in range(4))
        dist[indicator] = dist.get(indicator, Fraction(0)) + mass
    return dist


def continuous_protocol(a: int, b: int) -> engine.ProtocolSpec:
    return engine.commit_reveal_protocol(
        continuous_mu(),
        engine.commit_reveal_script(planar_unit(codeword_angle(a, b)), b, a),
        continuous_receive_angle,
        lambda angle, rb, ra: arc_accepts(
            angle, FourSymbolCodeword(operator.index(ra), rb).symbol * QUARTER
        ),
    )
