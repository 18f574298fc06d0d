import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framebc import engine, simple
from framebc.so3 import planar_unit
from oracles import four_symbol_channel_law, four_symbol_received_distribution


# --- four-symbol scheme ------------------------------------------------------

def test_codeword_symbol_bijection():
    symbols = {simple.FourSymbolCodeword(a, b).symbol for a in (0, 1) for b in (0, 1)}
    assert symbols == {0, 1, 2, 3}
    for s in range(4):
        assert simple.FourSymbolCodeword.from_symbol(s).symbol == s


def test_channel_wraps_at_three():
    rng = np.random.default_rng(0)
    counts = Counter(simple.four_symbol_channel(np.full(10_000, 3), rng).tolist())
    assert set(counts) == {3, 0}
    p, n = 0.5, 10_000
    sigma = math.sqrt(p * (1 - p) / n)
    for value in counts.values():
        assert abs(value / n - p) <= 3 * sigma


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_channel_moves_zero_or_one(i, seed):
    # one integers(2) draw per symbol, in order
    out = simple.four_symbol_channel([i] * 8, np.random.default_rng(seed))
    steps = np.random.default_rng(seed).integers(2, size=8)
    assert out.tolist() == ((i + steps) % 4).tolist()


@pytest.mark.parametrize("symbols", [[4], [0, -1], [1.5], [[0, 1], [2, 7]]])
def test_channel_rejects_non_symbols(symbols):
    with pytest.raises(ValueError, match="channel input must be in 0..3"):
        simple.four_symbol_channel(symbols, np.random.default_rng(0))


class FixedStep:
    """An rng stand-in whose every integers(2) draw is `step`."""

    def __init__(self, step):
        self.step = step

    def integers(self, high, size):
        assert high == 2
        return np.full(size, self.step)


def test_channel_sampler_matches_mu_through_engine():
    # the sampler's one-step law, each of its two integers(2) draws taken with
    # probability 1/2, is mu's symbol law read from Bob's exact wire view
    for s in range(4):
        sampled = {}
        for k in (0, 1):
            out = int(simple.four_symbol_channel([s], FixedStep(k))[0])
            sampled[out] = sampled.get(out, Fraction(0)) + Fraction(1, 2)
        spec = simple.four_symbol_protocol(simple.FourSymbolCodeword.from_symbol(s))
        through_mu = {}
        for view, p in engine.bob_wire_view_distribution(spec).items():
            out = simple.decode_symbol(np.array(view[0][2]))
            through_mu[out] = through_mu.get(out, Fraction(0)) + p
        assert sampled == through_mu == four_symbol_channel_law(s)
        assert sampled == {(s + k) % 4: Fraction(1, 2) for k in (0, 1)}


def test_verify_on_channel_support():
    assert simple.four_symbol_verify(1, simple.FourSymbolCodeword.from_symbol(0))
    assert not simple.four_symbol_verify(2, simple.FourSymbolCodeword.from_symbol(0))
    assert simple.four_symbol_verify(0, simple.FourSymbolCodeword.from_symbol(3))


def test_verify_judges_symbol_arrays_elementwise():
    received = np.arange(-4, 8)
    for s in range(4):
        reveal = simple.FourSymbolCodeword.from_symbol(s)
        expected = [r % 4 in (s, (s + 1) % 4) for r in received.tolist()]
        assert simple.four_symbol_verify(received, reveal).tolist() == expected
        assert [simple.four_symbol_verify(r, reveal) for r in received.tolist()] == expected


def test_honest_acceptance_exact():
    for a in (0, 1):
        for b in (0, 1):
            codeword = simple.FourSymbolCodeword(a, b)
            law = four_symbol_channel_law(codeword.symbol)
            assert all(simple.four_symbol_verify(r, codeword) for r in law)


def test_flip_cheat_exactly_half():
    # enumerate every commit symbol and every flipped reveal
    best = Fraction(0)
    for s in range(4):
        law = four_symbol_channel_law(s)
        for reveal_a in (0, 1):
            reveal = simple.FourSymbolCodeword(reveal_a, 1 - s % 2)
            prob = sum(
                (p for r, p in law.items() if simple.four_symbol_verify(r, reveal)),
                Fraction(0),
            )
            best = max(best, prob)
    assert best == Fraction(1, 2)


def test_four_symbol_concealing_perfect():
    d0 = four_symbol_received_distribution(0)
    d1 = four_symbol_received_distribution(1)
    assert d0 == d1
    assert d0 == {s: Fraction(1, 4) for s in range(4)}


def test_decode_symbol_rejects_junk():
    assert simple.decode_symbol(np.array([0.0, 0.0, 1.0])) is None
    assert simple.decode_symbol(np.array([1.0, 1.0, 0.0])) is None
    assert simple.decode_symbol(2.0 * simple.symbol_vector(2)) == 2
    for junk in ([math.nan, 0.0, 0.0], [math.inf, 0.0, 0.0], [0.0, -math.inf, 0.0]):
        assert simple.decode_symbol(np.array(junk)) is None
        assert simple.continuous_receive_angle(np.array(junk)) is None


# --- continuous scheme -------------------------------------------------------

def test_honest_continuous_always_accepts():
    for b in (0, 1):
        codeword = simple.codeword_angle(0, b)
        shifts = np.linspace(0.0, math.pi, 101)
        for shift in shifts:
            assert simple.arc_accepts(codeword + float(shift), codeword) is True
        assert simple.arc_accepts(codeword + shifts, codeword).all()


def test_arc_rejects_shifts_outside_channel_range():
    # the channel shifts by [0, pi]; a shift just outside it leaves the honest arc
    for b in (0, 1):
        codeword = simple.codeword_angle(0, b)
        shifts = np.array([-0.1, math.pi + 0.1])
        for shift in shifts:
            assert simple.arc_accepts(codeword + float(shift), codeword) is False
        assert not simple.arc_accepts(codeword + shifts, codeword).any()


def test_interpolation_closed_forms():
    p0, p1 = simple.interpolation_acceptance(0.0)
    assert (p0, p1) == (1.0, 0.5)
    p0, p1 = simple.interpolation_acceptance(1.0)
    assert (p0, p1) == (0.5, 1.0)
    p0, p1 = simple.interpolation_acceptance(0.5)
    assert p0 == pytest.approx(0.75, abs=1e-15)
    assert p1 == pytest.approx(0.75, abs=1e-15)


def test_acceptance_probability_quadrature_oracle():
    # midpoint-rule integration of the arc indicator over the shift segment
    n = 200_000
    shifts = (np.arange(n) + 0.5) * math.pi / n
    for alpha in (0.0, 0.2, 0.5, 0.8, 1.0):
        sent = alpha * math.pi / 2
        for b in (0, 1):
            exact = simple.acceptance_probability(sent, b * math.pi / 2)
            hits = np.mean(
                ((sent + shifts - b * math.pi / 2) % (2 * math.pi)) <= math.pi
            )
            assert abs(exact - hits) <= 1e-4


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_reveal_probabilities_sum_to_three_halves(alpha):
    p0, p1 = simple.interpolation_acceptance(alpha)
    assert abs(p0 + p1 - 1.5) <= 1e-12


def test_alpha_domain_checked():
    with pytest.raises(ValueError):
        simple.InterpolationStrategy(1.2)
    with pytest.raises(ValueError):
        simple.InterpolationStrategy(-0.1)


def test_continuous_concealing_indicator_law():
    d0 = simple.quadrant_indicator_distribution(0)
    d1 = simple.quadrant_indicator_distribution(1)
    assert d0 == d1
    assert sum(d0.values()) == 1
    # every pattern accepts exactly the two codewords adjacent to the quadrant
    assert all(sum(pattern) == 2 for pattern in d0)


def test_received_direction_law_is_uniform_over_quadrants():
    # the quadrant of the received direction is uniform for both bits, which
    # is the full strength of "Bob's view is independent of b" here: the
    # in-quadrant position is uniform by construction for every codeword
    for b in (0, 1):
        mass = {q: Fraction(0) for q in range(4)}
        for a in (0, 1):
            c = 2 * a + b
            for q in (c % 4, (c + 1) % 4):
                mass[q] += Fraction(1, 4)
        assert all(m == Fraction(1, 4) for m in mass.values())


def test_out_of_plane_payload_rejected():
    assert simple.continuous_receive_angle(np.array([0.5, 0.5, 0.5])) is None
    angle = simple.continuous_receive_angle(planar_unit(1.0) * 3.0)
    assert angle == pytest.approx(1.0, abs=1e-12)


def test_arc_boundaries_closed():
    assert simple.arc_accepts(math.pi, 0.0)
    assert simple.arc_accepts(0.0, 0.0)
    assert not simple.arc_accepts(math.pi + 1e-6, 0.0)


# --- full sessions through the engine ------------------------------------------

def test_four_symbol_protocol_sessions():
    rng = np.random.default_rng(6)
    for a in (0, 1):
        for b in (0, 1):
            spec = simple.four_symbol_protocol(simple.FourSymbolCodeword(a, b))
            for _ in range(50):
                assert engine.run_session(spec, rng).outcome == engine.Accepted(b)


def test_continuous_protocol_sessions():
    rng = np.random.default_rng(7)
    for a in (0, 1):
        for b in (0, 1):
            spec = simple.continuous_protocol(a, b)
            for _ in range(100):
                assert engine.run_session(spec, rng).outcome == engine.Accepted(b)


def test_interpolating_alice_through_engine():
    rng = np.random.default_rng(8)
    spec = simple.continuous_protocol(0, 0)
    strategy = simple.InterpolationStrategy(0.5)
    script = engine.commit_reveal_script(planar_unit(strategy.angle), 1, 0)
    n = 4000
    wins = sum(
        engine.run_session(
            spec, rng, alice=engine.ScriptedParty(engine.ALICE, script)
        ).outcome
        == engine.Accepted(1)
        for _ in range(n)
    )
    sigma = math.sqrt(0.75 * 0.25 / n)
    assert abs(wins / n - 0.75) <= 4 * sigma


def test_out_of_plane_payload_aborts_session():
    class OffPlaneAlice(engine.Party):
        role = engine.ALICE

        def __init__(self):
            super().__init__()
            self._step = 0

        def _produce(self, rng):
            self._step += 1
            if self._step == 1:
                return engine.vec_message(self.role, np.array([0.0, 0.0, 1.0]))
            return engine.data_message(self.role, (0, 0))

    spec = simple.continuous_protocol(0, 0)
    t = engine.run_session(spec, np.random.default_rng(9), alice=OffPlaneAlice())
    assert t.outcome == engine.Aborted("commit-decode")
