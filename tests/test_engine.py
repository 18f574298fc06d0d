import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from framebc import engine, lattice, simple, so3
from oracles import haar_twirl_moments_one_shot


class EchoAlice(engine.Party):
    """Sends a fixed vector and accepts iff it comes back unchanged."""

    role = engine.ALICE

    def __init__(self, v):
        super().__init__()
        self.v = np.asarray(v, dtype=float)

    def _produce(self, rng):
        return engine.vec_message(self.role, self.v)

    def decide(self):
        incoming = [m for m in self.view if m.sender == engine.BOB and m.is_vec()]
        if incoming and np.linalg.norm(incoming[0].payload - self.v) <= 1e-9:
            return engine.Accepted(0)
        return engine.Aborted("echo-mismatch")


class EchoBob(engine.Party):
    role = engine.BOB

    def _produce(self, rng):
        incoming = [m for m in self.view if m.sender == engine.ALICE and m.is_vec()]
        return engine.vec_message(self.role, incoming[-1].payload)


def echo_protocol(mu, v):
    return engine.ProtocolSpec(
        schedule=((engine.ALICE, "send"), (engine.BOB, "send"), (engine.ALICE, "decide")),
        mu=mu,
        make_alice=lambda: EchoAlice(v),
        make_bob=lambda: EchoBob(),
    )


class FaultyAlice(engine.Party):
    role = engine.ALICE

    def _produce(self, rng):
        raise RuntimeError("broken strategy")


# --- sessions ----------------------------------------------------------------

def test_honest_lattice_sessions_accept():
    params = lattice.make_params(2, 4)
    rng = np.random.default_rng(1)
    for b in (0, 1):
        spec = lattice.lattice_protocol(params, b)
        for _ in range(50):
            t = engine.run_session(spec, rng)
            assert t.outcome == engine.Accepted(b)


def test_echo_returns_original_under_any_rotation():
    rng = np.random.default_rng(2)
    v = so3.unit3(0.3, -0.5, 0.81)
    spec = echo_protocol(so3.HaarSO3(), v)
    for _ in range(50):
        t = engine.run_session(spec, rng)
        assert t.outcome == engine.Accepted(0)


def test_session_applies_one_rotation_to_all_vectors():
    params = lattice.make_params(2, 4)

    class TwoVectorAlice(engine.Party):
        role = engine.ALICE

        def __init__(self):
            super().__init__()
            self._payloads = [so3.planar_unit(0.2), so3.planar_unit(1.1)]
            self._i = 0

        def _produce(self, rng):
            msg = engine.vec_message(self.role, self._payloads[self._i])
            self._i += 1
            return msg

    class SilentBob(engine.Party):
        role = engine.BOB

        def decide(self):
            return engine.Accepted(0)

    spec = engine.ProtocolSpec(
        schedule=(
            (engine.ALICE, "send"),
            (engine.ALICE, "send"),
            (engine.BOB, "decide"),
        ),
        mu=lattice.lattice_mu(params),
        make_alice=TwoVectorAlice,
        make_bob=SilentBob,
    )
    rng = np.random.default_rng(3)
    rotation = so3.sample(so3.HaarSO3(), rng)
    t = engine.run_session(spec, rng, rotation=rotation)
    assert len(t.alice_view) == len(t.bob_view) == 2
    for sent, got in zip(t.alice_view, t.bob_view):
        assert np.linalg.norm(rotation @ sent.payload - got.payload) <= 1e-9


def test_reverse_direction_uses_inverse_rotation():
    v = so3.unit3(0.3, -0.5, 0.81)
    spec = echo_protocol(so3.HaarSO3(), v)
    rng = np.random.default_rng(4)
    rotation = so3.sample(so3.HaarSO3(), rng)
    alice, bob = spec.make_alice(), spec.make_bob()
    t = engine.run_session(spec, rng, rotation=rotation, alice=alice, bob=bob)
    # bob's reply as he sent it, versus what alice saw: off by rotation^-1
    bob_sent = [m for m in t.bob_view if m.sender == engine.BOB][0].payload
    alice_got = [m for m in t.alice_view if m.sender == engine.BOB][0].payload
    assert np.linalg.norm(rotation.T @ bob_sent - alice_got) <= 1e-9


def test_classical_payloads_pass_unrotated():
    params = lattice.make_params(2, 4)
    spec = lattice.lattice_protocol(params, 1)
    t = engine.run_session(spec, np.random.default_rng(5))
    alice_data = [m for m in t.alice_view if not m.is_vec()][0]
    bob_data = [m for m in t.bob_view if not m.is_vec()][0]
    assert alice_data.payload == bob_data.payload
    assert alice_data.payload[0] == 1 and len(alice_data.payload[1]) == 2


def test_strategy_exception_propagates():
    params = lattice.make_params(2, 4)
    spec = lattice.lattice_protocol(params, 0)
    with pytest.raises(RuntimeError, match="broken strategy"):
        engine.run_session(spec, np.random.default_rng(6), alice=FaultyAlice())


def test_unknown_schedule_action_raises():
    spec = echo_protocol(so3.HaarSO3(), so3.planar_unit(0.1))._replace(
        schedule=((engine.ALICE, "sned"), (engine.ALICE, "decide")),
    )
    with pytest.raises(ValueError, match="unknown schedule action: sned"):
        engine.run_session(spec, rotation=so3.identity_rotation())


def test_missing_rng_and_rotation_rejected():
    spec = echo_protocol(so3.HaarSO3(), so3.planar_unit(0.1))
    with pytest.raises(ValueError):
        engine.run_session(spec)


# --- twirl compiler ----------------------------------------------------------

def test_twirl_rejects_non_group():
    spec = engine.probe_protocol(so3.TwoPointAngleMixture((0.2, 0.5)))
    with pytest.raises(ValueError, match="not a uniform group distribution"):
        engine.twirl_compile(spec, so3.TwoPointAngleMixture((0.2, 0.5)))
    with pytest.raises(ValueError, match="not a uniform group distribution"):
        engine.twirl_compile(spec, so3.FiniteSupport(((np.eye(3), 1.0),)))


def test_relative_frame_law_is_uniform_z4():
    group = so3.CyclicZ(4)
    law = {}
    for u_a, p_a in so3.enumerate_support(group):
        for u_b, p_b in so3.enumerate_support(group):
            k = round(so3.rotation_z_angle(u_b.T @ u_a) / (math.pi / 2)) % 4
            law[k] = law.get(k, Fraction(0)) + p_a * p_b
    assert law == {k: Fraction(1, 4) for k in range(4)}


def test_compiled_received_vector_law_matches_group_orbit():
    group = so3.CyclicZ(4)
    v = so3.planar_unit(0.3)
    law = {}
    for u_a, p_a in so3.enumerate_support(group):
        for u_b, p_b in so3.enumerate_support(group):
            received = u_b.T @ (u_a @ v)  # noiseless channel in between
            key = tuple(np.round(received, 9))
            law[key] = law.get(key, Fraction(0)) + p_a * p_b
    expected = {
        tuple(np.round(g @ v, 9)): Fraction(1, 4)
        for g, _ in so3.enumerate_support(group)
    }
    assert law == expected


@pytest.mark.parametrize("n", [2, 4, 8])
def test_twirl_transcript_distribution_equality(n):
    group = so3.CyclicZ(n)
    spec = engine.probe_protocol(group)
    base = engine.transcript_distribution(spec)
    compiled = engine.compiled_transcript_distribution(spec, group)
    assert base == compiled
    assert sum(base.values()) == 1
    # the exact law of a compiled spec enumerates the frames of its own twirl
    assert engine.transcript_distribution(engine.twirl_compile(spec, group)) == base


def test_compiled_transcript_distribution_budget_guard():
    # the compiled enumeration runs |G|^2 sessions
    group = so3.CyclicZ(8)
    spec = engine.probe_protocol(group)
    with pytest.raises(lattice.BudgetExceededError, match="64 exceeds budget 63"):
        engine.compiled_transcript_distribution(spec, group, budget=63)
    compiled = engine.compiled_transcript_distribution(spec, group, budget=64)
    assert compiled == engine.transcript_distribution(spec)


def test_one_sided_twirl_randomizes_alice():
    group = so3.CyclicZ(4)
    spec = engine.probe_protocol(group)
    channel_view = engine.bob_wire_view_distribution(spec)
    twirl_view = engine.bob_wire_view_distribution(spec, alice_twirl=group)
    assert channel_view == twirl_view
    # a compiled spec frames its Alice alone: Bob's view stays the raw wire
    compiled = engine.twirl_compile(spec, group)
    assert engine.bob_wire_view_distribution(compiled) == twirl_view


def test_haar_twirl_moment_deltas():
    deltas = engine.haar_twirl_moments(100_000, seed=42)
    assert all(v < 0.02 for v in deltas.values())


@pytest.mark.parametrize(
    "samples", [1, engine.HAAR_CHUNK - 1, engine.HAAR_CHUNK, engine.HAAR_CHUNK + 1, 100_000]
)
@pytest.mark.parametrize("seed", [0, 7, 42])
def test_haar_twirl_moments_match_one_draw_per_block(samples, seed):
    # chunked draws, first columns and Bob's frames applied to Alice's image
    # of +x change no bit
    assert engine.haar_twirl_moments(samples, seed) == haar_twirl_moments_one_shot(samples, seed)


def test_haar_twirl_moments_memory_bound():
    # drawing each block whole peaks at about 25 MiB traced, and three
    # (n, 3) images of +x held at once (6.9 MiB) at 9.2 MiB; the one
    # streamed image buffer (2.3 MiB) and a chunk's temporaries peak at
    # 4.6 MiB, and the bound adds 1.4 MiB of margin
    tracemalloc.start()
    try:
        engine.haar_twirl_moments(100_000, seed=42)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2**20


def test_twirl_compiled_sessions_sample_the_group_channel_law():
    # the compiled protocol runs over the noiseless channel
    params = lattice.make_params(2, 4)
    compiled = engine.twirl_compile(lattice.lattice_protocol(params, 1), so3.HaarSO3())
    assert compiled.mu.elements[0][1] == Fraction(1)

    # each party draws its own element per session, and the sampled transcripts
    # follow the exact law of the original protocol over the group channel
    group = so3.CyclicZ(4)
    exact = engine.transcript_distribution(engine.probe_protocol(group))
    spec = engine.twirl_compile(engine.probe_protocol(group), group)
    rng = np.random.default_rng(31)
    n = 4000
    counts = Counter(engine.transcript_key(engine.run_session(spec, rng)) for _ in range(n))
    assert set(counts) <= set(exact)
    for key, prob in exact.items():
        p = float(prob)
        assert abs(counts[key] - n * p) <= 6 * math.sqrt(n * p * (1 - p)), counts[key]

    # a data message passes the twirl unrotated
    codeword = simple.FourSymbolCodeword(1, 0)
    four_symbol = engine.twirl_compile(simple.four_symbol_protocol(codeword), group)
    t = engine.run_session(four_symbol, rng)
    reveals = [m.payload for m in t.bob_view if m.sender == engine.ALICE and not m.is_vec()]
    assert reveals == [(codeword.b, codeword.a)]

    with pytest.raises(ValueError, match="needs an rng or a fixed element"):
        engine.run_session(spec, rotation=so3.identity_rotation())


def _view_bytes(view):
    return [(m.sender, m.kind, m.payload.tobytes() if m.is_vec() else m.payload) for m in view]


COMPILED_SPECS = {
    "probe": engine.probe_protocol,
    "four-symbol": lambda group: simple.four_symbol_protocol(simple.FourSymbolCodeword(1, 0)),
    # Alice draws her commit at begin, so a frame drawn on the wrong side of it shows
    "lattice": lambda group: lattice.lattice_protocol(lattice.make_params(2, 4), 1),
}


@pytest.mark.parametrize("group", [so3.CyclicZ(8), so3.HaarSO3()], ids=["z8", "haar"])
@pytest.mark.parametrize("name", sorted(COMPILED_SPECS))
def test_compiled_session_replays_frames_bit_for_bit(name, group):
    # by hand: the channel rotation, Alice's frame, Alice begins, Bob's frame,
    # Bob begins; a vector then meets sender frame, channel, receiver frame^T
    spec = COMPILED_SPECS[name](group)
    rng, replay = np.random.default_rng(41), np.random.default_rng(41)
    for _ in range(5):
        t = engine.run_session(engine.twirl_compile(spec, group), rng)
        channel = so3.sample(engine.noiseless_channel(), replay)
        parties, frames = {}, {}
        for role, make in ((engine.ALICE, spec.make_alice), (engine.BOB, spec.make_bob)):
            frames[role] = so3.sample(group, replay)
            parties[role] = make()
            parties[role].begin(replay)
        for role, action in spec.schedule:
            if action == "decide":
                outcome = parties[role].decide()
                continue
            other = engine.BOB if role == engine.ALICE else engine.ALICE
            message = parties[role].send(replay)
            if message.is_vec():
                wire = channel if role == engine.ALICE else channel.T
                payload = frames[other].T @ (wire @ (frames[role] @ message.payload))
                message = engine.vec_message(role, payload)
            parties[other].receive(message)
        assert _view_bytes(t.alice_view) == _view_bytes(parties[engine.ALICE].view)
        assert _view_bytes(t.bob_view) == _view_bytes(parties[engine.BOB].view)
        assert t.outcome == outcome
    assert rng.bit_generator.state == replay.bit_generator.state


def test_explicit_party_on_compiled_spec_sees_the_raw_wire():
    # a party passed in draws no frame; Bob, made from the spec, still draws his
    group = so3.HaarSO3()
    spec = engine.probe_protocol(group)
    rng, replay = np.random.default_rng(43), np.random.default_rng(43)
    t = engine.run_session(engine.twirl_compile(spec, group), rng, alice=spec.make_alice())
    so3.sample(engine.noiseless_channel(), replay)
    u_b = so3.sample(group, replay)
    assert rng.bit_generator.state == replay.bit_generator.state
    sent_a, got_b = t.alice_view[1].payload, t.bob_view[0].payload
    assert got_b.tobytes() == (u_b.T @ t.alice_view[0].payload).tobytes()
    assert sent_a.tobytes() == (u_b @ t.bob_view[1].payload).tobytes()
    # a frame passed in frames it, on a spec with no twirl too
    t = engine.run_session(spec, rotation=np.eye(3), alice=spec.make_alice(), frames=(u_b, None))
    assert t.bob_view[0].payload.tobytes() == (u_b @ t.alice_view[0].payload).tobytes()


def test_twirl_compile_refuses_a_compiled_spec():
    group = so3.CyclicZ(4)
    compiled = engine.twirl_compile(engine.probe_protocol(group), group)
    assert compiled.twirl == group and engine.probe_protocol(group).twirl is None
    with pytest.raises(ValueError, match="already twirl-compiled over CyclicZ"):
        engine.twirl_compile(compiled, group)
    with pytest.raises(ValueError, match="already twirl-compiled over CyclicZ"):
        engine.compiled_transcript_distribution(compiled, group)


def test_protocol_spec_refuses_a_non_group_twirl():
    spec = engine.probe_protocol(so3.CyclicZ(4))
    for law in (so3.TwoPointAngleMixture((0.2, 0.5)), so3.FiniteSupport(((np.eye(3), 1.0),))):
        with pytest.raises(ValueError, match="not a uniform group distribution"):
            spec._replace(twirl=law)
        with pytest.raises(ValueError, match="not a uniform group distribution"):
            engine.ProtocolSpec(spec.schedule, spec.mu, spec.make_alice, spec.make_bob, law)


# --- shared commit/reveal decider ------------------------------------------------

COMMIT_REVEAL_SPECS = {
    "lattice": lambda: lattice.lattice_protocol(lattice.make_params(2, 4), 0),
    "four-symbol": lambda: simple.four_symbol_protocol(simple.FourSymbolCodeword(0, 0)),
    "continuous": lambda: simple.continuous_protocol(0, 0),
}


@pytest.mark.parametrize("scheme", sorted(COMMIT_REVEAL_SPECS))
def test_commit_reveal_decider_malformed_sessions(scheme):
    spec = COMMIT_REVEAL_SPECS[scheme]()
    honest = engine.run_session(spec, np.random.default_rng(12))
    assert isinstance(honest.outcome, engine.Accepted)
    commit_vector = honest.alice_view[0].payload

    no_reveal = engine.ScriptedParty(
        engine.ALICE, [(engine.VEC, commit_vector), (engine.VEC, commit_vector)]
    )
    t = engine.run_session(spec, np.random.default_rng(13), alice=no_reveal)
    assert t.outcome == engine.Aborted("malformed-session")

    short_reveal = engine.ScriptedParty(
        engine.ALICE, [(engine.VEC, commit_vector), (engine.DATA, (0,))]
    )
    t = engine.run_session(spec, np.random.default_rng(14), alice=short_reveal)
    assert t.outcome == engine.Aborted("malformed-reveal")


@pytest.mark.parametrize(
    "payload", [[math.nan, 0.0, 0.0], [math.inf, 0.0, 0.0]], ids=["nan", "inf"]
)
@pytest.mark.parametrize("scheme", sorted(COMMIT_REVEAL_SPECS))
@pytest.mark.filterwarnings("error")
def test_commit_reveal_decider_non_finite_commit(scheme, payload):
    # a commit that is not a finite vector decodes nowhere, whatever the reveal,
    # and rotating it (0 * inf, nan entries) warns of nothing
    spec = COMMIT_REVEAL_SPECS[scheme]()
    honest = engine.run_session(spec, np.random.default_rng(17))
    reveal = honest.alice_view[1].payload
    cheat = engine.ScriptedParty(engine.ALICE, engine.commit_reveal_script(payload, *reveal))
    rng = np.random.default_rng(18)
    for _ in range(20):
        t = engine.run_session(spec, rng, alice=cheat)
        assert t.outcome == engine.Aborted("commit-decode")


@pytest.mark.parametrize("scheme", sorted(COMMIT_REVEAL_SPECS))
def test_commit_reveal_decider_malformed_reveals(scheme):
    # Bob aborts every reveal that is not a pair (b, a) with b the integer
    # 0 or 1, in every scheme, instead of accepting it or raising
    spec = COMMIT_REVEAL_SPECS[scheme]()
    honest = engine.run_session(spec, np.random.default_rng(15))
    commit_vector = honest.alice_view[0].payload
    b, a = honest.alice_view[1].payload
    malformed = [
        (2, a), (4, a), (-1, a), (0.9, a), (1.0, a), ("1", a), (None, a),
        (b, a, a), (b,), (), 5, None, "ba", (b, None), (b, "x"),
        (b, 0.9), (b, 1.7), (b, 2), (b, -1),
    ]
    if scheme == "lattice":
        malformed.append((2, (1, 2, 3)))
    for reveal in malformed:
        alice = engine.ScriptedParty(
            engine.ALICE, [(engine.VEC, commit_vector), (engine.DATA, reveal)]
        )
        t = engine.run_session(spec, rotation=so3.identity_rotation(), alice=alice)
        assert t.outcome == engine.Aborted("malformed-reveal"), reveal
    # an integer-like b (numpy) is a well-formed bit, and numpy integers are a valid value
    numpy_a = np.array(a) if scheme == "lattice" else np.int64(a)
    for reveal in ((np.int64(b), a), (b, numpy_a)):
        alice = engine.ScriptedParty(
            engine.ALICE, [(engine.VEC, commit_vector), (engine.DATA, reveal)]
        )
        t = engine.run_session(spec, rotation=so3.identity_rotation(), alice=alice)
        assert t.outcome == engine.Accepted(b), reveal
        assert type(t.outcome.value) is int


def _broken_decoder(*args):
    raise RuntimeError("decoder bug")


HONEST_DECODERS = {
    "lattice": (lattice, "decode_commit"),
    "four-symbol": (simple, "decode_symbol"),
    "continuous": (simple, "continuous_receive_angle"),
}


@pytest.mark.parametrize("scheme", sorted(COMMIT_REVEAL_SPECS))
def test_honest_decoder_bug_raises(monkeypatch, scheme):
    # a fault in Bob's honest decoder is a bug, never a rejected cheat
    monkeypatch.setattr(*HONEST_DECODERS[scheme], _broken_decoder)
    spec = COMMIT_REVEAL_SPECS[scheme]()
    with pytest.raises(RuntimeError, match="decoder bug"):
        engine.run_session(spec, np.random.default_rng(16))


@pytest.mark.parametrize("a", [(2.9, 2, 2), ("x", 1, 2), None])
def test_lattice_reveal_value_must_be_integers(a):
    # the point is validated, never truncated: (2.9, 2, 2) is not the honest (2, 2, 2)
    params = lattice.make_params(3, 8)
    spec = lattice.lattice_protocol(params, 0)
    commit_vector = lattice.encode(params, (2, 2, 2))
    for reveal, outcome in [
        ((0, a), engine.Aborted("malformed-reveal")),
        ((0, np.array([2, 2, 2])), engine.Accepted(0)),
    ]:
        alice = engine.ScriptedParty(
            engine.ALICE, [(engine.VEC, commit_vector), (engine.DATA, reveal)]
        )
        t = engine.run_session(spec, rotation=so3.identity_rotation(), alice=alice)
        assert t.outcome == outcome, reveal


# --- one budgeted session enumerator ---------------------------------------------

def _lattice_spec():
    # exact laws need an Alice that draws nothing: the honest messages for (0, 1)
    params = lattice.make_params(2, 4)
    script = engine.commit_reveal_script(lattice.encode(params, (0, 1)), 1, (0, 1))
    return lattice.lattice_protocol(params, 1)._replace(
        make_alice=lambda: engine.ScriptedParty(engine.ALICE, script),
    )


# (name, law(spec, budget), spec factory, session count)
ENUMERATORS = [
    ("channel-z8", lambda s, budget: engine.transcript_distribution(s, budget=budget),
     lambda: engine.probe_protocol(so3.CyclicZ(8)), 8),
    ("channel-lattice", lambda s, budget: engine.transcript_distribution(s, budget=budget),
     _lattice_spec, 4),
    ("compiled-z8", lambda s, budget: engine.compiled_transcript_distribution(
        s, so3.CyclicZ(8), budget=budget),
     lambda: engine.probe_protocol(so3.CyclicZ(8)), 64),
    ("bob-wire-z8", lambda s, budget: engine.bob_wire_view_distribution(s, budget=budget),
     lambda: engine.probe_protocol(so3.CyclicZ(8)), 8),
    ("bob-wire-twirl-z6", lambda s, budget: engine.bob_wire_view_distribution(
        s, alice_twirl=so3.CyclicZ(6), budget=budget),
     lambda: engine.probe_protocol(so3.CyclicZ(8)), 6),
]


def _count_sessions(monkeypatch) -> list:
    calls = []
    original = engine.run_session

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(engine, "run_session", counted)
    return calls


@pytest.mark.parametrize("name, law, make_spec, size", ENUMERATORS, ids=[e[0] for e in ENUMERATORS])
def test_session_enumerator_budget_edge(monkeypatch, name, law, make_spec, size):
    spec = make_spec()
    calls = _count_sessions(monkeypatch)
    dist = law(spec, size)
    assert len(calls) == size
    assert sum(dist.values()) == 1
    with pytest.raises(lattice.BudgetExceededError, match=f"{size} exceeds budget {size - 1}"):
        law(spec, size - 1)
    assert len(calls) == size  # the over-budget call ran no session


def test_over_budget_enumeration_runs_no_session(monkeypatch):
    calls = _count_sessions(monkeypatch)

    def no_cyclic_listing(mu):  # fail fast rather than list 10^9 rotations
        assert not isinstance(mu, so3.CyclicZ), "an over-budget enumeration listed a group"
        return so3.enumerate_support(mu)

    monkeypatch.setattr(engine, "enumerate_support", no_cyclic_listing)
    huge = so3.CyclicZ(10**9)
    spec = engine.probe_protocol(huge)
    with pytest.raises(lattice.BudgetExceededError, match="1000000000 exceeds"):
        engine.transcript_distribution(spec)
    with pytest.raises(lattice.BudgetExceededError, match="1000000000000000000 exceeds"):
        engine.compiled_transcript_distribution(spec, huge)
    with pytest.raises(lattice.BudgetExceededError, match="1000000000 exceeds"):
        engine.bob_wire_view_distribution(spec)
    with pytest.raises(lattice.BudgetExceededError, match="1000000000 exceeds"):
        engine.bob_wire_view_distribution(engine.probe_protocol(so3.CyclicZ(2)), alice_twirl=huge)
    assert calls == []


def test_exact_enumeration_rejects_non_group_and_continuous_twirls():
    spec = engine.probe_protocol(so3.CyclicZ(4))
    with pytest.raises(ValueError, match="not a uniform group"):
        engine.compiled_transcript_distribution(spec, so3.TwoPointAngleMixture((0.2, 0.5)))
    with pytest.raises(ValueError, match="needs a finite group"):
        engine.compiled_transcript_distribution(spec, so3.HaarSO3())
    with pytest.raises(ValueError, match="needs a finite group"):
        engine.bob_wire_view_distribution(spec, alice_twirl=so3.HaarSO3())
