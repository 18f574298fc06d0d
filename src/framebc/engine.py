"""Two-party protocol engine over a misalignment channel.

A session runs a fixed schedule of steps between Alice and Bob.  One
rotation R is drawn per session; every vector payload from Alice to Bob is
multiplied by R and every vector payload from Bob to Alice by R^-1, while
classical payloads (tuples of plain data) pass through untouched.  Each
party records its own view: messages exactly as its strategy produced or
consumed them.

The module also provides the group-twirl compiler: a compiled spec runs over
a noiseless channel, and each session gives each party a private frame u,
uniform over the group, by which its traffic is conjugated unseen by its
strategy; the session then has the original's law over the group channel.
Exact transcript-distribution enumeration helpers, which fix the frames,
make that equivalence a checkable statement for finite groups.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .so3 import (
    CyclicZ,
    FiniteSupport,
    HaarSO3,
    MisalignmentDistribution,
    Record,
    enumerate_support,
    haar_rotations,
    identity_rotation,
    sample,
    unit3,
)

#: enumerations larger than this are refused instead of silently run
DEFAULT_ENUM_BUDGET = 10_000_000


class BudgetExceededError(RuntimeError):
    """The requested enumeration is larger than the configured budget."""


ALICE = "alice"
BOB = "bob"

VEC = "vec"
DATA = "data"


class Message(Record, NamedTuple("Message", [
    ("sender", str), ("kind", str), ("payload", object)
])):
    """One protocol message as seen by one party.

    kind "vec" payloads are 3-vectors and are frame-sensitive: the channel
    rotates them in transit.  kind "data" payloads are classical values
    (nested tuples of ints/floats/strings) and are never rotated.
    """

    def is_vec(self) -> bool:
        return self.kind == VEC


def vec_message(sender: str, v: np.ndarray) -> Message:
    return Message(sender, VEC, np.asarray(v, dtype=float))


def data_message(sender: str, value: object) -> Message:
    return Message(sender, DATA, value)


class Accepted(Record, NamedTuple("Accepted", [("value", object)])):
    """A session that ends in acceptance; `value` is the revealed bit."""


class Aborted(Record, NamedTuple("Aborted", [("reason", str)])):
    """A session that ends in rejection, and why."""


ProtocolOutcome = Accepted | Aborted


class Party:
    """One side of a session.

    Subclasses implement `_produce` (payload of the next outgoing message)
    and/or `decide` (final verdict, a pure function of `self.view`).  The
    base class keeps `view`, the ordered list of messages this party's
    strategy actually saw, which is what transcript-distribution statements
    quantify over.
    """

    role: str = "party"

    def __init__(self) -> None:
        self.view: list[Message] = []

    def begin(self, rng: np.random.Generator | None) -> None:
        """Reset per-session state; called once before any message."""
        self.view = []

    def send(self, rng: np.random.Generator | None) -> Message:
        msg = self._produce(rng)
        self.view.append(msg)
        return msg

    def _produce(self, rng: np.random.Generator | None) -> Message:
        raise NotImplementedError

    def receive(self, message: Message) -> None:
        self.view.append(message)

    def decide(self) -> ProtocolOutcome:
        raise NotImplementedError


class ScriptedParty(Party):
    """Sends a list of (kind, payload) messages in order; optional fixed decider.

    `payloads` may instead be a callable that draws the list from the
    session rng at `begin`.
    """

    def __init__(
        self,
        role: str,
        payloads: list[tuple[str, object]]
        | Callable[[np.random.Generator | None], list[tuple[str, object]]],
        decider: Callable[[list[Message]], ProtocolOutcome] | None = None,
    ) -> None:
        super().__init__()
        self.role = role
        self._script = payloads
        self._cursor = 0
        self._decider = decider

    def begin(self, rng) -> None:
        super().begin(rng)
        self._payloads = self._script(rng) if callable(self._script) else self._script
        self._cursor = 0

    def _produce(self, rng) -> Message:
        kind, payload = self._payloads[self._cursor]
        self._cursor += 1
        if kind == VEC:
            return vec_message(self.role, payload)
        return data_message(self.role, payload)

    def decide(self) -> ProtocolOutcome:
        if self._decider is None:
            raise NotImplementedError("scripted party has no decider")
        return self._decider(self.view)


def commit_reveal_script(vector: np.ndarray, b: int, a: object) -> list:
    """Committer's two messages: the commit vector, then the clear reveal (b, a)."""
    return [(VEC, vector), (DATA, (b, a))]


def commit_reveal_decider(
    decode: Callable[[np.ndarray], object | None],
    verify: Callable[[object, object, object], bool],
) -> Callable[[list[Message]], ProtocolOutcome]:
    """Receiver's verdict on a view holding a commit vector and a reveal (b, a).

    `decode` maps the received vector to the scheme's decoded value, or None
    when it decodes nowhere; `verify(decoded, b, a)` is the reveal test.  A
    reveal that is not a pair (b, a) with b the integer 0 or 1, or whose a
    makes `verify` raise TypeError or ValueError, is malformed.
    """

    def decide(view: list[Message]) -> ProtocolOutcome:
        vecs = [m for m in view if m.is_vec()]
        datas = [m for m in view if not m.is_vec()]
        if not vecs or not datas:
            return Aborted("malformed-session")
        decoded = decode(vecs[0].payload)
        if decoded is None:
            return Aborted("commit-decode")
        try:
            b, a = datas[0].payload
            b = operator.index(b)
            if b not in (0, 1):
                raise ValueError(f"revealed bit {b}")
            accepted = verify(decoded, b, a)
        except (TypeError, ValueError):
            return Aborted("malformed-reveal")
        return Accepted(b) if accepted else Aborted("reveal-reject")

    return decide


TwirlGroup = CyclicZ | HaarSO3


def _require_group(group: MisalignmentDistribution) -> None:
    if not isinstance(group, (CyclicZ, HaarSO3)):
        raise ValueError(
            "not a uniform group distribution: twirling requires the uniform "
            f"distribution over a rotation group, got {group!r}"
        )


class ProtocolSpec(Record, NamedTuple("ProtocolSpec", [
    ("schedule", tuple[tuple[str, str], ...]), ("mu", MisalignmentDistribution),
    # bare: typing caches Callable[[], Party], and this module with it, past a re-import
    ("make_alice", Callable), ("make_bob", Callable), ("twirl", TwirlGroup | None),
])):
    """A runnable protocol: schedule, channel law, honest party factories, twirl.

    The schedule is a tuple of (role, action) pairs, action "send" or
    "decide"; all implemented protocols end with a single decide step.
    `twirl` is None or the uniform group of `twirl_compile`; no other law.
    """

    def __new__(cls, schedule, mu, make_alice, make_bob, twirl=None) -> ProtocolSpec:
        if twirl is not None:
            _require_group(twirl)
        return super().__new__(cls, schedule, mu, make_alice, make_bob, twirl)


def commit_reveal_protocol(
    mu: MisalignmentDistribution,
    script: list[tuple[str, object]] | Callable,
    decode: Callable[[np.ndarray], object | None],
    verify: Callable[[object, object, object], bool],
) -> ProtocolSpec:
    """Two-message commit/reveal spec shared by every scheme.

    Alice plays `script` (see `ScriptedParty`), normally a
    `commit_reveal_script`; Bob judges with `commit_reveal_decider`.
    """
    decider = commit_reveal_decider(decode, verify)
    return ProtocolSpec(
        schedule=((ALICE, "send"), (ALICE, "send"), (BOB, "decide")),
        mu=mu,
        make_alice=lambda: ScriptedParty(ALICE, script),
        make_bob=lambda: ScriptedParty(BOB, [], decider=decider),
    )


class Transcript(Record, NamedTuple("Transcript", [
    ("alice_view", tuple[Message, ...]), ("bob_view", tuple[Message, ...]),
    ("outcome", ProtocolOutcome),
])):
    """Both parties' views of one session, and its outcome."""


def run_session(
    spec: ProtocolSpec,
    rng: np.random.Generator | None = None,
    *,
    rotation: np.ndarray | None = None,
    alice: Party | None = None,
    bob: Party | None = None,
    frames: tuple[np.ndarray | None, np.ndarray | None] = (None, None),
) -> Transcript:
    """Run one session of `spec` and return the transcript.

    One rotation is sampled (or taken from `rotation`) and applied to every
    vector payload of the session: forward for Alice-to-Bob, inverse for
    Bob-to-Alice.  A party's private frame u is its entry of `frames`, or, if
    that is None and the spec made the party, a draw from `spec.twirl` just
    before it begins; a vector travels as u_recv^T @ (rotation @ (u_send @ v))
    and views hold unframed vectors.  A party's exception propagates to the
    caller: a cheat is judged only by the decider's verdict, never by a
    fault, so a bug in an honest party cannot pass as a rejected cheat.
    """
    if rotation is None:
        if rng is None:
            raise ValueError("need an rng when no explicit rotation is given")
        rotation = sample(spec.mu, rng)
    u_a, u_b = frames
    if alice is None:
        alice = spec.make_alice()
        if u_a is None and spec.twirl is not None:
            u_a = _draw_frame(spec.twirl, rng)
    alice.begin(rng)
    if bob is None:
        bob = spec.make_bob()
        if u_b is None and spec.twirl is not None:
            u_b = _draw_frame(spec.twirl, rng)
    bob.begin(rng)
    sides = {ALICE: (alice, u_a, bob, u_b), BOB: (bob, u_b, alice, u_a)}

    outcome: ProtocolOutcome | None = None
    for role, action in spec.schedule:
        party, frame, other, other_frame = sides[role]
        if action == "send":
            message = party.send(rng)
            if message.is_vec():
                with np.errstate(invalid="ignore"):  # the decider judges a non-finite payload
                    v = message.payload if frame is None else frame @ message.payload
                    v = (rotation if message.sender == ALICE else rotation.T) @ v
                    v = v if other_frame is None else other_frame.T @ v
                message = vec_message(message.sender, v)
            other.receive(message)
        elif action == "decide":
            outcome = party.decide()
        else:
            raise ValueError(f"unknown schedule action: {action}")
    if outcome is None:
        outcome = Aborted("no-decision")
    return Transcript(tuple(alice.view), tuple(bob.view), outcome)


def _draw_frame(group: TwirlGroup, rng: np.random.Generator | None) -> np.ndarray:
    if rng is None:
        raise ValueError("a twirled party needs an rng or a fixed element")
    return sample(group, rng)


# ---------------------------------------------------------------------------
# group twirl compiler
# ---------------------------------------------------------------------------

def noiseless_channel() -> FiniteSupport:
    return FiniteSupport(((identity_rotation(), Fraction(1)),))


def twirl_compile(spec: ProtocolSpec, group: TwirlGroup) -> ProtocolSpec:
    """Compile a protocol for a uniform-group channel into a noiseless one.

    The compiled spec sets `twirl = group`, so `run_session` gives each party
    an independent uniform frame from the group; the relative frame
    u_bob^T u_alice is then itself uniform over the group, so the compiled
    protocol over a noiseless channel simulates the original over the group
    channel.  Rejects a non-group law and an already compiled spec.
    """
    if spec.twirl is not None:
        raise ValueError(f"the spec is already twirl-compiled over {spec.twirl!r}")
    return spec._replace(mu=noiseless_channel(), twirl=group)


# ---------------------------------------------------------------------------
# exact transcript distributions (finite channels / finite groups)
# ---------------------------------------------------------------------------

def transcript_key(transcript: Transcript) -> tuple:
    """Hashable canonical form of a transcript.

    Vector payloads are rounded to 9 decimals so that numerically
    equal values reached along different float paths (for example a composed
    pair of twirl rotations versus one direct channel rotation) collapse to
    the same key.  Distinct protocol values differ by far more than the
    rounding unit in every implemented scheme.
    """
    def key_message(m: Message) -> tuple:
        if m.is_vec():
            values = tuple(round(x, 9) + 0.0 for x in m.payload.tolist())
            return (m.sender, m.kind, values)
        return (m.sender, m.kind, m.payload)

    return (
        tuple(key_message(m) for m in transcript.alice_view),
        tuple(key_message(m) for m in transcript.bob_view),
        transcript.outcome,
    )


def _support_size(mu: MisalignmentDistribution | None) -> int:
    """Support size of a finite law, None being an untwirled party; CyclicZ is not listed."""
    if mu is None:
        return 1
    return mu.n if isinstance(mu, CyclicZ) else len(enumerate_support(mu))


def _session_law(
    spec: ProtocolSpec,
    key: Callable[[Transcript], tuple],
    budget: int,
    *,
    frame_bob: bool = True,
) -> dict[tuple, Fraction]:
    """Exact law of `key(transcript)` over every (rotation, u_alice, u_bob, weight).

    The rotation ranges over `spec.mu`.  With no `spec.twirl` both parties
    run unframed; otherwise each runs once with each element of the twirl
    as its fixed frame (`run_session`'s `frames`), except that Bob, made
    explicitly, runs unframed when `frame_bob` is False.  Raises
    BudgetExceededError before the first session when the session count
    exceeds the budget.
    """
    group = spec.twirl
    if group is not None and not isinstance(group, CyclicZ):
        raise ValueError("exact enumeration needs a finite group")
    laws = (spec.mu, group, group if frame_bob else None)
    size = math.prod(_support_size(mu) for mu in laws)
    if size > budget:
        raise BudgetExceededError(f"session enumeration size {size} exceeds budget {budget}")
    (channel, d_c), (alice_law, d_a), (bob_law, d_b) = (
        _integer_weights([(None, Fraction(1))] if mu is None else enumerate_support(mu))
        for mu in laws
    )
    tally: dict[tuple, int] = {}
    for rotation, prob in channel:
        for u_a, p_a in alice_law:
            weight = prob * p_a
            for u_b, p_b in bob_law:
                bob = None if frame_bob else spec.make_bob()
                k = key(run_session(spec, rotation=rotation, frames=(u_a, u_b), bob=bob))
                tally[k] = tally.get(k, 0) + weight * p_b
    return {k: Fraction(count, d_c * d_a * d_b) for k, count in tally.items()}


def _integer_weights(support: list[tuple[object, Fraction]]) -> tuple[list, int]:
    """A law's (element, probability) pairs as (element, integer weight) over one denominator.

    The denominator is the lcm of the probabilities' denominators, so every
    weight is its probability times it, exactly.
    """
    denominator = math.lcm(*(p.denominator for _, p in support))
    return [(x, p.numerator * (denominator // p.denominator)) for x, p in support], denominator


def transcript_distribution(
    spec: ProtocolSpec, *, budget: int = DEFAULT_ENUM_BUDGET
) -> dict[tuple, Fraction]:
    """Exact transcript distribution of a deterministic protocol over finite mu.

    Parties must not consume randomness; everything random is the channel
    and, for a twirl-compiled spec, each party's frame over its finite group.
    """
    return _session_law(spec, transcript_key, budget)


def compiled_transcript_distribution(
    spec: ProtocolSpec, group: CyclicZ, *, budget: int = DEFAULT_ENUM_BUDGET
) -> dict[tuple, Fraction]:
    """`transcript_distribution` of `twirl_compile(spec, group)`.

    Enumerates both parties' private group elements over group x group with
    a noiseless channel; views are the inner (untwirled) views, so equality
    with `transcript_distribution(spec)` is the compiler's simulation claim
    at finite-group scale.
    """
    return transcript_distribution(twirl_compile(spec, group), budget=budget)


def bob_wire_view_distribution(
    spec: ProtocolSpec,
    *,
    alice_twirl: CyclicZ | None = None,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> dict[tuple, Fraction]:
    """Exact distribution of Bob's raw (wire-level) view.

    Bob always runs unframed.  With `alice_twirl` set, the spec is first
    twirl-compiled over that group, so Alice alone twirls and the channel is
    noiseless; otherwise the protocol runs over its own channel, with Alice
    framed over the spec's own twirl, if it has one.  A plain Bob records
    wire payloads directly, so comparing the two distributions states that
    Alice's private twirl alone randomizes her frame exactly like the group
    channel does.
    """
    if alice_twirl is not None:
        spec = twirl_compile(spec, alice_twirl)
    return _session_law(spec, lambda t: transcript_key(t)[1], budget, frame_bob=False)


def probe_protocol(mu: MisalignmentDistribution) -> ProtocolSpec:
    """Deterministic two-message protocol for channel-equivalence checks.

    Alice sends a fixed vector, Bob replies with another fixed vector, and
    Bob's verdict is the sign of the first coordinate he received, so both
    message directions and the verdict all depend on the session rotation.
    """
    payload_a = unit3(0.6, -0.2, 0.75)
    payload_b = unit3(-0.1, 0.9, 0.4)

    def decide(view: list[Message]) -> ProtocolOutcome:
        incoming = [m for m in view if m.sender == ALICE and m.is_vec()]
        if not incoming:
            return Aborted("malformed-session")
        return Accepted(1 if float(incoming[0].payload[0]) >= 0.0 else 0)

    return ProtocolSpec(
        schedule=((ALICE, "send"), (BOB, "send"), (BOB, "decide")),
        mu=mu,
        make_alice=lambda: ScriptedParty(ALICE, [(VEC, payload_a)]),
        make_bob=lambda: ScriptedParty(BOB, [(VEC, payload_b)], decider=decide),
    )


#: Haar draws per chunk of `haar_twirl_moments`; bounds its per-chunk stacks
HAAR_CHUNK = 1 << 13


def haar_twirl_moments(samples: int, seed: int) -> dict[str, float]:
    """Moment comparison between a Haar channel and its compiled twirl.

    Applies `samples` direct Haar rotations and `samples` compiled relative
    frames (both parties' private elements composed) to the probe vector +x.
    Returns the largest deviations of the empirical mean from 0 and of the
    empirical second moment from I/3, for both constructions, plus the
    largest disagreement between the two constructions' moments.  Under the
    Haar law all of these vanish as the sample count grows.

    The draws come HAAR_CHUNK at a time in one stream order: the direct
    block, then Alice's, then Bob's.  One (samples, 3) buffer holds the
    probe images: the direct ones until their moments are taken, then
    Alice's images of +x, to which Bob's frames are applied in place.  Each
    image row is computed on its own and the moments are taken over the
    whole buffer, so they match one draw per block bit for bit.
    """
    rng = np.random.default_rng(seed)
    images = np.empty((samples, 3))
    blocks = np.split(images, range(HAAR_CHUNK, samples, HAAR_CHUNK))
    moments = []
    for compiled in (False, True):
        for out in blocks:  # a rotation's image of +x is its first column
            out[:] = haar_rotations(len(out), rng)[:, :, 0]
        if compiled:  # the relative frame u_bob^T u_alice takes +x to u_bob^T (u_alice +x)
            for out in blocks:
                u_bob = haar_rotations(len(out), rng)
                out[:] = np.matmul(u_bob.transpose(0, 2, 1), out[:, :, None])[:, :, 0]
        moments.append((images.mean(axis=0), (images.T @ images) / samples))
    (mean_d, second_d), (mean_c, second_c) = moments
    isotropic = np.eye(3) / 3.0
    return {
        "direct_mean_max": float(np.abs(mean_d).max()),
        "direct_second_max": float(np.abs(second_d - isotropic).max()),
        "compiled_mean_max": float(np.abs(mean_c).max()),
        "compiled_second_max": float(np.abs(second_c - isotropic).max()),
        "cross_mean_max": float(np.abs(mean_d - mean_c).max()),
        "cross_second_max": float(np.abs(second_d - second_c).max()),
    }
