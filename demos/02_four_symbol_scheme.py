"""The four-symbol scheme: perfectly sound and concealing, 1/2-binding.

Symbols 0..3 are the planar axis vectors; committing to bit b sends symbol
2a + b for a random index bit a.  The channel leaves a symbol alone or
advances it one quadrant, each half the time, and that channel is exactly
realized by a rotation channel (identity or quarter turn about z).
"""

import numpy as np

from framebc import analysis, engine, simple

rng = np.random.default_rng(1)

print("== the channel and its rotation realization agree exactly ==")
for s in range(4):
    law = simple.four_symbol_channel_law(s)
    realized = simple.four_symbol_rotation_law(s)
    print(f"input {s}: channel {dict(law)} rotation {dict(realized)}")
    assert law == realized

print()
print("== honest sessions always accept ==")
for a in (0, 1):
    for b in (0, 1):
        spec = simple.four_symbol_protocol(simple.FourSymbolCodeword(a, b))
        outcomes = {engine.run_session(spec, rng).outcome for _ in range(200)}
        assert outcomes == {engine.Accepted(b)}
print("800 honest sessions, all accepted")

print()
print("== Bob learns nothing before the reveal ==")
d0 = simple.four_symbol_received_distribution(0)
d1 = simple.four_symbol_received_distribution(1)
print("received-symbol law given b=0:", dict(d0))
print("received-symbol law given b=1:", dict(d1))
print("concealing distance:", analysis.four_symbol_concealing_exact())

print()
print("== but Alice can flip with probability 1/2 ==")
flip, (commit_symbol, reveal) = analysis.four_symbol_flip_cheat()
print(f"best flip: commit symbol {commit_symbol}, reveal (a={reveal.a}, b={reveal.b})"
      f" -> success {flip}")
cheat_script = engine.commit_reveal_script(
    simple.symbol_vector(commit_symbol), reveal.b, reveal.a
)
wins = 0
n = 20_000
for _ in range(n):
    spec = simple.four_symbol_protocol(simple.FourSymbolCodeword(0, 0))
    cheat = engine.ScriptedParty(engine.ALICE, cheat_script)
    t = engine.run_session(spec, rng, alice=cheat)
    wins += isinstance(t.outcome, engine.Accepted)
print(f"simulated flip success: {wins}/{n} = {wins/n:.4f}")
