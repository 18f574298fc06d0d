"""The four-symbol scheme: perfectly sound and concealing, 1/2-binding.

Symbols 0..3 are the planar axis vectors; committing to bit b sends symbol
2a + b for a random index bit a.  The channel's noise law mu is a rotation
law, the identity or a quarter turn about z, each half the time, so it
leaves a symbol alone or advances it one quadrant.  Every law below is read
from mu through the engine's exact session laws.
"""

from fractions import Fraction

import numpy as np

from framebc import analysis, engine, simple

rng = np.random.default_rng(1)


def received_law(codeword):
    """Law of the symbol Bob decodes from an honest commit, from his exact wire view."""
    spec = simple.four_symbol_protocol(codeword)
    law = {}
    for view, p in engine.bob_wire_view_distribution(spec).items():
        symbol = simple.decode_symbol(np.array(view[0][2]))
        law[symbol] = law.get(symbol, Fraction(0)) + p
    return law


print("== mu moves a symbol zero or one quadrant, each half the time ==")
for s in range(4):
    law = received_law(simple.FourSymbolCodeword.from_symbol(s))
    print(f"input {s}: received {dict(sorted(law.items()))}")
    assert law == {s: Fraction(1, 2), (s + 1) % 4: Fraction(1, 2)}

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
for b in (0, 1):
    mixed = {}
    for a in (0, 1):
        for symbol, p in received_law(simple.FourSymbolCodeword(a, b)).items():
            mixed[symbol] = mixed.get(symbol, Fraction(0)) + p / 2
    print(f"received-symbol law given b={b}:", dict(sorted(mixed.items())))
print("concealing distance:", analysis.four_symbol_concealing_exact())

print()
print("== but Alice can flip with probability 1/2 ==")
flip, (commit_symbol, reveal) = analysis.four_symbol_flip_cheat()
print(f"best flip: commit symbol {commit_symbol}, reveal (a={reveal.a}, b={reveal.b})"
      f" -> success {flip}")
spec = simple.four_symbol_spec(commit_symbol, reveal)
n = 20_000
wins = sum(isinstance(engine.run_session(spec, rng).outcome, engine.Accepted) for _ in range(n))
print(f"simulated flip success: {wins}/{n} = {wins/n:.4f}")
