"""The continuous-angle scheme and its interpolation attack.

With the channel rotating by an angle uniform on [0, pi], the axis-codeword
scheme stays perfectly sound and concealing, but Alice can hedge: sending
the vector at angle alpha * pi/2 lets her later argue for bit 0 with
probability 1 - alpha/2 and for bit 1 with probability (1 + alpha)/2.
"""

import numpy as np

from framebc import analysis, engine, simple

print("== acceptance probabilities along the interpolation ==")
print("alpha  reveal-0  reveal-1  sum")
for row in analysis.cheat_curve_continuous([0.1 * k for k in range(11)], with_mc=False):
    p0, p1 = row.p0_exact, row.p1_exact
    print(f"{row.alpha:4.1f}  {p0:8.4f}  {p1:8.4f}  {p0 + p1:.4f}")

print()
print("== the hedged sweet spot at alpha = 1/2 ==")
p0, p1 = simple.interpolation_acceptance(0.5)
print(f"either bit convinces Bob with probability {p0}")

print()
print("== Monte Carlo agrees with the closed form ==")
rows = analysis.cheat_curve_continuous([0.0, 0.25, 0.5, 0.75, 1.0],
                                       trials=20_000, seed=4)
for row in rows:
    print(
        f"alpha={row.alpha:4.2f}: exact ({row.p0_exact:.4f}, {row.p1_exact:.4f})"
        f"  simulated ({row.p0_mc.rate:.4f}, {row.p1_mc.rate:.4f})"
    )

print()
print("== honest play reveals nothing early ==")
print("indicator law, b=0:", dict(simple.quadrant_indicator_distribution(0)))
print("indicator law, b=1:", dict(simple.quadrant_indicator_distribution(1)))

print()
print("== full sessions through the engine ==")
rng = np.random.default_rng(5)
spec = simple.continuous_protocol(a=1, b=0)
outcomes = [engine.run_session(spec, rng).outcome for _ in range(1000)]
print("honest acceptance:", sum(o == engine.Accepted(0) for o in outcomes), "/ 1000")
