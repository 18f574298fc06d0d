"""The lattice scheme end to end: encode, channel, decode, verify, attack.

A d-dimensional lattice point rides on a single plane vector through a
rationally independent angle basis.  The channel bumps exactly one
coordinate by 1 or 2; parity carries the committed bit.  Security improves
with both knobs: concealing tightens as L grows, binding as d grows.
"""

import numpy as np

from framebc import analysis, lattice, so3

d, L = 3, 8
params = lattice.make_params(d, L)
rng = np.random.default_rng(6)

print(f"== parameters (d={d}, L={L}) ==")
print("basis angles:", [round(t, 6) for t in params.angles])
print("codebook points:", lattice.codebook_size(d, L))
print("min angular gap:", params.basis.min_gap)
print("codeword separation:", params.basis.separation)
print("measurement tolerance (safe/4):", params.eps_meas)

print()
print("== one honest session, step by step ==")
b = 1
a, payload = lattice.commit(params, b, rng)
print("secret point:", tuple(int(x) for x in a), "parity", lattice.parity(a))
rotation = so3.sample(lattice.lattice_mu(params), rng)
received = rotation @ payload
decoded = lattice.decode_commit(params, received)
print("decoded after channel:", tuple(int(x) for x in decoded))
print("reveal verdict:", lattice.verify_reveal(params, decoded, b, a))

print()
print("== the channel is a coordinate bump ==")
law = {}
for _ in range(12):
    received = so3.sample(lattice.lattice_mu(params), rng) @ payload
    delta = tuple(int(x) for x in (lattice.decode_commit(params, received) - a))
    law[delta] = law.get(delta, 0) + 1
print("12 draws of (decoded - committed):", law)

print()
print("== exact security figures ==")
report = analysis.lattice_report(params)
print(report.to_text())

print("== binding search witnesses ==")
for predicate in ("lenient", "strict"):
    result = analysis.binding_search(params, predicate)
    print(
        f"{predicate}: best flip {result.probability} via commit "
        f"{result.commit_point} reveal {result.reveal_point}"
    )

print()
print("== committing off the codebook is useless ==")
table = np.sort(lattice.codebook_angles(d, L, np.asarray(params.angles)))
midpoint = so3.planar_unit((table[100] + table[101]) / 2)
fp = analysis.binding_search_finite_precision(params, midpoint)
print("midway vector decodes to:", fp.anchor, "best acceptance:", fp.overall)
