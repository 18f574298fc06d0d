"""Security across the parameter grid: how d and L trade off.

Concealing (what Bob can infer early) tightens as L grows; binding (what
Alice can flip late) tightens as d grows.  Everything below is exact
rational arithmetic rendered as floats; the grid figures are read from
`lattice_report`, the same figures `framebc sweep` prints.
"""

from framebc import analysis, lattice

print("d  L   concealing  bound       flip(lenient)  flip(strict)")
for d in (1, 2, 3):
    for L in (4, 8, 16):
        figures = dict(analysis.lattice_report(lattice.make_params(d, L)).results)
        eps, bound = figures["concealing_exact"], figures["concealing_bound"]
        lenient, strict = figures["binding_flip_lenient"], figures["binding_flip_strict"]
        print(
            f"{d}  {L:2d}  {float(eps):10.6f}  {float(bound):10.6f}"
            f"  {float(lenient):13.6f}  {float(strict):12.6f}"
        )

print()
print("== the sum metric: how close to unbound can Alice get? ==")
for d in (2, 3, 5):
    params = lattice.make_params(d, 8)
    total, commit_point = analysis.binding_sum_max(params, "lenient")
    print(f"d={d}: best p0+p1 = {total} (={float(total):.4f}) at commit {commit_point}")
print("an ideally binding scheme pins this at 1; an unbound one reaches 2")

print()
print("== both knobs together ==")
for d, L in [(1, 4), (2, 8), (3, 16), (4, 16)]:
    figures = dict(analysis.lattice_report(lattice.make_params(d, L)).results)
    eps, flip = figures["concealing_exact"], figures["binding_flip_lenient"]
    print(f"d={d}, L={L:2d}: concealing {eps} = {float(eps):.4f},"
          f" flip {flip} = {float(flip):.4f}")
print("growing d and L together drives both figures toward zero,")
print("which is the asymptotic-security story at desk scale")
