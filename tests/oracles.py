"""Brute-force references shared by the test modules."""

import functools
import itertools
import math
import operator
from fractions import Fraction

import numpy as np

from framebc import engine, lattice, simple, so3

#: table angles per block of the sorted certificates' neighbour gaps
ANGLE_CHUNK = 1 << 16


def record_state(record) -> set[str]:
    """The names of all a record holds: its fields and what its __dict__ caches."""
    return set(record._fields) | set(vars(record))


def codebook_points(d: int, L: int) -> np.ndarray:
    """All decodable lattice points {0..L+1}^d as an (N, d) int64 array, in
    the lexicographic order of itertools.product(range(L + 2), repeat=d)."""
    return np.ascontiguousarray(np.indices((L + 2,) * d).reshape(d, -1).T)


def sorted_min_gap(d: int, L: int, angles) -> float:
    """The sorted-table certificate: the least neighbour gap of all codebook angles.

    Computes every (L+2)^d angle with `lattice.codebook_angles`, sorts them
    in place and takes the least `np.diff` an angle chunk at a time.
    """
    alphas = lattice.codebook_angles(d, L, np.asarray(angles))
    alphas.sort()
    return min(
        float(np.diff(alphas[i:i + ANGLE_CHUNK + 1]).min())
        for i in range(0, len(alphas) - 1, ANGLE_CHUNK)
    )


def sorted_exact_gap(d: int, L: int, angles) -> Fraction:
    """The sorted certificate taken exactly: the least exact gap over near-least neighbours.

    Sorts the `lattice.codebook_angles` table and keeps every neighbour pair
    whose float gap lies within 4 (2d + 1) u S of the least, u = 2^-53 and
    S = (L+1) * sum(angles); returns the least exact |(c' - c) . angles|
    over those pairs (c, c').  A float gap lies within (2d + 1) u S of its
    exact gap, to first order, and two codewords at the exact least gap G are
    neighbours in the table when G exceeds twice the table's rounding, so
    the result is G.
    """
    angles = np.asarray(angles)
    alphas = lattice.codebook_angles(d, L, angles)
    alphas.sort()
    starts = range(0, len(alphas) - 1, ANGLE_CHUNK)
    least = min(float(np.diff(alphas[i:i + ANGLE_CHUNK + 1]).min()) for i in starts)
    window = least + 4 * (2 * d + 1) * 2.0**-53 * (L + 1) * float(angles.sum())
    near = np.concatenate([
        i + np.flatnonzero(np.diff(alphas[i:i + ANGLE_CHUNK + 1]) <= window)
        for i in starts
    ])
    pairs = alphas[near], alphas[near + 1]
    del alphas
    # the lexicographic index of each pair end; the table's angles are distinct
    wanted, index = np.unique(np.concatenate(pairs)), {}
    table = lattice.codebook_angles(d, L, angles)
    for i in range(0, len(table), ANGLE_CHUNK):
        part = table[i:i + ANGLE_CHUNK]
        hit = wanted[np.minimum(np.searchsorted(wanted, part), len(wanted) - 1)] == part
        index.update(zip(part[hit].tolist(), (i + np.flatnonzero(hit)).tolist()))
    lo, hi = ([index[v] for v in values.tolist()] for values in pairs)
    shape = (L + 2,) * d
    steps = np.stack(np.unravel_index(hi, shape), 1) - np.stack(np.unravel_index(lo, shape), 1)
    exact = [Fraction(t) for t in angles.tolist()]
    return min(abs(sum(map(operator.mul, k, exact))) for k in set(map(tuple, steps.tolist())))


def exhaustive_min_gap(d: int, L: int, angles) -> Fraction:
    """The exact least |k . angles| over every lexicographically positive k in {-(L+1)..L+1}^d.

    Scales the angles to integers over their common power-of-two
    denominator and tries every k: (2L + 3)^d / 2 of them.
    """
    exact = [Fraction(t) for t in np.asarray(angles).tolist()]
    scale = max(t.denominator for t in exact)
    ints = [t.numerator * (scale // t.denominator) for t in exact]
    span = range(-(L + 1), L + 2)
    zero = (0,) * d
    return Fraction(min(
        abs(sum(map(operator.mul, k, ints)))
        for k in itertools.product(span, repeat=d) if k > zero
    ), scale)


@functools.lru_cache(maxsize=2)
def sorted_table(basis) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The sorted decode table of a basis: (order, angles, cos, sin).

    angles holds all (L+2)^d `lattice.codebook_angles`, sorted; order[k]
    is the lexicographic index of the codeword at angles[k]; cos and sin
    are np.cos and np.sin of the sorted angles.
    """
    alphas = lattice.codebook_angles(basis.d, basis.L, np.asarray(basis.angles))
    order = np.argsort(alphas)
    alphas = alphas[order]
    return order, alphas, np.cos(alphas), np.sin(alphas)


def sorted_table_decode(params, xyz) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-codeword decoding of (n, 3) rows by binary search in `sorted_table`.

    Scores the sorted positions 0, last, i and i - 1, i the insertion point
    of the received direction, in that order by squared distance in R^3,
    and keeps the first least.  Returns its lexicographic indices and the
    mask of the rows within eps_meas of their winner.
    """
    xyz = np.asarray(xyz, dtype=float).reshape(-1, 3)
    rx, ry, rz = xyz[:, 0], xyz[:, 1], xyz[:, 2]
    order, angles, cos_table, sin_table = sorted_table(params.basis)
    last = len(angles) - 1
    i = np.searchsorted(angles, np.arctan2(ry, rx) % (2.0 * math.pi))
    rz_sq = rz * rz

    def squared_distance(candidate):
        dx = rx - cos_table[candidate]
        dy = ry - sin_table[candidate]
        return dx * dx + dy * dy + rz_sq

    best = np.zeros_like(i)
    best_sq = squared_distance(0)
    for candidate in (last, np.minimum(i, last), np.maximum(i - 1, 0)):
        sq = squared_distance(candidate)
        closer = sq < best_sq
        best = np.where(closer, candidate, best)
        best_sq = np.where(closer, sq, best_sq)
    return order[best], best_sq <= params.eps_meas * params.eps_meas


def noise_events(d: int) -> list[tuple[int, int]]:
    """The 2d noise events (j, m) of the lattice channel, event (j, m) being its
    rotation row 2j + m - 1, rot_z(m * theta_j)."""
    return [(j, m) for j in range(d) for m in (1, 2)]


def parity_class(d: int, L: int, b: int):
    """Iterate the points of {0..L-1}^d with parity b."""
    for point in itertools.product(range(L), repeat=d):
        if sum(point) % 2 == b:
            yield point


def received_histograms(d: int, L: int) -> tuple[list[np.ndarray], list[int]]:
    """Bob's decoded-point counts for b = 0 and b = 1, with their denominators.

    Histogram b counts, on each point x of the (L+2)^d codebook grid, the
    (parity-b honest point a, noise event (j, m)) pairs with a + m*e_j = x;
    its denominator is the number of such pairs.  Enumerates all L^d * 2d.
    """
    # coordinate sum of every honest point, shape (L,) * d
    sums = sum(np.ix_(*[np.arange(L)] * d))
    hists, denominators = [], []
    for b in (0, 1):
        member = (sums % 2 == b).astype(np.int64)
        hist = np.zeros((L + 2,) * d, dtype=np.int64)
        for j in range(d):
            for m in (1, 2):
                hist[tuple(slice(m, m + L) if k == j else slice(0, L) for k in range(d))] += member
        hists.append(hist)
        denominators.append(int(member.sum()) * 2 * d)
    return hists, denominators


def histogram_laws(d: int, L: int) -> tuple[dict, dict]:
    """`received_histograms` as the two exact laws of Bob's decoded point."""
    hists, denominators = received_histograms(d, L)
    return tuple(
        {tuple(map(int, x)): Fraction(int(hist[x]), n) for x in zip(*np.nonzero(hist))}
        for hist, n in zip(hists, denominators)
    )


def concealing_by_enumeration(d: int, L: int) -> Fraction:
    """sum_x |h0 n1 - h1 n0| / (n0 n1) over the `received_histograms`."""
    (h0, h1), (n0, n1) = received_histograms(d, L)
    return Fraction(int(np.abs(h0 * n1 - h1 * n0).sum()), n0 * n1)


def verify_rows(params, decoded, revealed_b, revealed_a) -> np.ndarray:
    """`lattice.verify_reveal` over rows of (n, d) decoded and revealed points, n bits."""
    revealed_a = np.asarray(revealed_a)
    in_range = ((revealed_a >= 0) & (revealed_a <= params.L - 1)).all(axis=1)
    parity_ok = revealed_a.sum(axis=1) % 2 == np.asarray(revealed_b) % 2
    diff = np.asarray(decoded) - revealed_a
    bumps = np.count_nonzero(diff, axis=1)
    # with a single bump the row sum is that bump's value
    bump_value = diff.sum(axis=1)
    passes = (bumps == 1) & ((bump_value == 1) | (bump_value == 2))
    if params.predicate == "lenient":
        passes |= bumps == 0
    return in_range & parity_ok & passes


def soundness_by_point_decoding(params) -> Fraction:
    """Exact honest acceptance by decoding every rotated honest codeword to its point.

    Encodes all of {0..L-1}^d, rotates each payload by every channel
    rotation, decodes the L^d * 2d vectors to points with
    `sorted_table_decode` and tests each honest reveal with `verify_rows`.
    """
    d, L = params.d, params.L
    points = np.array(list(itertools.product(range(L), repeat=d)))
    payloads = lattice.encode_batch(params, points)
    rotations = lattice.lattice_mu(params).rotations
    received = np.concatenate([(r @ payloads[:, :, None])[:, :, 0] for r in rotations])
    revealed = np.tile(points, (len(rotations), 1))
    bits = revealed.sum(axis=1) % 2
    lex, ok = sorted_table_decode(params, received)
    decoded = np.stack(np.unravel_index(lex, (L + 2,) * d), axis=1)
    accepted = ok & verify_rows(params, decoded, bits, revealed)
    counts = [int(np.count_nonzero(accepted & (bits == b))) for b in (0, 1)]
    n0, n1 = (lattice.parity_class_size(d, L, b) * 2 * d for b in (0, 1))
    return Fraction(counts[0] * n1 + counts[1] * n0, 2 * n0 * n1)


def haar_twirl_moments_one_shot(samples: int, seed: int) -> dict[str, float]:
    """`engine.haar_twirl_moments` with each block drawn in one call.

    Holds the direct, Alice's and Bob's (samples, 3, 3) Haar stacks and the
    relative frames at once, and applies each stack to +x with einsum.
    """
    rng = np.random.default_rng(seed)
    v = np.array([1.0, 0.0, 0.0])
    direct = np.einsum("nij,j->ni", so3.haar_rotations(samples, rng), v)
    u_alice = so3.haar_rotations(samples, rng)
    u_bob = so3.haar_rotations(samples, rng)
    relative = np.matmul(u_bob.transpose(0, 2, 1), u_alice)
    compiled = np.einsum("nij,j->ni", relative, v)

    def moments(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return x.mean(axis=0), (x.T @ x) / len(x)

    mean_d, second_d = moments(direct)
    mean_c, second_c = moments(compiled)
    isotropic = np.eye(3) / 3.0
    return {
        "direct_mean_max": float(np.abs(mean_d).max()),
        "direct_second_max": float(np.abs(second_d - isotropic).max()),
        "compiled_mean_max": float(np.abs(mean_c).max()),
        "compiled_second_max": float(np.abs(second_c - isotropic).max()),
        "cross_mean_max": float(np.abs(mean_d - mean_c).max()),
        "cross_second_max": float(np.abs(second_d - second_c).max()),
    }


def four_symbol_channel_law(i: int) -> dict[int, Fraction]:
    """The four-symbol channel's law, written by hand: i or i+1 (mod 4), each 1/2."""
    return {i % 4: Fraction(1, 2), (i + 1) % 4: Fraction(1, 2)}


def four_symbol_rotation_law(i: int) -> dict[int, Fraction]:
    """The symbol law of `simple.four_symbol_mu`, by rotating symbol i's vector and decoding it."""
    law: dict[int, Fraction] = {}
    for rotation, prob in so3.enumerate_support(simple.four_symbol_mu()):
        out = simple.decode_symbol(rotation @ simple.symbol_vector(i))
        if out is None:
            raise RuntimeError("rotation realization left the codeword set")
        law[out] = law.get(out, Fraction(0)) + prob
    return law


def four_symbol_received_distribution(b: int) -> dict[int, Fraction]:
    """Law of Bob's received symbol given the committed bit b, a uniform, by the hand-written law."""
    dist: dict[int, Fraction] = {}
    for a in (0, 1):
        law = four_symbol_channel_law(simple.FourSymbolCodeword(a, b).symbol)
        for symbol, prob in law.items():
            dist[symbol] = dist.get(symbol, Fraction(0)) + Fraction(1, 2) * prob
    return dist


def engine_acceptance(params, payload, b: int, a) -> Fraction:
    """Bob's exact acceptance of the reveal (b, a) after Alice commits `payload`.

    The Accepted mass of `engine.transcript_distribution` over the session
    rotations of `lattice.lattice_mu(params)`, with Alice scripted.
    """
    script = engine.commit_reveal_script(payload, b, a)
    spec = lattice.lattice_protocol(params, b)._replace(
        make_alice=lambda: engine.ScriptedParty(engine.ALICE, script),
    )
    law = engine.transcript_distribution(spec)
    return sum((p for key, p in law.items() if key[-1] == engine.Accepted(b)), Fraction(0))


def soundness_by_engine(params) -> Fraction:
    """Honest acceptance, b uniform, by `engine_acceptance` of every honest point in {0..L-1}^d."""
    d, L = params.d, params.L
    accepted = [Fraction(0), Fraction(0)]
    for a in itertools.product(range(L), repeat=d):
        b = sum(a) % 2
        accepted[b] += engine_acceptance(params, lattice.encode(params, a), b, a)
    return sum(accepted[b] / lattice.parity_class_size(d, L, b) for b in (0, 1)) / 2
