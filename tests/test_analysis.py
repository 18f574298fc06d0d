import itertools
import math
import statistics
import tracemalloc
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from framebc import analysis, engine, lattice, simple, so3
from oracles import (
    concealing_by_enumeration,
    engine_acceptance,
    four_symbol_rotation_law,
    histogram_laws,
    noise_events,
    parity_class,
    record_state,
    sorted_table,
    soundness_by_engine,
    soundness_by_point_decoding,
)

# Exact concealing distances, frozen after first computation and confirmed by
# an independent boundary-count derivation: for even L the distance is 2/L
# regardless of d (the parity classes are balanced, and only the low-edge
# bump ambiguity and the top-corner overflow separate the two conditionals).
# Odd L leaves the classes unequal, and the distance is not 2/L.
CONCEALING_ANCHORS = {
    (2, 5): Fraction(35, 78),
    (3, 3): Fraction(9, 13),
    (1, 4): Fraction(1, 2),
    (1, 8): Fraction(1, 4),
    (1, 16): Fraction(1, 8),
    (2, 4): Fraction(1, 2),
    (2, 8): Fraction(1, 4),
    (2, 16): Fraction(1, 8),
    (3, 4): Fraction(1, 2),
    (3, 8): Fraction(1, 4),
    (3, 16): Fraction(1, 8),
}


# --- concealing ----------------------------------------------------------------

def test_concealing_d1_l2_hand_enumeration():
    # two lattice points, two noise outcomes each:
    #   b=0 -> a=(0) -> a' in {1, 2};  b=1 -> a=(1) -> a' in {2, 3}
    # distance = |1/2-0| + |1/2-1/2| + |0-1/2| = 1
    assert analysis.concealing_exact(1, 2) == Fraction(1)


def test_concealing_received_distributions_d1_l2():
    # the hand enumeration above, as the two laws the Fraction oracle gives
    p0, p1 = _received_law_oracle(1, 2)
    assert p0 == {(1,): Fraction(1, 2), (2,): Fraction(1, 2)}
    assert p1 == {(2,): Fraction(1, 2), (3,): Fraction(1, 2)}


@pytest.mark.parametrize("d,L", sorted(CONCEALING_ANCHORS))
def test_concealing_grid_regression(d, L):
    assert analysis.concealing_exact(d, L) == CONCEALING_ANCHORS[(d, L)]


@pytest.mark.parametrize("d,L", sorted(CONCEALING_ANCHORS))
def test_concealing_within_boundary_bound(d, L):
    eps = analysis.concealing_exact(d, L)
    assert eps <= analysis.concealing_bound_exact(d, L)


def test_concealing_bound_values():
    assert analysis.concealing_bound_exact(1, 4) == Fraction(1, 2)
    assert analysis.concealing_bound_exact(3, 8) == 1 - Fraction(7, 10) ** 3


def test_concealing_monotone_in_l():
    values = [analysis.concealing_exact(2, L) for L in (4, 8, 16)]
    assert values[0] > values[1] > values[2]


def _received_law_oracle(d: int, L: int) -> tuple[dict, dict]:
    # brute force with rational weights: every parity-b point, every noise event
    out = []
    for b in (0, 1):
        points = [a for a in itertools.product(range(L), repeat=d) if sum(a) % 2 == b]
        weight = Fraction(1, len(points) * 2 * d)
        law: dict[tuple[int, ...], Fraction] = {}
        for a in points:
            for j in range(d):
                for m in (1, 2):
                    x = a[:j] + (a[j] + m,) + a[j + 1:]
                    law[x] = law.get(x, Fraction(0)) + weight
        out.append(law)
    return out[0], out[1]


fraction_oracle_grid = pytest.mark.parametrize(
    "d,L", [(d, L) for d in (1, 2, 3) for L in range(2, 10)]
)


@fraction_oracle_grid
def test_concealing_histograms_match_fraction_oracle(d, L):
    # the histogram enumeration, the oracle that reaches d = 7, against the Fraction one
    p0, p1 = _received_law_oracle(d, L)
    assert histogram_laws(d, L) == (p0, p1)
    assert concealing_by_enumeration(d, L) == analysis.distribution_distance(p0, p1)


@fraction_oracle_grid
def test_concealing_closed_form_matches_fraction_oracle(d, L):
    assert analysis.concealing_exact(d, L) == analysis.distribution_distance(*_received_law_oracle(d, L))


# the largest enumerations, (4, 16), (6, 8) and (7, 4), and odd L at every d
# from 2 to 7, from (7, 3) to (2, 31)
HISTOGRAM_ORACLE_GRID = [
    (4, 16), (6, 8), (7, 4), (7, 3), (7, 5), (6, 5), (5, 7), (4, 9), (4, 11), (5, 6), (3, 15),
    (2, 31),
]


@pytest.mark.parametrize("d,L", HISTOGRAM_ORACLE_GRID)
def test_concealing_closed_form_matches_histogram_oracle(d, L):
    assert analysis.concealing_exact(d, L) == concealing_by_enumeration(d, L)


@pytest.mark.parametrize("d", [1, 2, 5, 12, 40])
def test_concealing_is_two_over_l_for_even_l(d):
    # far beyond the enumeration budget: (40, 200) has 200^40 honest points
    for L in (2, 4, 6, 10, 16, 64, 200):
        assert analysis.concealing_exact(d, L) == Fraction(2, L), (d, L)


def test_concealing_pinned_beyond_budget():
    assert analysis.concealing_exact(5, 16) == Fraction(1, 8)
    assert analysis.concealing_exact(20, 1000) == Fraction(1, 500)


def test_concealing_rejects_bad_sizes():
    for d, L in ((0, 4), (2, 1)):
        with pytest.raises(ValueError):
            analysis.concealing_exact(d, L)


def test_concealing_bound_rejects_bad_sizes():
    for d, L in ((-1, 4), (0, 4), (2, 1)):
        with pytest.raises(ValueError):
            analysis.concealing_bound_exact(d, L)


@pytest.mark.parametrize("d,L", [(1, 2), (2, 4), (2, 3)])
def test_concealing_geometric_oracle(d, L):
    # independent route: enumerate the actual rotations, encode, rotate,
    # decode, and accumulate exact probabilities; must match the coordinate
    # law of the Fraction oracle, well, exactly
    params = lattice.make_params(d, L)
    support = so3.enumerate_support(lattice.lattice_mu(params))
    for b in (0, 1):
        size = lattice.parity_class_size(d, L, b)
        geometric: dict[tuple, Fraction] = {}
        for a in parity_class(d, L, b):
            payload = lattice.encode(params, a)
            for rotation, prob in support:
                decoded = lattice.decode_commit(params, rotation @ payload)
                assert decoded is not None
                key = tuple(int(x) for x in decoded)
                geometric[key] = geometric.get(key, Fraction(0)) + prob * Fraction(1, size)
        assert geometric == _received_law_oracle(d, L)[b]


# --- binding ---------------------------------------------------------------------

# (6, 8) and (9, 2) reach past the dimensions the brute-force oracle covers;
# the d <= 5 cases keep their d-only test ids
binding_grid = pytest.mark.parametrize(
    "d,L", [(2, 8), (3, 8), (4, 8), (5, 8), (6, 8), (9, 2)],
    ids=["2", "3", "4", "5", "6-8", "9-2"],
)


@binding_grid
def test_binding_lenient_is_one_over_d(d, L):
    params = lattice.make_params(d, L)
    result = analysis.binding_search(params, "lenient")
    assert result.probability == Fraction(1, d)


@binding_grid
def test_binding_strict_is_one_over_2d(d, L):
    params = lattice.make_params(d, L)
    result = analysis.binding_search(params, "strict")
    assert result.probability == Fraction(1, 2 * d)


def test_binding_d1_degenerate():
    params = lattice.make_params(1, 8)
    assert analysis.binding_search(params, "lenient").probability == Fraction(1)
    assert analysis.binding_search(params, "strict").probability == Fraction(1, 2)


@pytest.mark.parametrize("d,L", [(2, 4), (3, 8), (2, 16)])
def test_binding_lenient_dominates_strict(d, L):
    params = lattice.make_params(d, L)
    lenient = analysis.binding_search(params, "lenient").probability
    strict = analysis.binding_search(params, "strict").probability
    assert lenient >= strict


def test_binding_witness_is_a_valid_flip():
    params = lattice.make_params(3, 8)
    result = analysis.binding_search(params, "lenient")
    commit = np.array(result.commit_point)
    reveal = np.array(result.reveal_point)
    assert lattice.parity(reveal) == result.reveal_bit
    assert lattice.parity(commit) != lattice.parity(reveal)
    assert np.abs(reveal - commit).max() <= 2


def test_binding_witness_matches_engine_simulation():
    # replay the found strategy through the actual protocol machinery
    params = lattice.make_params(3, 8, predicate="lenient")
    result = analysis.binding_search(params, "lenient")
    spec = lattice.lattice_protocol(params, 0)
    rng = np.random.default_rng(42)
    n = 20_000
    wins = 0
    for _ in range(n):
        cheat = lattice.CheatingLatticeAlice(
            params,
            lattice.encode(params, result.commit_point),
            result.reveal_bit,
            result.reveal_point,
        )
        t = engine.run_session(spec, rng, alice=cheat)
        wins += t.outcome == engine.Accepted(result.reveal_bit)
    p = float(result.probability)
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(wins / n - p) <= 4 * sigma


def test_binding_sum_metric():
    params = lattice.make_params(3, 8)
    total, _ = analysis.binding_sum_max(params, "lenient")
    assert total == 1 + Fraction(1, 3)
    total_strict, _ = analysis.binding_sum_max(params, "strict")
    assert total_strict == 1 + Fraction(1, 6)


def _brute_force_binding(params, predicate):
    """Unreduced per-commit binding counts, for cross-checking the reduced search.

    Every commit point in {0..L+1}^d against every reveal in {0..L-1}^d,
    each scored over the 2d noise events with `verify_reveal`.  Maps each
    commit point to its best count for reveal bit 0 and for reveal bit 1.
    """
    d, L = params.d, params.L
    reveals = list(itertools.product(range(L), repeat=d))
    bits = np.array([sum(r) % 2 for r in reveals])
    # passes[x][k]: Bob, having decoded x, accepts the reveal reveals[k]
    passes = {
        x: np.array([
            lattice.verify_reveal(params, x, sum(r) % 2, r, predicate=predicate)
            for r in reveals
        ])
        for x in itertools.product(range(L + 2), repeat=d)
    }
    best = {}
    for commit in passes:
        counts = np.zeros(len(reveals), dtype=int)
        for j in range(d):
            for m in (1, 2):
                decoded = list(commit)
                decoded[j] += m
                if decoded[j] <= L + 1:
                    counts += passes[tuple(decoded)]
        best[commit] = (int(counts[bits == 0].max()), int(counts[bits == 1].max()))
    return best


@pytest.mark.parametrize("predicate", ["strict", "lenient"])
@pytest.mark.parametrize("d,L", [(d, L) for d in (1, 2, 3) for L in range(2, 8)])
def test_binding_reductions_match_brute_force(d, L, predicate):
    params = lattice.make_params(d, L)
    brute = _brute_force_binding(params, predicate)
    flips = {c: per_bit[1 - sum(c) % 2] for c, per_bit in brute.items()}
    totals = {c: sum(per_bit) for c, per_bit in brute.items()}
    flip, total = max(flips.values()), max(totals.values())
    result = analysis.binding_search(params, predicate)
    assert result.probability == Fraction(flip, 2 * d)
    assert analysis.binding_sum_max(params, predicate) == (
        Fraction(total, 2 * d), result.commit_point
    )
    # the witness commit is the lexicographically first commit reaching each maximum
    assert result.commit_point == min(c for c in brute if flips[c] == flip)
    assert result.commit_point == min(c for c in brute if totals[c] == total)


def _reference_accepting_reveals(params, decoded, predicate):
    # the scalar reveal list the batched scorer replaced
    point = tuple(int(x) for x in decoded)
    reveals = [point] if predicate == "lenient" else []
    for k in range(params.d):
        for bump in (1, 2):
            reveals.append(point[:k] + (point[k] - bump,) + point[k + 1:])
    return [r for r in reveals if min(r) >= 0 and max(r) <= params.L - 1]


def _reference_best_reveals(params, events, predicate):
    # count the accepting reveals of every decoded event (None: no decode),
    # then keep the best of each parity, ties to the smallest reveal
    counts = Counter()
    for decoded in events:
        if decoded is not None:
            counts.update(_reference_accepting_reveals(params, decoded, predicate))
    best = {0: (0, None), 1: (0, None)}
    for reveal in sorted(counts):
        bit = sum(reveal) % 2
        if counts[reveal] > best[bit][0]:
            best[bit] = (counts[reveal], reveal)
    return best


def _reference_binding(params, predicate):
    """The scalar per-commit scan: binding_search's four fields, binding_sum_max's two.

    It scans a wider 11-value coordinate set than the one-per-class scan, so
    several members of a class compete and the first maximum must still be
    the class's smallest member.
    """
    d, L = params.d, params.L
    values = sorted(
        v for v in {0, 1, 2, 3, L // 2, L - 4, L - 3, L - 2, L - 1, L, L + 1} if 0 <= v <= L + 1
    )
    flip = (0, None, None)
    total = (-1, None)
    for commit in itertools.combinations_with_replacement(values, d):
        events = []
        for j, m in noise_events(params.d):
            decoded = commit[:j] + (commit[j] + m,) + commit[j + 1:]
            events.append(decoded if decoded[j] <= L + 1 else None)
        best = _reference_best_reveals(params, events, predicate)
        count, reveal = best[1 - sum(commit) % 2]
        if count > flip[0]:
            flip = (count, commit, reveal)
        if best[0][0] + best[1][0] > total[0]:
            total = (best[0][0] + best[1][0], commit)
    search = analysis.BindingSearchResult(
        Fraction(flip[0], 2 * d), flip[1], flip[2], sum(flip[2]) % 2
    )
    return search, (Fraction(total[0], 2 * d), total[1])


# sizes scored from the shape alone, past what the tests certify
SHAPE_ONLY_SIZES = [(7, 2), (10, 3), (3, 100), (2, 1000)]


@pytest.mark.parametrize("predicate", ["strict", "lenient"])
@pytest.mark.parametrize(
    "d,L",
    [(d, L) for d in (1, 2, 3) for L in range(2, 10)]
    + [(4, 8), (4, 16), (5, 8), (6, 8), (9, 2)]
    + SHAPE_ONLY_SIZES,
)
def test_batched_binding_matches_scalar_reference(d, L, predicate):
    # figures and witnesses, with the first maximum winning every tie
    if (d, L) in SHAPE_ONLY_SIZES:
        params = SimpleNamespace(d=d, L=L, predicate=predicate)
    else:
        params = lattice.make_params(d, L)
    search, sum_max = _reference_binding(params, predicate)
    assert analysis.binding_search(params, predicate) == search
    assert analysis.binding_sum_max(params, predicate) == sum_max


def _replayed_flip(shape, result, predicate):
    # the share of the 2d noise events whose decodable point accepts the witness reveal
    accepted = 0
    for j, m in noise_events(shape.d):
        decoded = list(result.commit_point)
        decoded[j] += m
        accepted += decoded[j] <= shape.L + 1 and lattice.verify_reveal(
            shape, decoded, result.reveal_bit, result.reveal_point, predicate
        )
    return Fraction(accepted, 2 * shape.d)


@pytest.mark.parametrize("d, L", [(6, 1000), (9, 100), (40, 10**6)])
def test_binding_past_the_old_int64_key_limit(d, L):
    # L**d is not a power of two and 256 * L**d >= 2**63: sizes whose packed
    # (row, parity, rank) reveal key wrapped or overflowed int64
    assert 256 * L**d >= 2**63 and L & (L - 1)
    shape = SimpleNamespace(d=d, L=L, predicate="lenient")
    for predicate, flip in (("lenient", Fraction(1, d)), ("strict", Fraction(1, 2 * d))):
        result = analysis.binding_search(shape, predicate)
        assert result.probability == flip
        assert result.reveal_bit != sum(result.commit_point) % 2
        assert _replayed_flip(shape, result, predicate) == flip
    assert analysis.binding_sum_max(shape)[0] == 1 + Fraction(1, d)
    assert analysis.binding_sum_max(shape, "strict")[0] == 1 + Fraction(1, 2 * d)


@pytest.mark.parametrize("bad", ["bogus", "Lenient", ""])
def test_every_predicate_override_is_validated(bad):
    # at (3, 8) "Lenient" used to score as strict: 1/6 where lenient is 1/3
    params = lattice.make_params(3, 8)
    point = np.array([1, 2, 3])
    calls = [
        lambda: lattice.verify_reveal(params, point, 0, point, predicate=bad),
        lambda: lattice.accepting_reveals(params, point, bad),
        lambda: analysis.binding_search(params, bad),
        lambda: analysis.binding_sum_max(params, bad),
        lambda: analysis.binding_search_finite_precision(
            params, lattice.encode(params, point), bad
        ),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="predicate must be one of"):
            call()


def test_binding_scan_runs_below_the_key_limit():
    # binding reads only (d, L, predicate): no certified codebook exists at (7, 8)
    shape = SimpleNamespace(d=7, L=8, predicate="lenient")
    assert analysis.binding_search(shape).probability == Fraction(1, 7)


def test_binding_rejects_bad_sizes():
    # the proof needs L >= 2, so that the witness reveal e_{d-1} is in range
    for d, L in ((0, 4), (2, 1)):
        shape = SimpleNamespace(d=d, L=L, predicate="lenient")
        for call in (analysis.binding_search, analysis.binding_sum_max):
            with pytest.raises(ValueError, match="need"):
                call(shape)


# witnesses of the unreduced 11-value scan, frozen before it shrank to one commit per class
BINDING_WITNESSES = {
    (6, 8, "lenient"): (Fraction(1, 6), (0,) * 6, (0, 0, 0, 0, 0, 1), Fraction(7, 6)),
    (6, 8, "strict"): (Fraction(1, 12), (0,) * 6, (0, 0, 0, 0, 0, 1), Fraction(13, 12)),
    (4, 16, "lenient"): (Fraction(1, 4), (0,) * 4, (0, 0, 0, 1), Fraction(5, 4)),
    (4, 16, "strict"): (Fraction(1, 8), (0,) * 4, (0, 0, 0, 1), Fraction(9, 8)),
}


@pytest.mark.parametrize("d,L,predicate", sorted(BINDING_WITNESSES))
def test_binding_witnesses_pinned(d, L, predicate):
    probability, commit, reveal, total = BINDING_WITNESSES[d, L, predicate]
    params = lattice.make_params(d, L)
    assert analysis.binding_search(params, predicate) == analysis.BindingSearchResult(
        probability, commit, reveal, 1
    )
    assert analysis.binding_sum_max(params, predicate) == (total, commit)


# --- finite precision ------------------------------------------------------------

@pytest.fixture(scope="module")
def fp_params():
    return lattice.make_params(3, 8, predicate="lenient")


def test_finite_precision_near_codeword_equals_codeword(fp_params):
    params = fp_params
    a = (2, 3, 4)
    v = lattice.encode(params, a)
    tangent = np.array([-v[1], v[0], 0.0])
    w = v + tangent * (params.eps_meas / 2)
    w /= np.linalg.norm(w)
    result = analysis.binding_search_finite_precision(params, w)
    assert result.anchor == a
    assert result.flip_probability == analysis.binding_search(params, "lenient").probability
    assert result.overall == Fraction(1)  # the honest reveal is still available


def test_finite_precision_midpoint_scores_zero(fp_params):
    params = fp_params
    angles = sorted_table(params.basis)[1]
    mid = so3.planar_unit((angles[100] + angles[101]) / 2)
    result = analysis.binding_search_finite_precision(params, mid)
    assert result.anchor is None
    assert result.overall == Fraction(0)


def test_finite_precision_out_of_plane_scores_zero(fp_params):
    result = analysis.binding_search_finite_precision(
        fp_params, np.array([0.0, 0.0, 1.0])
    )
    assert result.anchor is None and result.overall == Fraction(0)


def _extended_angle_table(params):
    import itertools

    angles = np.asarray(params.basis.angles)
    pts = np.array(
        list(itertools.product(range(-2, params.L + 2), repeat=params.d)), dtype=float
    )
    return np.sort(pts @ angles)


def test_finite_precision_random_sweep(fp_params):
    # random unit vectors clear of the extended formal codebook never decode;
    # the flip probability respects the 1/d cap for every sampled vector
    params = fp_params
    extended = _extended_angle_table(params)
    rng = np.random.default_rng(42)
    cap = Fraction(1, params.d)
    checked_zero = 0
    for _ in range(100):
        phi = float(rng.uniform(0, 2 * math.pi))
        w = so3.planar_unit(phi)
        result = analysis.binding_search_finite_precision(params, w)
        assert result.flip_probability <= cap + Fraction(1, 10**12)
        gap = np.abs(extended - phi).min()
        if 2 * math.sin(gap / 2) > params.eps_meas:
            assert result.overall == Fraction(0)
            checked_zero += 1
    assert checked_zero >= 90  # the codebook is thin on the circle


def test_finite_precision_formal_extension_family(fp_params):
    # committing within eps of a formal point with one negative coordinate is
    # the one family of off-codebook vectors that can score at all; it tops
    # out exactly at the 1/d (lenient) and 1/(2d) (strict) caps
    params = fp_params
    theta = params.basis.angles
    w = so3.planar_unit(-theta[0] + 3 * theta[1] + 4 * theta[2])
    lenient = analysis.binding_search_finite_precision(params, w, "lenient")
    assert lenient.anchor is None
    assert lenient.overall == Fraction(1, 3)
    strict = analysis.binding_search_finite_precision(params, w, "strict")
    assert strict.overall == Fraction(1, 6)


def test_finite_precision_extended_codebook_separable():
    # the extended formal codebook is denser than the real one (gap ratio
    # about 0.18 at d=3, L=8), so the default eps does not certify eps-ball
    # uniqueness over formal points; a smaller tolerance does, and under it
    # the family caps still hold exactly
    basis = lattice.build_angle_basis(3, 8)
    params = lattice.LatticeParams(basis, eps_meas=basis.max_safe_eps / 16,
                                   predicate="lenient")
    extended = _extended_angle_table(params)
    min_gap = float(np.diff(extended).min())
    assert min_gap > 0
    assert 2 * math.sin(min_gap / 2) > 2 * params.eps_meas
    theta = basis.angles
    w = so3.planar_unit(-theta[0] + 3 * theta[1] + 4 * theta[2])
    result = analysis.binding_search_finite_precision(params, w)
    assert result.overall == Fraction(1, 3)


def test_finite_precision_requires_unit_vector(fp_params):
    for bad in ([2.0, 0.0, 0.0], [math.nan, 0.0, 0.0], [math.inf, 0.0, 0.0],
                [1.0, math.nan, 0.0]):
        with pytest.raises(ValueError, match="unit vector"):
            analysis.binding_search_finite_precision(fp_params, np.array(bad))


def _reference_finite_precision(params, w, predicate):
    # each rotated event through the scalar decoder, scored by the scalar reference
    events = []
    for j, m in noise_events(params.d):
        decoded = lattice.decode_commit(params, so3.rot_z(m * params.angles[j]) @ w)
        events.append(None if decoded is None else tuple(int(x) for x in decoded))
    best = _reference_best_reveals(params, events, predicate)
    return {bit: (Fraction(count, 2 * params.d), reveal) for bit, (count, reveal) in best.items()}


@pytest.mark.parametrize("predicate", ["strict", "lenient"])
def test_finite_precision_matches_scalar_reference(fp_params, predicate):
    # the vectors of the finite-precision tests above
    params = fp_params
    theta = params.basis.angles
    v = lattice.encode(params, (2, 3, 4))
    near = v + np.array([-v[1], v[0], 0.0]) * (params.eps_meas / 2)
    formal = so3.planar_unit(-theta[0] + 3 * theta[1] + 4 * theta[2])
    table = sorted_table(params.basis)[1]
    vectors = [
        near / np.linalg.norm(near),
        so3.planar_unit((table[100] + table[101]) / 2),
        np.array([0.0, 0.0, 1.0]),
        formal,
    ]
    rng = np.random.default_rng(42)
    vectors += [so3.planar_unit(float(rng.uniform(0, 2 * math.pi))) for _ in range(100)]
    fine = lattice.LatticeParams(params.basis, eps_meas=params.basis.max_safe_eps / 16)
    scoring = 0
    for p, w in [(params, w) for w in vectors] + [(fine, formal)]:
        result = analysis.binding_search_finite_precision(p, w, predicate)
        expected = _reference_finite_precision(p, w, predicate)
        assert result.best_reveal == expected
        assert result.overall == max(expected[0][0], expected[1][0])
        scoring += result.overall > 0
    assert scoring >= 3


# --- soundness ------------------------------------------------------------------

@pytest.mark.parametrize("d,L", [(1, 4), (2, 4), (3, 8), (4, 16), (5, 8)])
def test_lattice_soundness_exact_is_one(d, L):
    params = lattice.make_params(d, L)
    assert analysis.lattice_soundness_exact(params) == Fraction(1)


def test_lattice_soundness_exact_counts_rejections():
    # at eps = 0 a rotated codeword decodes only when it lands on its table
    # entry bit for bit; the count must match the scalar encode/decode path
    basis = lattice.build_angle_basis(2, 5)
    params = lattice.LatticeParams(basis, eps_meas=0.0)
    accepted = Fraction(0)
    for b in (0, 1):
        size = lattice.parity_class_size(2, 5, b)
        for a in parity_class(2, 5, b):
            for j, m in noise_events(params.d):
                received = so3.rot_z(m * params.angles[j]) @ lattice.encode(params, a)
                decoded = lattice.decode_commit(params, received)
                if decoded is not None and lattice.verify_reveal(params, decoded, b, a):
                    accepted += Fraction(1, 2 * size * 2 * 2)
    assert 0 < accepted < 1
    assert analysis.lattice_soundness_exact(params) == accepted


@pytest.mark.parametrize(
    "d,L", [(1, 2), (2, 4), (2, 5), (3, 4), (3, 8), (4, 3), (3, 16), (4, 16), (5, 4), (6, 5)]
)
def test_lattice_soundness_exact_matches_point_decoding(d, L):
    # the index-space enumeration against decoding every rotated honest
    # codeword to its point and testing the reveal coordinate by coordinate
    basis = lattice.build_angle_basis(d, L)
    floor = lattice.soundness_floor(d)
    below = (0.0, floor / 2, math.nextafter(floor, 0.0))  # where rounding decides
    for eps in below + (floor, basis.max_safe_eps / 4, 0.9999 * basis.max_safe_eps):
        for predicate in lattice.PREDICATES:
            params = lattice.LatticeParams(basis, eps, predicate)
            assert analysis.lattice_soundness_exact(params) == soundness_by_point_decoding(params)


@pytest.mark.parametrize(
    "d,L,zero_eps",
    [(1, 4, Fraction(3, 8)), (2, 5, Fraction(595, 1248)), (3, 4, Fraction(23, 64)),
     (3, 8, Fraction(1057, 3072))],
)
def test_lattice_figures_match_engine_laws(d, L, zero_eps):
    # soundness and the flip witness from the engine's exact session laws
    # under lattice_mu, with every honest commit scripted, at eps = 0 and the default
    for predicate in lattice.PREDICATES:
        for eps, expected in ((0.0, zero_eps), (None, 1)):
            params = lattice.make_params(d, L, eps_meas=eps, predicate=predicate)
            exact = analysis.lattice_soundness_exact(params)
            assert soundness_by_engine(params) == exact == expected
        witness = analysis.binding_search(params)
        payload = lattice.encode(params, witness.commit_point)
        accepted = engine_acceptance(params, payload, witness.reveal_bit, witness.reveal_point)
        share = Fraction(2 if predicate == "lenient" else 1, 2 * d)
        assert accepted == witness.probability == share


@pytest.mark.parametrize(
    "d,L",
    [(1, 2), (2, 4), (2, 5), (3, 4), (3, 8), (4, 3), (3, 16), (4, 16), (5, 4), (6, 5), (1, 4),
     (5, 8)],
)
def test_soundness_enumeration_reads_one_where_certified(d, L):
    # the enumeration the certificate skips, at the floor and at every
    # certified eps the soundness tests use (max_safe_eps / 4 is the default)
    basis = lattice.build_angle_basis(d, L)
    assert (L + 1) * sum(basis.angles) < 2  # the floor's bound A on every codebook angle
    for eps in (lattice.soundness_floor(d), basis.max_safe_eps / 4, 0.9999 * basis.max_safe_eps):
        for predicate in lattice.PREDICATES:
            params = lattice.LatticeParams(basis, eps, predicate)
            assert analysis.lattice_soundness_exact(params) == 1
            assert analysis._soundness_enumerated(params) == 1


def test_certified_soundness_builds_no_decode_table():
    params = lattice.make_params(3, 8)
    assert params.eps_meas >= lattice.soundness_floor(3)
    assert analysis.lattice_soundness_exact(params) == 1
    assert "_split" not in record_state(params.basis)


@pytest.mark.parametrize(
    "d,L,predicate,expected",
    [
        (2, 5, "lenient", Fraction(595, 1248)),
        (3, 4, "strict", Fraction(23, 64)),
        (4, 16, "lenient", Fraction(97225, 262144)),
        (6, 8, "lenient", Fraction(117973, 393216)),
    ],
)
def test_lattice_soundness_exact_pinned_at_zero_eps(d, L, predicate, expected):
    # at eps = 0 only bit-exact decodes accept, so these count the float rounding
    params = lattice.make_params(d, L, eps_meas=0.0, predicate=predicate)
    assert analysis.lattice_soundness_exact(params) == expected


@pytest.mark.parametrize(
    "run,tables",
    [
        # eps = 0 lies below the certificate's floor, so this enumerates, decoding nothing
        (lambda p: analysis.lattice_soundness_exact(lattice.LatticeParams(p.basis, 0.0)), set()),
        (lambda p: analysis.lattice_soundness_mc(p, 5000, seed=2), {"_split"}),
    ],
    ids=["exact", "mc"],
)
def test_soundness_builds_no_point_table(run, tables):
    params = lattice.make_params(3, 8)
    run(params)
    assert record_state(params.basis) == {"d", "L", "angles", "min_gap", "_mu"} | tables


def test_lattice_soundness_exact_memory_bound():
    # 10^6 codewords, but the enumeration builds no decode table and peaks
    # at 5.6 MiB traced.  A sorted table of all codewords (32 MB
    # with its order, cosines and sines), the int64 point table (48 MB) or
    # any full-length (N, d) int64 array would pass the 8 MiB bound.  It runs
    # at the largest eps below the certificate's floor, which the
    # enumeration decides; soundness is 1
    params = lattice.make_params(6, 8, eps_meas=math.nextafter(lattice.soundness_floor(6), 0.0))
    tracemalloc.start()
    try:
        assert analysis.lattice_soundness_exact(params) == 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert "_split" not in record_state(params.basis)


def test_soundness_below_the_floor_refuses_an_uncovered_basis():
    # a basis whose max_safe_eps does not exceed the floor is outside the
    # lemma the enumeration rests on, so it is refused before any point is encoded
    basis = lattice.build_angle_basis(3, 8)
    forged = lattice.AngleBasis(3, 8, basis.angles, min_gap=1e-15)
    assert forged.max_safe_eps <= lattice.soundness_floor(3)
    params = lattice.LatticeParams(forged, eps_meas=0.0)
    with pytest.raises(ValueError, match=r"soundness_floor\(3\)"):
        analysis.lattice_soundness_exact(params)
    assert record_state(forged) == {"d", "L", "angles", "min_gap"}


def test_soundness_budget_guard():
    # the budget caps the enumeration below the floor; from the floor up the
    # figure is proved, at any budget and with no decode table
    params = lattice.make_params(2, 4)
    below = lattice.LatticeParams(params.basis, eps_meas=0.0)
    with pytest.raises(lattice.BudgetExceededError, match="size 64 exceeds budget 10"):
        analysis.lattice_soundness_exact(below, budget=10)
    assert analysis.lattice_soundness_exact(params, budget=10) == 1
    assert "_split" not in record_state(params.basis)


def test_lattice_soundness_monte_carlo():
    params = lattice.make_params(3, 8)
    estimate = analysis.lattice_soundness_mc(params, trials=10_000, seed=42)
    assert estimate.successes == estimate.trials == 10_000
    lo, hi = estimate.interval99
    assert hi == 1.0 and lo > 0.999


@pytest.mark.parametrize("d, L", [(3, 5), (2, 7)])
def test_lattice_soundness_monte_carlo_odd_l(d, L):
    # odd L has unequal parity classes, so the honest point needs an exact class draw
    estimate = analysis.lattice_soundness_mc(lattice.make_params(d, L), trials=10_000, seed=42)
    assert estimate.successes == estimate.trials == 10_000


@pytest.mark.parametrize("d, L", [(3, 8), (3, 5)])
def test_lattice_soundness_mc_agrees_with_sessions_at_zero_eps(d, L):
    # at eps = 0 only bit-exact decodes accept, about a third of them; engine
    # sessions are the independent geometric oracle for the batched path
    params = lattice.make_params(d, L, eps_meas=0.0)
    n = 10_000
    estimate = analysis.lattice_soundness_mc(params, trials=n, seed=11)
    rng = np.random.default_rng(12)
    specs = [lattice.lattice_protocol(params, b) for b in (0, 1)]
    accepted = sum(
        engine.run_session(specs[b], rng).outcome == engine.Accepted(b)
        for b in rng.integers(2, size=n).tolist()
    )
    session_lo, session_hi = analysis.wilson_interval(accepted, n)
    mc_lo, mc_hi = estimate.interval99
    assert 0.2 < estimate.rate < 0.5
    assert session_lo <= estimate.rate <= session_hi
    assert mc_lo <= accepted / n <= mc_hi
    assert mc_lo <= analysis.lattice_soundness_exact(params) <= mc_hi


def test_lattice_soundness_mc_stream_pinned():
    params = lattice.make_params(3, 8, eps_meas=0.0)
    assert analysis.lattice_soundness_mc(params, trials=20_000, seed=1).successes == 6867


@pytest.mark.parametrize("d, L", [(3, 8), (2, 5)])
def test_lattice_soundness_mc_replays_scalar_path(d, L):
    # replay the documented draw order of one chunk through the scalar encode,
    # rotation, decode_commit and verify_reveal: every trial must agree
    params = lattice.make_params(d, L, eps_meas=0.0)
    n = 1500
    rng = np.random.default_rng(3)
    bits = rng.integers(2, size=n)
    points = rng.integers(L, size=(n, d))
    redraw = np.flatnonzero(points.sum(axis=1) % 2 != bits)
    while len(redraw):
        points[redraw] = rng.integers(L, size=(len(redraw), d))
        redraw = redraw[points[redraw].sum(axis=1) % 2 != bits[redraw]]
    events = rng.integers(2 * d, size=n)
    rotations = [so3.rot_z(m * params.angles[j]) for j, m in noise_events(params.d)]
    accepted = 0
    for b, a, k in zip(bits.tolist(), points.tolist(), events.tolist()):
        assert sum(a) % 2 == b and all(0 <= x < L for x in a)
        decoded = lattice.decode_commit(params, rotations[k] @ lattice.encode(params, a))
        accepted += decoded is not None and lattice.verify_reveal(params, decoded, b, a)
    assert 0 < accepted < n
    assert analysis.lattice_soundness_mc(params, trials=n, seed=3).successes == accepted


@pytest.mark.parametrize("trials", [0, -3])
def test_estimators_refuse_no_trials(trials):
    params = lattice.make_params(2, 4)
    for estimate in (
        lambda: analysis.lattice_soundness_mc(params, trials, seed=1),
        lambda: analysis.four_symbol_soundness_mc(trials, seed=1),
        lambda: analysis.continuous_acceptance_mc(0.5, 0, trials, seed=1),
    ):
        with pytest.raises(ValueError, match="need at least one trial"):
            estimate()


def test_invalid_eps_fails_before_any_run():
    basis = lattice.build_angle_basis(2, 4)
    with pytest.raises(ValueError, match="separation"):
        lattice.LatticeParams(basis, eps_meas=basis.max_safe_eps * 4)


# --- four-symbol figures -----------------------------------------------------------

def test_four_symbol_exact_figures():
    assert analysis.four_symbol_concealing_exact() == Fraction(0)
    assert analysis.four_symbol_soundness_exact() == Fraction(1)
    flip, witness = analysis.four_symbol_flip_cheat()
    assert flip == Fraction(1, 2)
    commit_symbol, reveal = witness
    assert reveal.b == 1 - commit_symbol % 2
    assert analysis.four_symbol_sum_max() == Fraction(3, 2)


def test_four_symbol_figures_match_rotation_law():
    # independent oracle: both laws come from rotating the symbol vectors by
    # four_symbol_mu's rotations, with no session, and Bob accepts a reveal iff
    # the received symbol is possible under it
    def accept(commit_symbol, reveal):
        possible = four_symbol_rotation_law(reveal.symbol)
        law = four_symbol_rotation_law(commit_symbol)
        return sum((p for r, p in law.items() if r in possible), Fraction(0))

    codewords = [simple.FourSymbolCodeword(a, b) for a in (0, 1) for b in (0, 1)]
    soundness = sum(accept(c.symbol, c) for c in codewords) / 4
    assert analysis.four_symbol_soundness_exact() == soundness == 1
    flips = [(s, simple.FourSymbolCodeword(a, 1 - s % 2)) for s in range(4) for a in (0, 1)]
    best = max(accept(*flip) for flip in flips)
    first = next(flip for flip in flips if accept(*flip) == best)
    assert analysis.four_symbol_flip_cheat() == (best, first) == (
        Fraction(1, 2), (0, simple.FourSymbolCodeword(0, 1))
    )
    sum_max = max(
        sum(max(accept(s, simple.FourSymbolCodeword(a, b)) for a in (0, 1)) for b in (0, 1))
        for s in range(4)
    )
    assert analysis.four_symbol_sum_max() == sum_max == Fraction(3, 2)


def test_four_symbol_report_enumerates_each_law_once(monkeypatch):
    # 16 (commit symbol, reveal) pairs, each one engine law, however many
    # figures read it
    calls = []
    original = engine.transcript_distribution

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(engine, "transcript_distribution", counted)
    analysis._accept_probability.cache_clear()
    analysis.four_symbol_report()
    assert len(calls) == 16
    assert analysis.four_symbol_flip_cheat() == (
        Fraction(1, 2), (0, simple.FourSymbolCodeword(0, 1))
    )
    assert len(calls) == 16


def test_chunked_mc_estimators_match_the_default_chunk(monkeypatch):
    # chunks of 7 split 1000 trials unevenly; the estimates cannot move
    default = (
        analysis.four_symbol_soundness_mc(1000, seed=5),
        analysis.continuous_acceptance_mc(0.3, 1, 1000, seed=5),
    )
    monkeypatch.setattr(analysis, "SOUNDNESS_CHUNK", 7)
    assert analysis.four_symbol_soundness_mc(1000, seed=5) == default[0]
    assert analysis.continuous_acceptance_mc(0.3, 1, 1000, seed=5) == default[1]
    assert 0 < default[1].successes < 1000 == default[0].successes


def test_four_symbol_mc_agrees_with_exact():
    estimate = analysis.four_symbol_soundness_mc(trials=10_000, seed=1)
    assert estimate.successes == estimate.trials


def test_continuous_mc_matches_scalar_draws():
    # one batched uniform draw gives the same doubles as one scalar draw per trial
    for alpha, b, seed in [(0.5, 0, 42), (0.5, 1, 43), (0.3, 0, 7), (0.0, 1, 1), (1.0, 0, 2)]:
        rng = np.random.default_rng(seed)
        sent = alpha * math.pi / 2.0
        codeword = simple.codeword_angle(0, b)
        expected = sum(
            simple.arc_accepts(sent + float(rng.uniform(0.0, math.pi)), codeword)
            for _ in range(3000)
        )
        assert analysis.continuous_acceptance_mc(alpha, b, 3000, seed).successes == expected


# --- continuous figures -------------------------------------------------------------

def test_continuous_soundness_exact():
    assert analysis.continuous_soundness_exact() == 1.0


def test_cheat_curve_exact_and_monte_carlo_agree():
    alphas = [round(0.1 * k, 1) for k in range(11)]
    rows = analysis.cheat_curve_continuous(alphas, trials=10_000, seed=42)
    for row in rows:
        assert abs(row.p0_exact + row.p1_exact - 1.5) <= 1e-12
        for exact, mc in ((row.p0_exact, row.p0_mc), (row.p1_exact, row.p1_mc)):
            sigma = math.sqrt(max(exact * (1 - exact), 1e-12) / mc.trials)
            assert abs(mc.rate - exact) <= 3 * sigma + 1e-9


def test_cheat_curve_peak_at_half():
    alphas = [round(0.1 * k, 1) for k in range(11)]
    rows = analysis.cheat_curve_continuous(alphas, with_mc=False)
    best = max(rows, key=lambda row: min(row.p0_exact, row.p1_exact))
    assert best.alpha == 0.5
    assert (best.p0_exact, best.p1_exact) == (0.75, 0.75)
    # integer alphas come back as floats, and the end points are the honest codewords
    assert analysis.cheat_curve_continuous([0, 1], with_mc=False) == [
        analysis.ContinuousCurveRow(0.0, 1.0, 0.5),
        analysis.ContinuousCurveRow(1.0, 0.5, 1.0),
    ]


# --- estimators and reports -----------------------------------------------------------

def test_z99_literal_is_the_normal_quantile():
    # written as a literal so that importing analysis loads no statistics module
    assert analysis.Z_99 == statistics.NormalDist().inv_cdf(0.995)


def test_wilson_interval_sanity():
    lo, hi = analysis.wilson_interval(5_000, 10_000)
    assert lo < 0.5 < hi and hi - lo < 0.03
    lo, hi = analysis.wilson_interval(10_000, 10_000)
    assert hi == 1.0 and lo > 0.999
    with pytest.raises(ValueError):
        analysis.wilson_interval(0, 0)


def test_reports_are_deterministic():
    params_a = lattice.make_params(3, 8)
    params_b = lattice.make_params(3, 8)
    for mode, expected in [
        ("exact", "binding_flip_lenient.exact = 1/3"),
        ("monte-carlo", "seed = 7"),
    ]:
        text_a = analysis.lattice_report(params_a, mode=mode, trials=500, seed=7).to_text()
        text_b = analysis.lattice_report(params_b, mode=mode, trials=500, seed=7).to_text()
        assert text_a == text_b
        assert expected in text_a


def test_report_flags_predicate_discrepancy():
    params = lattice.make_params(2, 4)
    report = analysis.lattice_report(params)
    assert any("strict" in note and "lenient" in note for note in report.notes)


def test_four_symbol_report_contents():
    text = analysis.four_symbol_report().to_text()
    assert "concealing_exact.exact = 0" in text
    assert "binding_flip.exact = 1/2" in text


def test_continuous_report_contents():
    text = analysis.continuous_report(0.5).to_text()
    assert "accept_reveal0 = 0.75" in text
    assert "accept_reveal1 = 0.75" in text


def test_report_mode_validation():
    params = lattice.make_params(2, 4)
    with pytest.raises(ValueError):
        analysis.lattice_report(params, mode="fancy")
