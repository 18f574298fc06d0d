import functools
import itertools
import math
import tracemalloc
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from framebc import analysis, engine, lattice, so3
from oracles import (
    codebook_points,
    exhaustive_min_gap,
    noise_events,
    parity_class,
    record_state,
    sorted_exact_gap,
    sorted_min_gap,
    sorted_table,
    sorted_table_decode,
)

TOL = 1e-9


@pytest.fixture(scope="module")
def params_d2_l4():
    return lattice.make_params(2, 4)


@pytest.fixture(scope="module")
def params_d3_l8():
    return lattice.make_params(3, 8)


# --- basis construction ----------------------------------------------------

def test_basis_d1_l2_closed_form():
    # one angle scaled so (L+1)*theta = pi/2, hence theta = pi/6
    basis = lattice.build_angle_basis(1, 2)
    assert basis.angles[0] == pytest.approx(math.pi / 6, abs=TOL)
    assert basis.min_gap == pytest.approx(math.pi / 6, abs=TOL)
    params = lattice.LatticeParams(basis, eps_meas=0.0)
    expected = [k * math.pi / 6 for k in range(4)]
    assert np.allclose(sorted_table(params.basis)[1], expected, atol=TOL)


def test_min_gap_matches_pairwise_oracle(params_d2_l4):
    # oracle: exhaustive O(N^2) pairwise minimum over the full codebook
    basis = params_d2_l4.basis
    points = codebook_points(2, 4)
    assert len(points) == 36
    alphas = points @ np.asarray(basis.angles)
    pairwise = min(
        abs(alphas[i] - alphas[j])
        for i in range(len(alphas))
        for j in range(i + 1, len(alphas))
    )
    assert basis.min_gap == pytest.approx(pairwise, abs=1e-15)
    assert basis.min_gap > 0


def test_min_gap_certifies_quarter_tolerance():
    basis = lattice.build_angle_basis(3, 8)
    eps = basis.min_gap / 4
    assert 2 * math.sin(basis.min_gap / 2) > 2 * eps  # chord beats 2*eps


def test_basis_angle_sum_fills_quarter_circle():
    for d, L in [(1, 2), (2, 4), (3, 8)]:
        basis = lattice.build_angle_basis(d, L)
        assert math.fsum((L + 1) * t for t in basis.angles) == pytest.approx(
            math.pi / 2, abs=1e-12
        )


def test_budget_exceeded():
    with pytest.raises(lattice.BudgetExceededError, match="too large to certify"):
        lattice.build_angle_basis(8, 30, budget=10**6)


def test_degenerate_basis_refused(monkeypatch):
    # two equal angles put distinct codewords at one angle: the exact gap is 0
    monkeypatch.setattr(lattice, "first_primes", lambda k: [2] * k)
    with pytest.raises(ValueError, match="degenerate basis"):
        lattice.build_angle_basis(2, 4)


def test_basis_validation():
    with pytest.raises(ValueError):
        lattice.build_angle_basis(0, 4)
    with pytest.raises(ValueError):
        lattice.build_angle_basis(2, 1)


def _right_to_left_angles(d, L, angles):
    # the table angle's definition, one codeword at a time in plain Python:
    # t = fl(c_i * theta_i + t) from the last coordinate to the first
    def angle(point):
        t = 0.0
        for c, theta in zip(reversed(point), reversed(angles)):
            t = c * theta + t
        return t

    points = itertools.product(range(L + 2), repeat=d)
    return np.fromiter(map(angle, points), dtype=float, count=lattice.codebook_size(d, L))


# d = 1, odd and even L+2, mid sizes, 10^6 codewords and one long coordinate
@pytest.mark.parametrize(
    "d,L",
    [(1, 2), (1, 3), (3, 5), (3, 6), (5, 7), (6, 5), (4, 16), (6, 8), (1, 70000)],
)
def test_codebook_angles_match_right_to_left_loop(d, L):
    basis = lattice.build_angle_basis(d, L)
    angles = basis.angles
    table = lattice.codebook_angles(d, L, np.asarray(angles))
    expected = _right_to_left_angles(d, L, angles)
    assert np.array_equal(table.view(np.int64), expected.view(np.int64))
    # table_angles gives sampled rows' entries bit for bit, and they lie within
    # gamma_d * A, A = 2, of their exact angle (see soundness_floor)
    sample = np.random.default_rng(d * L).integers(len(table), size=300)
    rows = np.stack(np.unravel_index(sample, (L + 2,) * d), axis=1)
    by_row = lattice.table_angles(lattice.LatticeParams(basis, 0.0), rows)
    assert np.array_equal(by_row.view(np.int64), table[sample].view(np.int64))
    u = Fraction(1, 2**53)
    bound = 2 * d * u / (1 - d * u)
    exact = [Fraction(t) for t in angles]
    for k in sample.tolist():
        point = np.unravel_index(k, (L + 2,) * d)
        alpha = sum(int(c) * t for c, t in zip(point, exact))
        assert abs(Fraction(float(table[k])) - alpha) <= bound


BASIS_FIELDS = {"d", "L", "angles", "min_gap"}
# the one table a decode builds: no point table, and no table of all (L+2)^d codewords
BASIS_TABLES = {"_split"}


def assert_tables_within_split(basis):
    # from d = 3 up, no array the basis caches holds more than the
    # (L+2)^(d-1) entries of the split table's tail
    assert basis.d >= 3
    cached = [value for name in BASIS_TABLES & set(vars(basis)) for value in vars(basis)[name]]
    arrays = [value for value in cached if isinstance(value, np.ndarray)]
    assert arrays
    assert max(a.size for a in arrays) <= (basis.L + 2) ** (basis.d - 1)


# small sizes, L + 1 on both sides of 255, and tails up to 10^6 angles
@pytest.mark.parametrize(
    "d,L",
    [(1, 2), (2, 4), (2, 5), (3, 8), (4, 3), (5, 4), (1, 253), (1, 254), (1, 255),
     (2, 254), (2, 300), (4, 16), (6, 5), (6, 8), (7, 8)],
)
def test_decode_tables_match_int64_reference(d, L):
    # reference: the int64 grid of the trailing d - h coordinates, its table
    # angles summed column by column from the last, sorted; and the leads
    # fl(c * angles[0]) (the one lead 0.0 when h = 0)
    params = lattice.make_params(d, L)
    h = min(1, d - 1)
    points = codebook_points(d - h, L)
    assert points.dtype == np.int64
    alphas = np.zeros(len(points))
    for j in range(d - h - 1, -1, -1):
        alphas = points[:, j] * params.angles[h + j] + alphas
    order = np.argsort(alphas)
    leads, tail, tail_lex = params.basis._split
    assert np.array_equal(tail.view(np.int64), alphas[order].view(np.int64))
    assert np.array_equal(tail_lex, order)
    assert (np.diff(tail) > 0).all() and tail[0] == 0.0
    expected = np.arange(L + 2) * params.angles[0] if h else np.zeros(1)
    assert np.array_equal(leads.view(np.int64), expected.view(np.int64))
    assert record_state(params.basis) == BASIS_FIELDS | BASIS_TABLES


# d = 1, both sides of L + 1 = 255, and up to 10^6 codewords
@pytest.mark.parametrize("d,L", [(1, 2), (2, 5), (3, 8), (1, 254), (4, 16), (6, 8)])
def test_decoded_points_are_int64_codebook_rows(d, L):
    # decoding the k-th entry of the sorted table gives codebook_points(d, L)[order[k]]
    params = lattice.make_params(d, L)
    order, _, cos_table, sin_table = sorted_table(params.basis)
    n = lattice.codebook_size(d, L)
    positions = np.unique(
        np.concatenate([[0, 1, n - 2, n - 1], np.random.default_rng(d * L).integers(n, size=3000)])
    )
    xyz = np.column_stack([cos_table[positions], sin_table[positions], np.zeros(len(positions))])
    expected = codebook_points(d, L)[order[positions]]
    decoded, ok = lattice.decode_batch(params, xyz)
    assert ok.all()
    assert decoded.dtype == np.int64
    assert np.array_equal(decoded, expected)
    for received, point in zip(xyz[:500], expected):
        single = lattice.decode_commit(params, received)
        assert single.dtype == np.int64
        assert np.array_equal(single, point)


def test_session_at_d6_l8_builds_only_the_decode_tables_and_channel():
    params = lattice.make_params(6, 8)
    spec = lattice.lattice_protocol(params, 1)
    assert engine.run_session(spec, np.random.default_rng(5)).outcome == engine.Accepted(1)
    assert record_state(params.basis) == BASIS_FIELDS | BASIS_TABLES | {"_mu"}
    assert_tables_within_split(params.basis)


def test_first_decode_at_d7_l8_holds_only_the_split_table():
    # the 10^7 codewords of (7, 8) as a sorted table of angles, order, cos
    # and sin would hold 305 MiB; the split table holds 10^6 angles and
    # their indices, 15.3 MiB, and building it peaks at 22.9 MiB traced
    params = lattice.make_params(7, 8)
    tracemalloc.start()
    try:
        decoded = lattice.decode_commit(params, lattice.encode(params, (1, 2, 3, 4, 5, 6, 7)))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tuple(decoded) == (1, 2, 3, 4, 5, 6, 7)
    assert held < 16 * 2**20
    assert peak < 28 * 2**20
    assert_tables_within_split(params.basis)


def test_monte_carlo_soundness_at_d7_l8_in_bounded_memory():
    # Monte Carlo soundness past the sorted table: building the split table
    # and 2000 trials peak at 24.0 MiB traced, where the 10^7 codewords'
    # sorted angles alone would take 76 MiB
    params = lattice.make_params(7, 8)
    tracemalloc.start()
    try:
        estimate = analysis.lattice_soundness_mc(params, 2000, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert estimate.successes == estimate.trials == 2000
    assert peak < 28 * 2**20
    assert_tables_within_split(params.basis)


def test_decode_tables_built_on_first_decode_and_shared(monkeypatch):
    params = lattice.make_params(3, 8)
    # work that never decodes builds no table, not even the sorted angles
    analysis.binding_search(params, "strict")
    analysis.binding_sum_max(params, "lenient")
    analysis.concealing_exact(params.d, params.L)
    with monkeypatch.context() as patch:
        # lattice_report's binding figures, without its decoding soundness enumeration
        patch.setattr(analysis, "lattice_soundness_exact", lambda p, budget: Fraction(1))
        analysis.lattice_report(params)
    assert not BASIS_TABLES & record_state(params.basis)
    decoded = lattice.decode_commit(params, lattice.encode(params, (1, 2, 3)))
    assert tuple(decoded) == (1, 2, 3)
    assert record_state(params.basis) - BASIS_FIELDS - {"_mu"} == BASIS_TABLES
    built = {name: getattr(params.basis, name) for name in BASIS_TABLES}
    other = lattice.LatticeParams(params.basis, eps_meas=0.0, predicate="strict")
    lattice.decode_batch(other, lattice.encode_batch(other, [(1, 2, 3), (0, 0, 1)]))
    for name, table in built.items():
        assert vars(other.basis)[name] is table


PARAMS_FIELDS = {"basis", "eps_meas", "predicate"}


@pytest.mark.parametrize(
    "use",
    [
        lambda p: lattice.decode_commit(p, lattice.encode(p, (1, 2))),
        lambda p: lattice.decode_batch(p, lattice.encode_batch(p, [(1, 2), (3, 0)])),
        lambda p: engine.run_session(lattice.lattice_protocol(p, 1), np.random.default_rng(3)),
        lambda p: analysis.lattice_soundness_mc(p, 50, seed=4),
        lambda p: analysis.lattice_soundness_exact(p),
    ],
    ids=["decode_commit", "decode_batch", "session", "soundness_mc", "soundness_exact"],
)
def test_params_hold_only_their_fields_after_use(use):
    # every derived table and the channel live on the basis, never on params
    params = lattice.make_params(2, 4)
    use(params)
    assert record_state(params) == PARAMS_FIELDS


def test_lattice_mu_shared_by_params_over_one_basis():
    basis = lattice.build_angle_basis(2, 4)
    strict = lattice.LatticeParams(basis, eps_meas=0.0, predicate="strict")
    lenient = lattice.LatticeParams(basis, eps_meas=basis.max_safe_eps / 2)
    assert lattice.lattice_mu(strict) is lattice.lattice_mu(lenient)


def test_make_params_holds_no_table():
    # certification builds no codebook-sized array: the 8 MB angle table of
    # the 10^6 codewords of (6, 8), or the 80 MB of the 10^7 of (7, 8), would
    # break these peaks, which leave room for the half-sums only
    for d, L, peak_bound in ((6, 8, 6 * 2**20), (7, 8, 12 * 2**20)):
        tracemalloc.start()
        try:
            params = lattice.make_params(d, L)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not BASIS_TABLES & record_state(params.basis)
        assert held < 2**20
        assert peak < peak_bound


# every d from 1 to 6 against L in {2, 3, 4, 5, 6, 8, 16} within the default
# budget, one long coordinate, and larger L and d
CERTIFIED_SIZES = [
    (d, L) for d in range(1, 7) for L in (2, 3, 4, 5, 6, 8, 16)
    if lattice.codebook_size(d, L) <= engine.DEFAULT_ENUM_BUDGET
] + [(1, 70000), (2, 100), (3, 50), (4, 30), (7, 8)]


@functools.cache
def _sorted_min_gap(d, L):
    return sorted_min_gap(d, L, lattice.build_angle_basis(d, L).angles)


@pytest.mark.parametrize("d,L", CERTIFIED_SIZES)
def test_min_gap_bit_identical_to_sorted_certificate(d, L):
    # the sorted table's near-least neighbour gaps, taken exactly; its float
    # least neighbour gap lies within (2d + 1) u S of that
    basis = lattice.build_angle_basis(d, L)
    assert basis.min_gap == sorted_exact_gap(d, L, basis.angles)
    bound = (2 * d + 1) * 2.0**-53 * (L + 1) * sum(basis.angles)
    assert abs(basis.min_gap - _sorted_min_gap(d, L)) <= bound


@pytest.mark.parametrize("d,L", [(d, L) for d, L in CERTIFIED_SIZES if (2 * L + 3)**d <= 10**5])
def test_min_gap_is_exhaustive_gap(d, L):
    # every pair difference k tried, with no half-sum search; the exact gap
    # is a double, so min_gap is the gap itself
    basis = lattice.build_angle_basis(d, L)
    assert basis.min_gap == exhaustive_min_gap(d, L, basis.angles)


@pytest.mark.parametrize(
    "d,L,min_gap",
    [(5, 16, 4.819926246318884e-08), (6, 8, 6.940039525699104e-09),
     (7, 8, 1.6037656098977227e-10), (1, 70000, 2.2439626959541957e-05)],
)
def test_min_gap_pinned(d, L, min_gap):
    # the exact gap of the float angles
    assert lattice.build_angle_basis(d, L).min_gap.hex() == min_gap.hex()


@pytest.mark.parametrize("d,L", CERTIFIED_SIZES)
def test_gap_margin_covers_half_sum_estimate(d, L):
    """The certificate's margin against the observed estimate error.

    With u = 2^-53, every half sum is a float64 dot product of at most d
    terms |k_i| * angles[i] whose sum is at most S = (L+1) * sum(angles) < 2
    (it is pi/2 up to rounding), so it errs by at most gamma_d * S,
    gamma_d = d u / (1 - d u), in any summation order, with or without fma.
    The estimate e(k) = |fl(q + r)| therefore lies within
    E = gamma_d S + u S of |k . angles| (two half sums and the addition).
    The estimate e_min is e(k0) for some k0, and min over k of e(k): so the
    exact gap lies within E = (d + 1) u S of e_min, to first order, and a k
    attaining it has e(k) <= e_min + 2E.  The margin (6d + 8) 2u exceeds
    2E = (2d + 2) u S by more than the roundings of the window ends (u S for
    -q +- window and 3 u e_min for the window itself).  Checked here: the
    observed |min_gap - e_min| stays within half the margin.
    """
    basis = lattice.build_angle_basis(d, L)
    estimate, margin, candidates = lattice._gap_candidates(d, L, np.asarray(basis.angles))
    assert margin == (6 * d + 8) * 2.0**-52
    assert abs(basis.min_gap - estimate) <= margin / 2
    assert candidates and all(next(x for x in k if x) > 0 for k in candidates)


def test_params_reject_coarse_eps():
    basis = lattice.build_angle_basis(2, 4)
    with pytest.raises(ValueError, match="separation"):
        lattice.LatticeParams(basis, eps_meas=basis.max_safe_eps * 2)
    with pytest.raises(ValueError, match="separation"):
        lattice.LatticeParams(basis, eps_meas=float("nan"))
    with pytest.raises(ValueError, match="predicate"):
        lattice.LatticeParams(basis, eps_meas=0.0, predicate="other")


# --- encode ----------------------------------------------------------------

def test_encode_zero_point(params_d2_l4):
    assert np.allclose(lattice.encode(params_d2_l4, (0, 0)), [1, 0, 0], atol=TOL)


def test_encode_d1_direct():
    params = lattice.make_params(1, 2)  # theta = pi/6
    out = lattice.encode(params, (3,))
    assert np.allclose(out, [0.0, 1.0, 0.0], atol=TOL)


def test_encode_range_check(params_d2_l4):
    with pytest.raises(ValueError):
        lattice.encode(params_d2_l4, (0, 6))
    with pytest.raises(ValueError):
        lattice.encode(params_d2_l4, (-1, 0))


def test_encode_and_parity_never_truncate(params_d2_l4):
    # (0.9, 0) is not the point (0, 0): a fractional coordinate raises
    for point in [(0.9, 0), (0, 1.0), np.array([0.0, 1.0])]:
        with pytest.raises(TypeError):
            lattice.encode(params_d2_l4, point)
        with pytest.raises(TypeError):
            lattice.parity(point)
    assert lattice.parity(np.array([1, 2])) == 1


@pytest.mark.parametrize(
    "points,error",
    [
        ([[9, 0]], ValueError), ([[-1, 0]], ValueError), ([[0, 6], [0, 0]], ValueError),
        ([[0.5, 1]], TypeError), ([[0.0, 1.0]], TypeError),
        ([1, 2, 3, 4], ValueError), ([[1, 2, 3]], ValueError), ([[[1, 2]]], ValueError),
    ],
)
def test_encode_batch_refuses_what_encode_refuses(params_d2_l4, points, error):
    # out of range, fractional, or not (n, d): a flat list of 2d values is not two rows
    with pytest.raises(error):
        lattice.encode_batch(params_d2_l4, points)
    if np.ndim(points) == 2:  # encode refuses the offending row alike
        with pytest.raises(error):
            for row in points:
                lattice.encode(params_d2_l4, row)


def test_encode_injective_on_codebook(params_d2_l4):
    seen = set()
    for point in itertools.product(range(6), repeat=2):
        key = tuple(np.round(lattice.encode(params_d2_l4, point), 9))
        assert key not in seen
        seen.add(key)


# --- commit ----------------------------------------------------------------

def test_commit_d1_l2_deterministic_classes():
    params = lattice.make_params(1, 2)
    rng = np.random.default_rng(0)
    for _ in range(20):
        assert tuple(lattice.commit(params, 0, rng)[0]) == (0,)
        assert tuple(lattice.commit(params, 1, rng)[0]) == (1,)


def test_commit_rejects_bits_outside_zero_one():
    # a float bit once committed, and the honest session then ended malformed-reveal
    params = lattice.make_params(2, 4)
    for bad in [2, -1]:
        with pytest.raises(ValueError, match="committed bit"):
            lattice.commit(params, bad, np.random.default_rng(0))
    for bad in [1.0, 0.0, "1"]:
        with pytest.raises(TypeError):
            lattice.commit(params, bad, np.random.default_rng(0))


def test_commit_d2_l2_uniform_over_class():
    params = lattice.make_params(2, 2)
    rng = np.random.default_rng(5)
    counts = Counter(tuple(int(x) for x in lattice.commit(params, 1, rng)[0])
                     for _ in range(10_000))
    assert set(counts) == {(0, 1), (1, 0)}
    for value in counts.values():
        assert abs(value / 10_000 - 0.5) <= 0.05


def test_commit_uniform_odd_l():
    params = lattice.make_params(2, 3)
    rng = np.random.default_rng(11)
    counts = Counter(tuple(int(x) for x in lattice.commit(params, 0, rng)[0])
                     for _ in range(25_000))
    expected = set(parity_class(2, 3, 0))
    assert set(counts) == expected
    assert len(expected) == lattice.parity_class_size(2, 3, 0) == 5
    for value in counts.values():
        assert abs(value / 25_000 - 1 / 5) <= 0.02


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=2, max_value=9),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_commit_parity_always_matches(d, L, b, seed):
    params = lattice.make_params(d, L)
    a, payload = lattice.commit(params, b, np.random.default_rng(seed))
    assert lattice.parity(a) == b
    assert all(0 <= int(x) <= L - 1 for x in a)
    assert abs(np.linalg.norm(payload) - 1.0) <= TOL


def test_commit_draws_as_honest_points():
    # a session's commit and the Monte Carlo estimator share one sampler and
    # one stream: a commit redraws a (1, d) row until its parity is b
    for d, L in ((2, 4), (2, 3), (3, 5), (6, 8)):
        params = lattice.make_params(d, L)
        rng, replay, oracle = (np.random.default_rng(11) for _ in range(3))

        def row_by_rejection(b):
            row = oracle.integers(L, size=(1, d))
            while row.sum() % 2 != b:
                row = oracle.integers(L, size=(1, d))
            return row[0]

        for b in [0, 1, 1, 0, 1] * 8:
            a, payload = lattice.commit(params, b, rng)
            assert a.dtype == np.int64 and a.shape == (d,)
            assert np.array_equal(a, lattice.honest_points(params, np.array([b]), replay)[0])
            assert np.array_equal(a, row_by_rejection(b))
            assert np.array_equal(payload, lattice.encode(params, a))
        assert rng.integers(2**62) == replay.integers(2**62) == oracle.integers(2**62)


def test_channel_support_lists_the_sampled_rotations(params_d3_l8):
    # enumerate_support and sample hand out the same read-only rotation rows,
    # row k being the k-th noise event (j, m)
    params = params_d3_l8
    mu = lattice.lattice_mu(params)
    support = so3.enumerate_support(mu)
    events = noise_events(params.d)
    assert len(support) == len(events) == 2 * params.d
    for (rotation, prob), (j, m) in zip(support, events):
        assert prob == Fraction(1, 2 * params.d)
        assert np.array_equal(rotation, so3.rot_z(m * params.angles[j]))
        assert not rotation.flags.writeable
    rng, replay = np.random.default_rng(3), np.random.default_rng(3)
    for _ in range(60):
        drawn = so3.sample(mu, rng)
        j, m = int(replay.integers(params.d)), int(replay.integers(2)) + 1
        assert np.shares_memory(drawn, support[events.index((j, m))][0])


def test_parity_class_size_closed_form():
    for d, L in [(1, 2), (2, 3), (3, 4), (2, 5)]:
        for b in (0, 1):
            count = sum(1 for _ in parity_class(d, L, b))
            assert count == lattice.parity_class_size(d, L, b)


# --- decode ----------------------------------------------------------------

def test_decode_roundtrip_exhaustive(params_d2_l4):
    for point in itertools.product(range(6), repeat=2):
        decoded = lattice.decode_commit(params_d2_l4, lattice.encode(params_d2_l4, point))
        assert decoded is not None and tuple(decoded) == point


def test_decode_roundtrip_exhaustive_d3_l8(params_d3_l8):
    for point in itertools.product(range(10), repeat=3):
        decoded = lattice.decode_commit(params_d3_l8, lattice.encode(params_d3_l8, point))
        assert decoded is not None and tuple(decoded) == point


def test_decode_roundtrip_sampled_large_codebook():
    # 10^5 codebook points: too many to exhaust cheaply, so sample
    params = lattice.make_params(5, 8)
    rng = np.random.default_rng(31)
    for _ in range(1000):
        point = tuple(int(x) for x in rng.integers(0, 10, size=5))
        decoded = lattice.decode_commit(params, lattice.encode(params, point))
        assert decoded is not None and tuple(decoded) == point


def test_decode_perturbed_within_half_eps(params_d3_l8):
    # oracle: linear scan over the full codebook for the true nearest codeword
    rng = np.random.default_rng(21)
    points = codebook_points(3, 8)
    vectors = np.stack([lattice.encode(params_d3_l8, p) for p in points])
    for _ in range(50):
        point = points[rng.integers(len(points))]
        v = lattice.encode(params_d3_l8, point)
        tangent = np.array([-v[1], v[0], 0.0])
        received = v + tangent * (params_d3_l8.eps_meas / 2) * rng.choice([-1.0, 1.0])
        decoded = lattice.decode_commit(params_d3_l8, received)
        distances = np.linalg.norm(vectors - received, axis=1)
        best = int(np.argmin(distances))
        assert distances[best] <= params_d3_l8.eps_meas
        assert decoded is not None and tuple(decoded) == tuple(points[best]) == tuple(point)


def test_decode_out_of_plane_aborts(params_d2_l4):
    assert lattice.decode_commit(params_d2_l4, np.array([0.0, 0.0, 1.0])) is None


def test_decode_far_angle_aborts(params_d2_l4):
    # halfway between two adjacent codebook angles, beyond eps of both
    angles = sorted_table(params_d2_l4.basis)[1]
    mid = so3.planar_unit((angles[3] + angles[4]) / 2)
    assert lattice.decode_commit(params_d2_l4, mid) is None


def _decode_cases(params, rng) -> np.ndarray:
    """Vectors at the edges of decode_commit's rule, one per row."""
    eps = params.eps_meas
    angles = sorted_table(params.basis)[1]
    cases = []
    # codewords nudged along the circle to just inside and just outside eps,
    # on both sides, so the nearest codeword is angular neighbour i or i - 1
    picks = np.concatenate([[0, 1, len(angles) - 2, len(angles) - 1],
                            rng.integers(len(angles), size=40)])
    for idx in picks:
        for scale in (0.5, 0.999999, 1.000001, 2.0):
            for sign in (-1.0, 1.0):
                # a chord of length scale*eps subtends this angle
                step = 2.0 * math.asin(min(1.0, scale * eps / 2.0))
                cases.append(so3.planar_unit(angles[idx] + sign * step))
    # out-of-plane and shrunken versions of codewords
    for idx in picks[:12]:
        v = so3.planar_unit(angles[idx])
        for lift in (0.5, 0.999, 1.001, 3.0):
            cases.append(v + np.array([0.0, 0.0, lift * eps]))
        for shrink in (0.5, 0.999, 1.001, 3.0):
            cases.append(v * (1.0 - shrink * eps))
    cases.append(np.array([0.0, 0.0, 1.0]))
    cases.append(np.zeros(3))
    # midpoints of the table, farther than eps from both neighbours
    for k in rng.integers(len(angles) - 1, size=30):
        cases.append(so3.planar_unit((angles[k] + angles[k + 1]) / 2))
    # wraparound: directions just below 2*pi and just above 0
    for offset in (1e-15, 0.5 * eps, 0.999 * eps, 2.0 * eps, 0.1):
        cases.append(so3.planar_unit(2.0 * math.pi - offset))
        cases.append(so3.planar_unit(offset))
    # random directions in R^3 and in the plane
    cases.extend(rng.normal(size=(100, 3)) / 10.0 + np.array([0.5, 0.5, 0.0]))
    cases.extend(so3.planar_unit(t) for t in rng.uniform(0.0, 2.0 * math.pi, size=100))
    return np.array(cases)


@pytest.mark.parametrize("d,L", [(1, 2), (2, 4), (3, 8), (2, 5)])
def test_decode_batch_matches_decode_commit(d, L):
    params = lattice.make_params(d, L)
    cases = _decode_cases(params, np.random.default_rng(d * 100 + L))
    points, ok = lattice.decode_batch(params, cases)
    assert points.shape == (len(cases), d) and ok.shape == (len(cases),)
    decoded_any = 0
    for row, point, good in zip(cases, points, ok):
        expected = lattice.decode_commit(params, row)
        assert good == (expected is not None)
        if good:
            decoded_any += 1
            assert tuple(point) == tuple(expected)
    # the cases straddle the tolerance: both outcomes occur
    assert 0 < decoded_any < len(cases)


def test_decode_batch_rotated_codewords(params_d3_l8):
    # the soundness path: every codeword under every channel rotation
    points = codebook_points(3, 8)
    payloads = lattice.encode_batch(params_d3_l8, points)
    for j, m in noise_events(params_d3_l8.d):
        received = (so3.rot_z(m * params_d3_l8.angles[j]) @ payloads[:, :, None])[:, :, 0]
        decoded, ok = lattice.decode_batch(params_d3_l8, received)
        for row, point, good in zip(received, decoded, ok):
            expected = lattice.decode_commit(params_d3_l8, row)
            assert good == (expected is not None)
            assert not good or tuple(point) == tuple(expected)


AGREEMENT_SIZES = [(1, 2), (1, 254), (2, 5), (3, 8), (4, 16), (6, 5), (6, 8)]


def _agreement_tolerances(basis) -> list[float]:
    # eps = 0, the default, the soundness floor and just below the certified maximum
    return [0.0, basis.max_safe_eps / 4, lattice.soundness_floor(basis.d),
            math.nextafter(basis.max_safe_eps, 0.0)]


def _agreement_cases(params, rng, picks: int = 2000) -> np.ndarray:
    """Every codeword position, then vectors near and far from picked codewords."""
    _, angles, cos_table, sin_table = sorted_table(params.basis)
    eps = params.eps_meas
    codewords = np.column_stack([cos_table, sin_table, np.zeros(len(angles))])
    index = rng.integers(len(angles), size=picks)
    cases = [codewords]
    # every channel rotation of the picked codewords: an honest receiver's inputs
    cases += [codewords[index] @ rotation.T for rotation in lattice.lattice_mu(params).rotations]
    # along the circle by a chord of 0 to 2.2 eps, either way
    chords = rng.uniform(0.0, 2.2, size=picks) * eps
    steps = 2.0 * np.arcsin(np.minimum(1.0, chords / 2.0)) * rng.choice([-1.0, 1.0], size=picks)
    cases.append(np.column_stack([np.cos(angles[index] + steps), np.sin(angles[index] + steps),
                                  np.zeros(picks)]))
    # out of the plane and shrunken by 0 to 2.2 eps
    lifts = rng.uniform(0.0, 2.2, size=picks) * eps
    cases.append(codewords[index] + np.outer(lifts, [0.0, 0.0, 1.0]))
    cases.append(codewords[index] * (1.0 - lifts)[:, None])
    # random directions in R^3 and in the plane
    cases.append(rng.normal(size=(picks, 3)))
    turns = rng.uniform(0.0, 2.0 * math.pi, size=picks)
    cases.append(np.column_stack([np.cos(turns), np.sin(turns), np.zeros(picks)]))
    # just below angle 0, where codeword 0 is the only candidate near
    below = -np.array([2.0**-60, 1e-15, 0.5 * eps, eps, 1.5 * eps, 2.2 * eps])
    cases.append(np.column_stack([np.cos(below), np.sin(below), np.zeros(len(below))]))
    return np.concatenate(cases)


@pytest.mark.parametrize("d,L", AGREEMENT_SIZES)
def test_decode_batch_matches_sorted_table(d, L):
    # bit for bit where the sorted table decodes; eps = 0 accepts only a
    # received vector that lands on its table entry bit for bit
    basis = lattice.build_angle_basis(d, L)
    rng = np.random.default_rng(d * 1000 + L)
    for eps in _agreement_tolerances(basis):
        params = lattice.LatticeParams(basis, eps)
        cases = _agreement_cases(params, rng)
        expected_lex, expected_ok = sorted_table_decode(params, cases)
        decoded, ok = lattice.decode_batch(params, cases)
        assert np.array_equal(ok, expected_ok), eps
        lex = np.ravel_multi_index(tuple(decoded[ok].T), (L + 2,) * d)
        assert np.array_equal(lex, expected_lex[ok]), eps
        # every codeword decodes to itself at every tolerance
        assert expected_ok[:lattice.codebook_size(d, L)].all()
        assert 0 < np.count_nonzero(~ok)
        # a batch whose directions, just below angle 0, meet no tail angle at all
        decoded, ok = lattice.decode_batch(params, cases[-6:])
        assert np.array_equal(ok, expected_ok[-6:])
        assert np.array_equal(decoded[ok], codebook_points(d, L)[expected_lex[-6:][ok]])


@pytest.mark.parametrize("d,L", AGREEMENT_SIZES)
def test_decode_commit_matches_sorted_table(d, L):
    basis = lattice.build_angle_basis(d, L)
    rng = np.random.default_rng(d * 1000 + L + 1)
    for eps in _agreement_tolerances(basis):
        params = lattice.LatticeParams(basis, eps)
        cases = _agreement_cases(params, rng, picks=40)
        n = lattice.codebook_size(d, L)
        # a sample of the codeword positions, then every other case
        cases = np.concatenate([cases[rng.integers(n, size=min(n, 200))], cases[n:]])
        expected_lex, expected_ok = sorted_table_decode(params, cases)
        for row, lex, good in zip(cases, expected_lex.tolist(), expected_ok.tolist()):
            decoded = lattice.decode_commit(params, row)
            assert (decoded is not None) == good, (eps, row)
            if good:
                assert decoded.dtype == np.int64
                assert np.ravel_multi_index(tuple(decoded), (L + 2,) * d) == lex, (eps, row)


@pytest.mark.parametrize("d,L", [(3, 8), (4, 16)])
def test_agreement_cases_need_the_rounding_step(d, L):
    # the on-table rows the agreement tests decode include some where one
    # searchsorted of phi - lead, uncorrected, lands on the wrong side of phi
    # in some lead: 164 of the 1000 at (3, 8) and 6139 of the 104976 at
    # (4, 16), counts that follow the platform's atan2
    basis = lattice.build_angle_basis(d, L)
    _, _, cos_table, sin_table = sorted_table(basis)
    phi = np.arctan2(sin_table, cos_table) % (2.0 * math.pi)
    leads, tail, _ = basis._split
    pos = tail.searchsorted(phi - leads[:, None])
    below = leads[:, None] + tail.take(pos - 1, mode="clip")
    above = leads[:, None] + tail.take(pos, mode="clip")
    wrong = (above < phi) & (pos < len(tail)) | (below >= phi) & (pos > 0)
    assert 0 < np.count_nonzero(wrong.any(axis=0)) < len(phi)


@pytest.mark.parametrize("d,L", [(1, 2), (2, 5), (3, 8), (4, 16)])
def test_non_finite_and_zero_vectors_abort(d, L):
    # a NaN direction steps no lookup, and an infinite or zero vector is
    # beyond every tolerance, at the largest certified one too
    basis = lattice.build_angle_basis(d, L)
    cases = [[math.nan, 0.0, 0.0], [math.inf, 0.0, 0.0], [0.0, 0.0, 0.0],
             [0.0, math.nan, 0.0], [1.0, 0.0, math.nan], [-math.inf, math.inf, 0.0]]
    for eps in (0.0, math.nextafter(basis.max_safe_eps, 0.0)):
        params = lattice.LatticeParams(basis, eps)
        assert all(lattice.decode_commit(params, row) is None for row in cases)
        assert not lattice.decode_batch(params, cases)[1].any()
        assert not sorted_table_decode(params, cases)[1].any()


def test_encode_batch_matches_encode(params_d3_l8):
    points = codebook_points(3, 8)
    batch = lattice.encode_batch(params_d3_l8, points)
    scalar = np.stack([lattice.encode(params_d3_l8, p) for p in points])
    assert np.array_equal(batch, scalar)


def _uncertified_params(d, L):
    # build_angle_basis's angles without its certificate, which most of
    # these codebooks are far too large for; encoding reads only d and angles
    roots = np.sqrt(np.array(lattice.first_primes(d), dtype=float))
    angles = (math.pi / 2.0) / ((L + 1) * float(roots.sum())) * roots
    return SimpleNamespace(d=d, L=L, angles=tuple(float(a) for a in angles))


def _encode_reference(params, points):
    # encode's arithmetic row by row: math.fsum of the rounded products a_i *
    # theta_i (numpy rounds each product as Python's int * float does), then
    # math.cos and math.sin
    alphas = list(map(math.fsum, (np.asarray(points) * params.angles).tolist()))
    return np.column_stack(
        [list(map(math.cos, alphas)), list(map(math.sin, alphas)), np.zeros(len(alphas))]
    )


@pytest.mark.parametrize(
    "d,L", [(1, 2), (3, 8), (4, 16), (6, 8), (8, 16), (4, 1000), (12, 100), (20, 1000)]
)
def test_encode_batch_bit_identical_on_random_points(d, L):
    params = _uncertified_params(d, L)
    points = np.random.default_rng(d * L).integers(L + 2, size=(300_000, d))
    batch = lattice.encode_batch(params, points).view(np.int64)
    assert np.array_equal(batch, _encode_reference(params, points).view(np.int64))
    # the reference is encode's own arithmetic: check it against encode on a prefix
    scalar = np.stack([lattice.encode(params, p) for p in points[:20_000].tolist()])
    assert np.array_equal(batch[:20_000], scalar.view(np.int64))


@pytest.mark.parametrize("d,L", [(4, 16), (6, 8)])
def test_encode_batch_bit_identical_on_full_codebook(d, L):
    params = _uncertified_params(d, L)
    points = codebook_points(d, L)
    batch = lattice.encode_batch(params, points).view(np.int64)
    assert np.array_equal(batch, _encode_reference(params, points).view(np.int64))


def test_numpy_trig_matches_math_on_codebook_range():
    # encode_batch takes np.cos and np.sin for math.cos and math.sin; that
    # holds per platform, not by any standard, so it is checked here on
    # angles spread over [0, pi/2], the range every codebook angle lies in
    alphas = np.random.default_rng(17).uniform(0.0, math.pi / 2, size=2_000_000)
    alphas[:3] = (0.0, math.pi / 4, math.pi / 2)
    listed = alphas.tolist()
    for vectorised, scalar in ((np.cos, math.cos), (np.sin, math.sin)):
        reference = np.array(list(map(scalar, listed)))
        assert np.array_equal(vectorised(alphas).view(np.int64), reference.view(np.int64))


def _sin_cos_reference(x: float) -> tuple[Decimal, Decimal]:
    # the Taylor series of sin and cos at the double x, summed to 40 digits
    with localcontext() as context:
        context.prec = 40
        x = Decimal(x)
        term, n, sums = Decimal(1), 0, [Decimal(0), Decimal(0)]  # term = x^n / n!
        while n <= 3 * x + 3 or abs(term) > Decimal(10) ** -45:
            sums[n % 2] += -term if n % 4 >= 2 else term
            n += 1
            term = term * x / n
        return sums[1], sums[0]


def _worst_ulps(values, reference) -> float:
    # the largest error in units of 2^-52 * |reference|, the relative bound
    # K ulps imply and `lattice.soundness_floor` uses; a zero must be exact
    worst = 0.0
    unit = Decimal(2) ** -52
    for value, ref in zip(values, reference):
        error = abs(Decimal(float(value)) - ref)
        if ref == 0:
            worst = max(worst, math.inf if error else 0.0)
        else:
            worst = max(worst, float(error / (unit * abs(ref))))
    return worst


def test_libm_within_soundness_floor_ulps():
    # soundness_floor assumes cos, sin and atan2, numpy's and math's, within
    # LIBM_ULPS ulps; checked at two codebooks' table and rotation angles
    # and at random angles over [0, pi], the directions a decoder meets
    angles = [0.0, math.pi / 2, math.pi]
    for d, L in ((2, 5), (3, 4)):
        params = lattice.make_params(d, L)
        angles += sorted_table(params.basis)[1].tolist()
        angles += [m * t for t in params.angles for m in (1, 2)]
    angles += np.random.default_rng(23).uniform(0.0, math.pi, size=10_000).tolist()
    sines, cosines = zip(*map(_sin_cos_reference, angles))
    t = np.array(angles)
    worst = {
        "np.cos": _worst_ulps(np.cos(t), cosines),
        "np.sin": _worst_ulps(np.sin(t), sines),
        "math.cos": _worst_ulps(map(math.cos, angles), cosines),
        "math.sin": _worst_ulps(map(math.sin, angles), sines),
    }
    # atan2 at (sin t, cos t) rounded: with psi_hat = atan2(y, x), the exact
    # angle of (x, y) is psi_hat + atan(r), r = (y cos psi_hat - x sin
    # psi_hat) / (x cos psi_hat + y sin psi_hat), and r^3 is below 40 digits
    ys, xs = np.sin(t), np.cos(t)
    psi_hat = list(map(math.atan2, ys.tolist(), xs.tolist()))
    exact = []
    for x, y, psi in zip(xs.tolist(), ys.tolist(), psi_hat):
        sin_psi, cos_psi = _sin_cos_reference(psi)
        x, y = Decimal(x), Decimal(y)
        with localcontext() as context:
            context.prec = 40
            exact.append(Decimal(psi) + (y * cos_psi - x * sin_psi) / (x * cos_psi + y * sin_psi))
    worst["math.atan2"] = _worst_ulps(psi_hat, exact)
    worst["np.arctan2"] = _worst_ulps(np.arctan2(ys, xs), exact)
    assert max(worst.values()) <= lattice.LIBM_ULPS, (
        f"numpy {np.__version__}: worst errors in ulps {worst} exceed "
        f"LIBM_ULPS = {lattice.LIBM_ULPS}, which soundness_floor assumes"
    )


def _kernel_named() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}, BLAS {blas.get('name')} {blas.get('version')}"


def test_matmul_rounding_model():
    # the pinned eps = 0 soundness Fractions rest on one property of
    # numpy's matmul on this platform, which no standard fixes: exact
    # soundness's stacked 3x3 @ 3x1 product rounds each row as
    # fma(r0, x, r1 * y) + r2 * z; checked with Fractions on every 16th
    # honest point of (4, 16) under all eight channel rotations
    params = lattice.make_params(4, 16)
    rotations = lattice.lattice_mu(params).rotations
    points = np.indices((16,) * 4).reshape(4, -1).T[::16]
    payloads = lattice.encode_batch(params, points)
    received = (rotations[:, None] @ payloads[None, :, :, None])[..., 0]
    model = np.empty_like(received)
    for m, rotation in enumerate(rotations.tolist()):
        for n, (x, y, z) in enumerate(payloads.tolist()):
            for i, (r0, r1, r2) in enumerate(rotation):
                fused = float(Fraction(r0) * Fraction(x) + Fraction(r1 * y))
                model[m, n, i] = fused + r2 * z
    assert np.array_equal(received.view(np.int64), model.view(np.int64)), (
        f"stacked rotation product is not fma(r0, x, r1 * y) + r2 * z under {_kernel_named()}"
    )


@pytest.mark.parametrize("predicate", lattice.PREDICATES)
def test_reveal_steps_match_verify_reveal(params_d3_l8, predicate):
    # the soundness index rule against the coordinate test, for every honest
    # point of (3, 8) and every decoded point near it in the codebook
    params = lattice.LatticeParams(params_d3_l8.basis, params_d3_l8.eps_meas, predicate)
    d, L = params.d, params.L
    weights = analysis._lex_weights(d, L)
    steps = set(analysis._reveal_steps(params).tolist())
    eye = np.eye(d, dtype=np.int64)
    moves = [0 * eye[0]]
    moves += [m * eye[k] for k in range(d) for m in (-2, -1, 1, 2, 3)]
    moves += [
        s * eye[j] + t * eye[k]
        for j, k in itertools.combinations(range(d), 2)
        for s in (-1, 1, 2)
        for t in (-1, 1, 2)
    ]
    verdicts = Counter()
    for a in itertools.product(range(L), repeat=d):
        for move in moves:
            decoded = np.array(a) + move
            if decoded.min() < 0 or decoded.max() > L + 1:
                continue
            by_index = int((decoded - a) @ weights) in steps
            expected = lattice.verify_reveal(params, decoded, lattice.parity(a), a)
            assert by_index == expected
            verdicts[by_index, decoded.max() > L - 1] += 1
    # accepted and refused decodes, with and without a coordinate at L or L+1
    assert set(verdicts) == {(v, top) for v in (True, False) for top in (True, False)}


# --- reveal verification ---------------------------------------------------

@pytest.mark.parametrize("predicate", lattice.PREDICATES)
def test_verify_accepts_honest_bumps(params_d2_l4, predicate):
    a = (1, 2)
    for j in range(2):
        for multiplier in (1, 2):
            decoded = np.array(a)
            decoded[j] += multiplier
            assert lattice.verify_reveal(
                params_d2_l4, decoded, lattice.parity(a), a, predicate=predicate
            )


def test_verify_zero_difference_split(params_d2_l4):
    a = (1, 2)
    assert lattice.verify_reveal(params_d2_l4, np.array(a), 1, a, predicate="lenient")
    assert not lattice.verify_reveal(params_d2_l4, np.array(a), 1, a, predicate="strict")


def test_verify_rejects(params_d2_l4):
    a = (1, 2)
    assert not lattice.verify_reveal(params_d2_l4, np.array([2, 3]), 1, a)  # two bumps
    assert not lattice.verify_reveal(params_d2_l4, np.array([4, 2]), 1, a)  # bump of 3
    assert not lattice.verify_reveal(params_d2_l4, np.array([0, 2]), 1, a)  # bump of -1
    assert not lattice.verify_reveal(params_d2_l4, np.array([2, 2]), 0, a)  # wrong parity
    assert not lattice.verify_reveal(params_d2_l4, np.array([2, 2]), 1, (1, 4))  # out of range
    for bad in [(1.0, 2), (1.9, 2), ("1", 2), None]:  # not integers: raise, never truncate
        with pytest.raises(TypeError):
            lattice.verify_reveal(params_d2_l4, np.array([2, 2]), 1, bad)
    # the bit is checked as the point is: 3 and 1.0 once passed as 1 modulo 2
    for bad_bit in [3, -1, 2]:
        with pytest.raises(ValueError, match="revealed bit"):
            lattice.verify_reveal(params_d2_l4, np.array([2, 2]), bad_bit, a)
    for bad_bit in [1.0, 0.0, "1", None]:
        with pytest.raises(TypeError):
            lattice.verify_reveal(params_d2_l4, np.array([2, 2]), bad_bit, a)


@pytest.mark.parametrize("predicate", lattice.PREDICATES)
@pytest.mark.parametrize("d,L", [(1, 4), (2, 3), (2, 5), (3, 4)])
def test_accepting_reveals_match_verify_reveal(d, L, predicate):
    # for every decodable point, the masked candidates are exactly the reveals
    # in the honest range that verify_reveal accepts with their own parity,
    # each listed once, so a decoded event counts a reveal at most once
    params = lattice.make_params(d, L)
    decoded = np.array(list(itertools.product(range(L + 2), repeat=d)))
    reveals, ok = lattice.accepting_reveals(params, decoded, predicate)
    assert reveals.shape[:2] == ok.shape == (len(decoded), 2 * d + (predicate == "lenient"))
    honest = list(itertools.product(range(L), repeat=d))
    for x, candidates, mask in zip(decoded.tolist(), reveals.tolist(), ok.tolist()):
        listed = [tuple(r) for r, good in zip(candidates, mask) if good]
        expected = {
            r for r in honest
            if lattice.verify_reveal(params, x, sum(r) % 2, r, predicate=predicate)
        }
        assert len(listed) == len(set(listed))
        assert set(listed) == expected, x


# --- the channel/lattice correspondence -------------------------------------

def test_lattice_mu_support_sizes():
    params2 = lattice.make_params(2, 4)
    support = so3.enumerate_support(lattice.lattice_mu(params2))
    assert len(support) == 4
    assert all(p == Fraction(1, 4) for _, p in support)

    params1 = lattice.make_params(1, 2)
    support1 = so3.enumerate_support(lattice.lattice_mu(params1))
    assert len(support1) == 2
    assert all(p == Fraction(1, 2) for _, p in support1)
    angles = sorted(so3.rotation_z_angle(r) for r, _ in support1)
    assert angles == pytest.approx([math.pi / 6, math.pi / 3], abs=TOL)


def _geometric_noise_law(params, a):
    law = {}
    for rotation, prob in so3.enumerate_support(lattice.lattice_mu(params)):
        decoded = lattice.decode_commit(params, rotation @ lattice.encode(params, a))
        key = None if decoded is None else tuple(int(x) for x in decoded)
        law[key] = law.get(key, Fraction(0)) + prob
    return law


def _abstract_noise_law(params, a):
    law = {}
    for j, multiplier in noise_events(params.d):
        moved = list(a)
        moved[j] += multiplier
        key = tuple(moved) if max(moved) <= params.L + 1 else None
        law[key] = law.get(key, Fraction(0)) + Fraction(1, 2 * params.d)
    return law


@pytest.mark.parametrize("d,L", [(1, 2), (2, 4), (3, 8)])
def test_rotation_decoding_matches_coordinate_noise_exactly(d, L):
    # exact law equivalence between the geometric path and the lattice action
    params = lattice.make_params(d, L)
    rng = np.random.default_rng(17)
    test_points = {tuple(lattice.commit(params, b, rng)[0]) for b in (0, 1) for _ in range(5)}
    for a in test_points:
        assert _geometric_noise_law(params, a) == _abstract_noise_law(params, a)


def test_rotation_decoding_matches_noise_chi2(params_d2_l4):
    params = params_d2_l4
    a = (1, 2)
    rng = np.random.default_rng(23)
    n = 100_000
    counts = Counter()
    payload = lattice.encode(params, a)
    mu = lattice.lattice_mu(params)
    for _ in range(n):
        decoded = lattice.decode_commit(params, so3.sample(mu, rng) @ payload)
        counts[tuple(int(x) for x in decoded)] += 1
    expected = n / (2 * params.d)
    statistic = sum((c - expected) ** 2 / expected for c in counts.values())
    dof = 2 * params.d - 1
    assert len(counts) == 2 * params.d
    assert statistic <= scipy.stats.chi2.ppf(0.99, dof)


# --- completeness ----------------------------------------------------------

def test_honest_completeness_exhaustive(params_d2_l4):
    params = params_d2_l4
    for b in (0, 1):
        for a in parity_class(params.d, params.L, b):
            payload = lattice.encode(params, a)
            for rotation, _ in so3.enumerate_support(lattice.lattice_mu(params)):
                decoded = lattice.decode_commit(params, rotation @ payload)
                assert decoded is not None
                assert lattice.verify_reveal(params, decoded, b, a)


def test_honest_completeness_monte_carlo(params_d3_l8):
    rng = np.random.default_rng(29)
    specs = [lattice.lattice_protocol(params_d3_l8, b) for b in (0, 1)]
    for _ in range(10_000):
        b = int(rng.integers(2))
        assert engine.run_session(specs[b], rng).outcome == engine.Accepted(b)


@pytest.mark.parametrize("d,L", [(3, 8), (4, 16)])
def test_honest_sessions_accept_at_soundness_floor(d, L):
    # a session rotates its payload by rotation @ payload, not the exact
    # enumeration's stacked product: the floor holds for either kernel
    params = lattice.make_params(d, L, eps_meas=lattice.soundness_floor(d))
    specs = [lattice.lattice_protocol(params, b) for b in (0, 1)]
    rng = np.random.default_rng(d * L)
    for _ in range(2000):
        b = int(rng.integers(2))
        assert engine.run_session(specs[b], rng).outcome == engine.Accepted(b)


def test_honest_session_encodes_its_point_once(monkeypatch):
    params = lattice.make_params(2, 4)
    calls = []
    encode = lattice.encode

    def counting_encode(*args):
        calls.append(args)
        return encode(*args)

    monkeypatch.setattr(lattice, "encode", counting_encode)
    t = engine.run_session(lattice.lattice_protocol(params, 0), np.random.default_rng(5))
    assert t.outcome == engine.Accepted(0)
    assert len(calls) == 1


def test_cheating_reveal_is_judged_not_truncated():
    # from the commit (0, 0), the reveal (1, (0, 1)) passes the lenient test
    # after the noise e_2 or 2e_2; (0.9, 1.9) is malformed, never read as (0, 1)
    params = lattice.make_params(2, 8, predicate="lenient")
    spec = lattice.lattice_protocol(params, 1)
    payload = lattice.encode(params, (0, 0))
    rng = np.random.default_rng(0)
    outcomes = Counter()
    for _ in range(200):
        rotation = so3.sample(spec.mu, rng)
        for reveal in [(0, 1), (0.9, 1.9)]:
            cheat = lattice.CheatingLatticeAlice(params, payload, 1, reveal)
            scripted = engine.ScriptedParty(
                engine.ALICE, engine.commit_reveal_script(payload, 1, reveal)
            )
            for alice in (cheat, scripted):
                t = engine.run_session(spec, rotation=rotation, alice=alice)
                outcomes[reveal, t.outcome] += 1
    assert outcomes[(0.9, 1.9), engine.Aborted("malformed-reveal")] == 400
    assert outcomes[(0, 1), engine.Accepted(1)] > 0
