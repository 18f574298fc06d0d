"""Lattice-coordinate commitment scheme over a two-point angle-mixture channel.

A d-dimensional lattice point a in {0..L-1}^d is encoded as the planar unit
vector at angle alpha(a) = sum_i a_i * theta_i.  The basis angles theta_i
are rationally independent (square roots of distinct primes times one
common factor), so the map is injective on the decoding range {0..L+1}^d
and the channel's rotation by theta_j or 2*theta_j turns a into a + e_j or
a + 2e_j in coordinates.  Committing to a bit b means drawing a uniformly from the
parity-b class and sending the encoded vector; revealing means sending
(b, a) in the clear and letting Bob compare against what he decoded.

Decoding is nearest-codeword search among the angular neighbours of the
received direction, accepting only within the tolerance eps_meas.
Construction certifies the codebook: the minimum angular gap between exact
codeword angles (min_gap) is computed up front, and parameters are rejected
unless the induced Euclidean separation 2*sin(min_gap/2) exceeds
2*eps_meas, which is exactly the condition for the tolerance ball around a
received vector to contain at most one codeword.  From `soundness_floor(d)`
up, a few dozen ulps, a certified tolerance also provably decodes every
honest commitment, under every noise event, to its own bumped point.

The certified basis owns all derived state.  Certification keeps no table: a
meet-in-the-middle search names the few pair differences k that can attain
the gap, and min_gap is their least |k . theta|, exactly
(`build_angle_basis`).  Decoding keeps no table of the (L+2)^d codewords
either.  Its split table (`AngleBasis._split`), built on the first decode,
holds the sorted angles of the trailing d - 1 coordinates, (L+2)^(d-1) of
them, with their lexicographic indices.  A decode looks up the received
direction once per leading value and recomputes the few hits' angles
exactly, so it reaches the same verdict and point as a search of the
sorted full table (`decode_commit`, `_decode_window`).  The channel is
built on its first use, and both are cached on the basis.
No point table exists: a decoded point is its codeword's lexicographic
index, unravelled.  A parameter set is a plain validated record over the
basis, so every parameter set over one basis shares one copy of each, and
work that never decodes (binding, concealing) never pays for either.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import engine
from .engine import DEFAULT_ENUM_BUDGET, BudgetExceededError
from .so3 import Record, TwoPointAngleMixture, planar_unit

PREDICATES = ("strict", "lenient")


def first_primes(k: int) -> list[int]:
    primes: list[int] = []
    candidate = 2
    while len(primes) < k:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


class AngleBasis(Record, NamedTuple("AngleBasis", [
    ("d", int), ("L", int), ("angles", tuple[float, ...]), ("min_gap", float)
])):
    """Certified angle basis for a (d, L) codebook.

    angles[i] is sqrt(p_i), p_i the i-th prime, times one common factor
    chosen so sum_i (L+1)*angles[i] = pi/2, which keeps every codebook angle
    inside [0, pi/2] and rules out wraparound.  min_gap is the smallest
    distance between exact codeword angles over these float angles,
    exactly, certified at construction with no table.  The basis
    is the only owner of derived state: the decoder's split table
    (`_split`) and the channel `_mu` are built on first use and then
    cached here, in the instance's `__dict__`.
    """

    @functools.cached_property
    def _split(self) -> tuple[np.ndarray, np.ndarray, float, np.ndarray, np.ndarray]:
        """The decoder's split table: (angles, shifts, window, tail, tail_lex).

        With h = min(1, d - 1) leading coordinates, tail holds the angles of
        the trailing d - h coordinates of every codeword, (L+2)^(d-h) of
        them as `codebook_angles` computes them, sorted, and tail_lex[k] is
        the lexicographic index, among the trailing points, of the one at
        tail[k].  For each leading value c, lead = fl(c * angles[0]) (the
        one lead 0.0 when h = 0): shifts holds every lead + reach, then every
        lead - reach, so phi - shifts gives a decode's lower lookup bounds,
        then its upper ones.  window and reach are `_decode_window`'s, and
        angles is the basis angles as an array.
        """
        h = min(1, self.d - 1)
        angles = np.asarray(self.angles)
        partial = codebook_angles(self.d - h, self.L, angles[h:])
        order = np.argsort(partial)
        leads = np.arange(self.L + 2) * angles[0] if h else np.zeros(1)
        window, reach = _decode_window(self)
        shifts = np.concatenate([leads + reach, leads - reach])
        return angles, shifts, window, partial[order], order

    @functools.cached_property
    def _mu(self) -> TwoPointAngleMixture:
        return TwoPointAngleMixture(self.angles)

    @property
    def separation(self) -> float:
        """Smallest Euclidean distance between distinct codewords."""
        return 2.0 * math.sin(self.min_gap / 2.0)

    @property
    def max_safe_eps(self) -> float:
        """Strict upper bound for usable measurement tolerances."""
        return self.separation / 2.0

    def certifies(self, eps_meas: float) -> bool:
        """Whether every tolerance ball of radius eps_meas holds at most one codeword."""
        return 0.0 <= eps_meas and 2.0 * eps_meas < self.separation


def codebook_size(d: int, L: int) -> int:
    return (L + 2) ** d


#: rows per angle product; bounds the temporaries of every pass over codebook points
ANGLE_CHUNK = 1 << 16


def _box_chunks(lo, hi):
    """The points lo <= a < hi in lexicographic order, as rewrites of one float64 buffer.

    Each chunk fixes the leading coordinates and holds the grid of the
    trailing ones: at most ANGLE_CHUNK rows, or one coordinate's range if larger.
    """
    d, lead = len(lo), 0
    while lead < d - 1 and math.prod(hi[j] - lo[j] for j in range(lead, d)) > ANGLE_CHUNK:
        lead += 1
    grid = np.empty([hi[j] - lo[j] for j in range(lead, d)] + [d])
    for j in range(lead, d):  # coordinate j runs along grid axis j - lead
        grid[..., j] = np.arange(lo[j], hi[j]).reshape((-1,) + (1,) * (d - 1 - j))
    chunk = grid.reshape(math.prod(grid.shape[:-1]), d)
    for prefix in itertools.product(*map(range, lo[:lead], hi[:lead])):
        chunk[:, :lead] = prefix
        yield chunk


def codebook_angles(d: int, L: int, angles: np.ndarray) -> np.ndarray:
    """The (L+2)^d codebook angles in lexicographic order, one `_box_chunks` chunk at a time.

    The table angles that decoding reads: each a d-term dot product,
    within gamma_d*A of its exact angle in any summation order (see
    `soundness_floor`), and independent of the chunking, since matmul
    computes each row of a product of two or more rows on its own.
    """
    out = np.empty(codebook_size(d, L))
    for k, chunk in enumerate(_box_chunks((0,) * d, (L + 2,) * d)):
        np.matmul(chunk, angles, out=out[k * len(chunk):(k + 1) * len(chunk)])
    return out


def _gap_candidates(d: int, L: int, angles: np.ndarray) -> tuple[float, float, list]:
    """Estimate min |k . angles| over k != 0 in {-(L+1)..L+1}^d by meet in the middle.

    Returns e_min, a margin and every k (one of each +-k) with e(k) =
    |fl(q + r)| <= e_min + margin, q summing k's leading d - d//2 terms and r
    the rest.  With u = 2^-53 and S = (L+1) * sum(angles) < 2, e(k) lies
    within (d + 1) u S of |k . angles|, to first order, so a k attaining the
    exact minimum has e(k) <= e_min + (2d + 2) u S; the margin (6d + 8) 2u
    exceeds that by more than the roundings of the window ends.
    """
    span, n = L + 1, d - d // 2
    lo, hi = (0,) + (-span,) * (d - 1), (span + 1,) * d
    head = ((2 * span + 1) ** (n - 1) + 1) // 2  # the zero query's successor: first q kept
    queries, sums = (np.concatenate([c @ angles[part] for c in _box_chunks(lo[part], hi[part])])
                     for part in (slice(n), slice(n, d)))
    queries = queries[head:]
    order = np.argsort(sums)
    ranked = np.concatenate([[-math.inf], sums[order], [math.inf]])  # two neighbours for every q
    i = np.searchsorted(ranked, -queries)
    nearest = np.minimum(np.abs(queries + ranked[i]), np.abs(queries + ranked[i - 1]))
    rest = np.abs(sums[len(sums) // 2 + 1:])  # q = 0: the lexicographically positive r
    estimate = float(min(nearest.min(), rest.min(initial=math.inf)))
    margin = (6 * d + 8) * 2.0**-52
    window = estimate + margin
    hot = np.flatnonzero(nearest <= window)
    # the margin's slack exceeds an ulp of either window end, so no needed r lies on one
    first, stop = np.searchsorted(ranked, np.add.outer((-window, window), -queries[hot])).tolist()
    flat = [(head + q) * len(sums) + order[j - 1] for q, a, b in zip(hot.tolist(), first, stop)
            for j in range(a, b)]
    flat += [head * len(sums) - len(sums) // 2 + j for j in np.flatnonzero(rest <= window)]
    shape = (span + 1,) + (2 * span + 1,) * (d - 1)
    return estimate, margin, (np.column_stack(np.unravel_index(flat, shape)) + lo).tolist()


def _check_size(d: int, L: int) -> None:
    if d < 1:
        raise ValueError("need d >= 1 lattice dimensions")
    if L < 2:
        raise ValueError("need L >= 2 values per coordinate")


def build_angle_basis(d: int, L: int, budget: int = DEFAULT_ENUM_BUDGET) -> AngleBasis:
    """Construct and certify the angle basis for a (d, L) codebook.

    min_gap is G, the exact least |k . angles| over the k `_gap_candidates`
    names, in Fractions over the float angles.  G is a multiple of the ulp
    of the angle with the least exponent and at most that angle, so it is
    a double and float(G) is exact.  A G at most 2*gamma_d*A, the table's
    rounding (see `soundness_floor`), no longer keeps the table entries
    apart and raises ValueError.  Fails with BudgetExceededError when the
    codebook has more than `budget` codewords.
    """
    _check_size(d, L)
    n_points = codebook_size(d, L)
    if n_points > budget:
        raise BudgetExceededError(
            f"codebook too large to certify: (L+2)^d = {n_points} exceeds "
            f"the enumeration budget {budget}"
        )
    roots = np.sqrt(np.array(first_primes(d), dtype=float))
    angles = (math.pi / 2.0) / ((L + 1) * float(roots.sum())) * roots
    exact = [Fraction(a) for a in angles.tolist()]
    gap = min(abs(sum(map(operator.mul, k, exact))) for k in _gap_candidates(d, L, angles)[2])
    if gap <= Fraction(4 * d, 2**53 - d):  # 2 * gamma_d * A, as in `soundness_floor`
        raise ValueError("degenerate basis: codebook angles closer than the table's rounding")
    return AngleBasis(d=d, L=L, angles=tuple(angles.tolist()), min_gap=float(gap))


#: ulps within which cos, sin and atan2, numpy's and math's, return; `soundness_floor` assumes it
LIBM_ULPS = 4


def soundness_floor(d: int) -> float:
    """Least eps_meas from which every honest decode of a certified basis is proved to accept.

    An honest reveal of a in {0..L-1}^d sent through the noise event (j, m)
    is accepted when the received vector decodes to c = a + m*e_j.  This
    holds at every eps >= 2*delta that the basis certifies (2*eps <
    separation), delta bounding how far a received vector and a decode-table
    entry each lie from their exact codeword.

    Assumed: IEEE-754 binary64 with round to nearest, u = 2^-53; cos, sin
    and atan2 within K = LIBM_ULPS ulps, so a result v is off by at most
    2*K*u*|v| (the tests check each function); the angles of
    `build_angle_basis`, whose (L+1)*sum(theta) is pi/2 up to a few
    roundings, so every codebook angle and received direction lies in
    [0, A), A = 2.  A matmul may sum in any order, with or without fma: an
    n-term dot product is then within gamma_n = n*u/(1 - n*u) times the sum
    of its absolute products.  Write alpha(c) = sum_i c_i*theta_i exactly,
    and P(c) for the planar unit vector at alpha(c).

    The received vector y lies within delta_rx of P(c), the sum of:
    - the encoder angle: `encode` rounds the rounded products a_i*theta_i
      once (`encode_batch` is bit-identical), so it is within (2u + u^2)*A
      of alpha(a), and the unit vector moves no further;
    - the payload x: its cos and sin lie within 2Ku of that unit vector,
      and |x| <= 1 + 2Ku;
    - the rotation rot_z(m*theta_j): m*theta_j is exact for m in {1, 2},
      so its error is [[p, -q], [q, p]] with p, q the cos and sin errors, of
      norm sqrt(p^2 + q^2) <= 2Ku, and it moves x by at most 2Ku(1 + 2Ku);
      the exact rotation takes P(a) to P(c) and moves the rest no further;
    - the 3x3 product: each of y's first two coordinates is within
      gamma_3*(1 + 2Ku)^2 (Cauchy-Schwarz over |row|*|x|), and the third
      row (0, 0, 1) meets x's exact zero, so y moves at most
      sqrt(2)*gamma_3*(1 + 2Ku)^2.
    The table angle t_c is the d-term dot product c . theta, whose terms
    sum to below A, so it is within gamma_d*A of alpha(c), and its table
    cos and sin put the entry T_c within delta_t = gamma_d*A + 2Ku of P(c).
    The floor is 2*delta, delta = delta_rx + delta_t, times 1 + 2^-20,
    which covers the rounding of this formula, the second-order terms
    dropped below and the absolute error of subnormal results.

    Let eps >= 2*delta with 2*eps < separation.  Distinct codewords have
    |alpha(c') - alpha(c)| >= G = min_gap, the exact gap of
    `build_angle_basis`, so separation = fl(2*sin(G/2)) gives
    G >= 2*sin(G/2) >= separation/(1 + 2Ku) > 4*delta/(1 + 2Ku).  As
    gamma_d*A < delta, two table entries differ by at least
    G - 2*gamma_d*A > 4*delta/(1 + 2Ku) - 2*delta > 1.5*delta.
    1. The true codeword's position p is a candidate: 0, last, i or i-1.
       y's exact direction lies within asin(delta_rx) of alpha(c), atan2
       adds at most 2Ku*A and t_c lies within gamma_d*A, so
       |phi - t_c| <= delta + 3Ku < 1.5*delta (delta > 6Ku).  No other entry
       lies between phi and t_c, so the insertion point i is p or p+1.
    2. It is the strict minimum.  |y - T_c| <= delta.  Another candidate c'
       has |alpha(c') - alpha(c)| >= G, so the chord |P(c') - P(c)| >=
       2*sin(G/2), and |y - T_c'| >= chord - delta >= 3*delta - 8Ku*delta
       >= delta + 11Ku, since delta > 6Ku.  A float squared distance is
       within a factor (1 + u)^5 of the exact one, which cannot close that
       gap, so every other candidate scores more.
    3. Its float squared distance is at most delta^2*(1 + u)^5 <=
       eps^2*(1 + 6u)/4 < fl(eps^2), since eps^2 >= 4*delta^2 is a normal
       number and fl(eps^2) >= eps^2*(1 - u): it is within the tolerance.
    4. The decoded point, the lexicographic index at p unravelled, is c:
       decoded minus a is m*e_j, which both predicates accept, and the
       reveal (parity(a), a) is in range with its own parity.
    Steps 1 to 3 read the sorted-table rule of `decode_commit`, whose
    verdicts and accepted points the split-table decode matches bit for
    bit.  Only d enters; L and the angles enter through A and the
    certificate.
    """
    u, k, top = 2.0**-53, LIBM_ULPS, 2.0

    def gamma(n: int) -> float:
        return n * u / (1.0 - n * u)

    trig = 2 * k * u  # the relative error of a cos, sin or atan2 result
    # delta_rx: encoder angle, payload, rotation entries, 3x3 product
    received = (2 * u + u * u) * top + trig + trig * (1 + trig)
    received += math.sqrt(2) * gamma(3) * (1 + trig) ** 2
    table = gamma(d) * top + trig  # delta_t
    return 2.0 * (received + table) * (1.0 + 2.0**-20)


class LatticeParams(Record, NamedTuple("LatticeParams", [
    ("basis", AngleBasis), ("eps_meas", float), ("predicate", str)
])):
    """Scheme parameters over a certified basis.

    Rejects tolerances that violate the separation requirement
    2*sin(min_gap/2) > 2*eps_meas, so a successfully constructed instance
    always decodes honest traffic uniquely.  The `predicate` selects Bob's
    reveal test: "strict" requires the decoded point to differ from the
    revealed one by e_j or 2e_j; "lenient" additionally accepts zero
    difference.  Construction only validates, and the record holds nothing
    beyond these three fields: the decoder's split table and the channel
    belong to the basis, so parameter sets over one basis share one copy
    of each.
    """

    def __new__(cls, basis: AngleBasis, eps_meas: float, predicate: str = "lenient"):
        self = super().__new__(cls, basis, eps_meas, predicate)
        self.__post_init__()  # a method of its own, so the benchmark can time it
        return self

    def __post_init__(self) -> None:
        _resolve_predicate(self, None)
        if not self.basis.certifies(self.eps_meas):
            raise ValueError(
                f"eps_meas={self.eps_meas!r} not certified: it must be nonnegative "
                f"and the codeword separation {self.basis.separation!r} must "
                "exceed 2*eps_meas"
            )

    @property
    def d(self) -> int:
        return self.basis.d

    @property
    def L(self) -> int:
        return self.basis.L

    @property
    def angles(self) -> tuple[float, ...]:
        return self.basis.angles


def make_params(
    d: int,
    L: int,
    eps_meas: float | None = None,
    predicate: str = "lenient",
    budget: int = DEFAULT_ENUM_BUDGET,
) -> LatticeParams:
    """Build a certified basis and parameter set; eps defaults to safe/4."""
    basis = build_angle_basis(d, L, budget=budget)
    if eps_meas is None:
        eps_meas = basis.max_safe_eps / 4.0
    return LatticeParams(basis=basis, eps_meas=eps_meas, predicate=predicate)


def _resolve_predicate(params: LatticeParams, predicate: str | None) -> str:
    """The reveal test to apply: `predicate`, or the one params carries when None."""
    predicate = params.predicate if predicate is None else predicate
    if predicate not in PREDICATES:
        raise ValueError(f"predicate must be one of {PREDICATES}, got {predicate!r}")
    return predicate


# ---------------------------------------------------------------------------
# encode / commit / decode / verify
# ---------------------------------------------------------------------------

def parity(a) -> int:
    """Coordinate-sum parity; a coordinate that is not an integer raises TypeError."""
    return sum(map(operator.index, a)) % 2


def encode(params: LatticeParams, a) -> np.ndarray:
    """Planar unit vector at angle sum_i a_i * theta_i.

    A coordinate that is not an integer raises TypeError; it is never truncated.
    """
    coords = [operator.index(x) for x in a]
    if len(coords) != params.d:
        raise ValueError(f"expected {params.d} coordinates, got {len(coords)}")
    top = params.L + 1
    if any(x < 0 or x > top for x in coords):
        raise ValueError(f"coordinates must lie in 0..L+1, got {coords}")
    alpha = math.fsum(x * theta for x, theta in zip(coords, params.angles))
    return planar_unit(alpha)


#: the split point of `encode_batch`'s exact two-part sum
ENCODE_QUANTUM = 2.0**-51


def encode_batch(params: LatticeParams, points) -> np.ndarray:
    """`encode` over the rows of an (n, d) point array, as an (n, 3) array.

    Each row is bit-identical to `encode`'s, with no per-row Python call.
    Every product p = a_i * theta_i lies in [0, pi/2], so it splits exactly
    at the quantum ENCODE_QUANTUM into hi = floor(p/q)*q and lo = p - hi.
    The hi parts are multiples of q summing below 2 < 2^53 q.  The lo parts
    are below q and multiples of the smallest nonzero product's ulp, so
    their sum fits 53 bits whenever every basis angle exceeds d * 2^-52.
    Both row sums are therefore exact, and their sum is rounded once: the
    correctly rounded sum that `math.fsum` returns.  np.cos and np.sin then
    give math.cos and math.sin's doubles on this platform, which the tests
    check.  Callers pass in-range points.
    """
    products = np.asarray(points, dtype=float).reshape(-1, params.d) * params.angles
    hi = np.floor(products / ENCODE_QUANTUM) * ENCODE_QUANTUM
    alphas = hi.sum(axis=1) + (products - hi).sum(axis=1)
    return np.column_stack([np.cos(alphas), np.sin(alphas), np.zeros(len(alphas))])


def parity_class_size(d: int, L: int, b: int) -> int:
    """Number of points of {0..L-1}^d with coordinate sum = b mod 2."""
    evens = (L + 1) // 2
    odds = L // 2
    # ((e+o)^d + (e-o)^d) / 2 counts even-parity tuples
    total = L**d
    imbalance = (evens - odds) ** d
    return (total + imbalance) // 2 if b == 0 else (total - imbalance) // 2


def honest_points(
    params: LatticeParams, bits: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """One honest point per bit, uniform over that bit's parity class of {0..L-1}^d.

    Draws an (n, d) uniform array, then, by rejection, a fresh uniform point
    for every row whose parity differs from its bit, all such rows at once,
    until none differs; so odd L, whose parity classes are unequal, is exact.
    """
    points = rng.integers(params.L, size=(len(bits), params.d))
    redraw = np.flatnonzero(points.sum(axis=1) % 2 != bits)
    while len(redraw):
        points[redraw] = rng.integers(params.L, size=(len(redraw), params.d))
        redraw = redraw[points[redraw].sum(axis=1) % 2 != bits[redraw]]
    return points


def commit(
    params: LatticeParams, b: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw the secret lattice point for bit b with `honest_points`, and its encoded payload."""
    if operator.index(b) not in (0, 1):
        raise ValueError("committed bit must be 0 or 1")
    a = honest_points(params, np.array([b]), rng)[0]
    return a, encode(params, a)


def _decode_window(basis: AngleBasis) -> tuple[float, float]:
    """The decoder's angular window w and the reach of its split-table lookups.

    Claim: let eps be any tolerance the basis certifies.  Suppose a table
    entry T_c = (cos t_c, sin t_c) lies within eps of the received vector
    y in float squared distance, t_c being the table angle of codeword c
    (as `codebook_angles` computes it).  Suppose also that the sorted-table
    rule of `decode_commit` would score it as neighbour i or i - 1 of phi,
    and that c is neither codeword 0 nor the last.  Then |phi - t_c| <= w.

    Assumed as in `soundness_floor`: u = 2^-53, K = LIBM_ULPS and every
    table angle in [0, A), A = 2.  eps < max_safe_eps < sin(pi/12) < 0.26,
    since min_gap is at most angles[0] <= pi/6.
    1. The distance.  The float squared distance is fl(fl(dx^2 + dy^2) +
       fl(rz^2)), with dx = fl(rx - cos t_c) and dy likewise.  So it is at
       least (1 - u)^5 times the exact one, less a few subnormal units of
       2^-1074, and the planar distance |(rx, ry) - T_c| is at most
       eps*(1 + 3.01u) + 2^-500.
    2. The entry.  T_c lies within 2Ku of P(t_c), the unit vector at the
       float t_c.  So (rx, ry) lies within rho = max_safe_eps*(1 + 2^-40) +
       4Ku < 1 of P(t_c), and its exact direction psi lies within asin(rho)
       <= rho / sqrt(1 - rho^2) of t_c on the circle.
    3. The direction.  As i or i - 1 with c neither end, 0 < i < N, so
       t_0 = 0 < phi <= t_last < A.  So atan2 returned phi itself, not phi
       - 2*pi, within 2Ku*A = 4Ku of psi to first order.  Then psi lies in
       (-4Ku, A + 4Ku) and t_c in [0, A), so |psi - t_c| < pi is their
       distance on the circle, and |phi - t_c| <= rho / sqrt(1 - rho^2) +
       4Ku.
    w is that bound times 1 + 2^-20, which covers the rounding of its
    formula and the second-order terms.

    The reach is w + (d + 4)*2^-50, that is (8d + 32)u more than w.  t_c lies
    within (gamma_d + gamma_(d-h) + u)*A <= (4d + 3)u of lead + tail angle,
    the float angles of its two parts (see `AngleBasis._split`).  Forming
    the bounds phi - (lead -+ reach) rounds by at most 17u more.  So every
    t_c with fl(|phi - t_c|) <= w, which is within w*(1 + u) of phi, has
    its tail angle strictly inside the bounds for its leading value: the
    hits a decode keeps are exactly those table angles, an interval about
    phi that holds every t_c within w of it.
    """
    trig = 2 * LIBM_ULPS * 2.0**-53
    rho = basis.max_safe_eps * (1.0 + 2.0**-40) + 2 * trig
    window = (rho / math.sqrt(1.0 - rho * rho) + 2 * trig) * (1.0 + 2.0**-20)
    return window, window + (basis.d + 4) * 2.0**-50


def decode_commit(params: LatticeParams, received) -> np.ndarray | None:
    """Nearest-codeword decoding within eps_meas; None means abort.

    The rule is the sorted-table rule.  Sort the (L+2)^d table angles t (see
    `codebook_angles`) and let i be the insertion point of phi, the received
    direction.  Score the positions 0, last, i and i - 1 in that order by
    the squared distance in R^3 to (cos t, sin t, 0), keep the first least
    and accept it within eps.  Out-of-plane or shrunken vectors fail the
    distance test on their own.

    No table of (L+2)^d entries is built.  One searchsorted in the split
    table (`AngleBasis._split`) finds, for every leading value, the tail
    angles within the reach of phi - lead (`_decode_window`).  The hits'
    table angles are recomputed as `codebook_angles` computes them, in one
    product with codewords 0 and last, and the hits within w of phi are
    kept.  The decode then scores codeword 0, the last, the nearest kept
    angle at or above phi and the nearest below, in that order.  Those are
    the rule's candidates i and i - 1 when they lie within w of phi, and
    otherwise neither is within eps (`_decode_window`).  So the decode
    scores the rule's candidates in the rule's order, less some that fail
    the tolerance, and every verdict and every accepted point match the
    rule's bit for bit.  `decode_batch` applies the same rule to many
    vectors at once; this scalar form stays for the per-session decodes of
    `engine.run_session`.
    """
    rx, ry, rz = np.asarray(received, dtype=float).tolist()
    phi = math.atan2(ry, rx) % (2.0 * math.pi)
    basis = params.basis
    angles, shifts, window, tail, tail_lex = basis._split
    bounds = tail.searchsorted(phi - shifts).tolist()
    d, base, h, m = basis.d, basis.L + 2, min(1, basis.d - 1), len(bounds) // 2
    powers = [base**j for j in range(d - h - 1, -1, -1)]  # unravel a tail index
    flat = [0] * d + [base - 1] * d  # codewords 0 and last, so every product has two rows
    for lead in [k for k in range(m) if bounds[k] < bounds[m + k]]:
        for r in tail_lex[bounds[lead]:bounds[m + lead]].tolist():
            flat += [lead] * h + [r // q % base for q in powers]
    rows = np.array(flat, dtype=float).reshape(-1, d)  # as in `_decode_lex`
    t = rows @ angles
    cos_t, sin_t, t = np.cos(t).tolist(), np.sin(t).tolist(), t.tolist()
    above = below = None
    for k in range(2, len(t)):
        if abs(phi - t[k]) <= window:
            if t[k] >= phi:
                if above is None or t[k] < t[above]:
                    above = k
            elif below is None or t[k] > t[below]:
                below = k
    best, best_sq = -1, math.inf
    for k in (0, 1, above, below):
        if k is not None:
            dx = rx - cos_t[k]
            dy = ry - sin_t[k]
            sq = dx * dx + dy * dy + rz * rz
            if sq < best_sq:
                best, best_sq = k, sq
    if best_sq <= params.eps_meas * params.eps_meas:
        return rows[best].astype(np.int64)
    return None


def decode_batch(params: LatticeParams, xyz) -> tuple[np.ndarray, np.ndarray]:
    """`decode_commit` over the rows of an (n, 3) array in one pass.

    Returns the decoded points as an (n, d) int array and a boolean mask of
    the rows that decode; a row whose mask is False means abort, and its
    point is only the nearest of the codewords it scored.
    """
    lex, ok = _decode_lex(params, np.asarray(xyz, dtype=float).reshape(-1, 3))
    return np.stack(np.unravel_index(lex, (params.L + 2,) * params.d), axis=1), ok


def _decode_lex(params: LatticeParams, xyz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`decode_commit`'s rule on an (..., 3) array, as lexicographic indices of codewords.

    Looks up ANGLE_CHUNK bounds at a time, a row's 2(L+2) (2 when d = 1)
    together.  Scores codewords 0 and last, then each row's nearest kept
    angle at or above its direction, then its nearest below, each as one
    array, and keeps the first of equal minima, as `decode_commit` does.
    Returns the indices and the within-eps mask, both of shape (...).
    """
    basis = params.basis
    angles, shifts, window, tail, tail_lex = basis._split
    m = len(shifts) // 2
    ends = [0, codebook_size(basis.d, basis.L) - 1]
    flat = xyz.reshape(-1, 3)
    best_lex, best_sq = np.empty(len(flat), dtype=np.int64), np.empty(len(flat))
    step = max(1, ANGLE_CHUNK // len(shifts))
    for start in range(0, len(flat), step):
        rx, ry, rz = flat[start:start + step].T
        phi = np.arctan2(ry, rx) % (2.0 * math.pi)
        # over the rows in direction order each lead's bounds ascend, which speeds the lookups
        order = np.argsort(phi)
        bounds = phi[order] - shifts[:, None]
        hit = tail.searchsorted(bounds[:m]).ravel()  # the first tail angle in each window
        upper = bounds[m:].ravel()
        cell = np.flatnonzero((hit < len(tail)) & (tail.take(hit, mode="clip") < upper))
        cells, hits = [cell], [hit[cell]]
        while len(cells[-1]):  # step each window on while its next tail angle is below the bound
            cell, hit = cells[-1], hits[-1] + 1
            inside = (hit < len(tail)) & (tail.take(hit, mode="clip") < upper[cell])
            cells.append(cell[inside])
            hits.append(hit[inside])
        lead, row = np.divmod(np.concatenate(cells), len(phi))
        row = order[row]
        lex = tail_lex[np.concatenate(hits)] + lead * len(tail)
        # two or more C-contiguous float64 rows, so each product row is its table angle
        points = np.unravel_index(np.concatenate([ends, lex]), (basis.L + 2,) * basis.d)
        t = np.stack(points, axis=1).astype(float) @ angles
        cos_t, sin_t = np.cos(t), np.sin(t)
        rz_sq = rz * rz

        def squared_distance(k, rows=slice(None)):
            dx = rx[rows] - cos_t[k]
            dy = ry[rows] - sin_t[k]
            return dx * dx + dy * dy + rz_sq[rows]

        sq = squared_distance(slice(2, None), row)
        t, phi_hit = t[2:], phi[row]
        kept = np.abs(phi_hit - t) <= window
        above = t >= phi_hit
        best, least = np.zeros(len(phi), dtype=np.int64), squared_distance(0)
        scored = [(ends[1], squared_distance(1))]
        for side, reduce, none in ((kept & above, np.minimum, math.inf),
                                   (kept & ~above, np.maximum, -math.inf)):
            nearest = np.full(len(phi), none)
            reduce.at(nearest, row[side], t[side])
            side &= t == nearest[row]
            side_lex, side_sq = np.zeros(len(phi), dtype=np.int64), np.full(len(phi), math.inf)
            side_lex[row[side]], side_sq[row[side]] = lex[side], sq[side]
            scored.append((side_lex, side_sq))
        for candidate, candidate_sq in scored:
            closer = candidate_sq < least
            best = np.where(closer, candidate, best)
            least = np.where(closer, candidate_sq, least)
        best_lex[start:start + step], best_sq[start:start + step] = best, least
    eps_sq = params.eps_meas * params.eps_meas
    return best_lex.reshape(xyz.shape[:-1]), (best_sq <= eps_sq).reshape(xyz.shape[:-1])


def verify_reveal(
    params: LatticeParams,
    decoded,
    revealed_b: int,
    revealed_a,
    predicate: str | None = None,
) -> bool:
    """Bob's reveal test; True accepts, False aborts.

    Checks the revealed point is in the honest range with the revealed
    parity, then that decoded - revealed is a single-coordinate bump of 1
    or 2 (strict) or additionally the zero vector (lenient).  `predicate`
    overrides the one carried by params, and one outside PREDICATES raises
    ValueError, as in every function taking it.  A revealed bit or point that
    is not integral raises TypeError and a bit other than 0 or 1 ValueError:
    neither is ever truncated or reduced modulo 2.
    """
    predicate = _resolve_predicate(params, predicate)
    b = operator.index(revealed_b)
    if b not in (0, 1):
        raise ValueError(f"revealed bit must be 0 or 1, got {b}")
    a = [operator.index(x) for x in revealed_a]
    if len(a) != params.d:
        return False
    top = params.L - 1
    if any(x < 0 or x > top for x in a):
        return False
    if sum(a) % 2 != b:
        return False
    bumps = 0
    bump_value = 0
    for decoded_i, a_i in zip(decoded, a):
        diff = int(decoded_i) - a_i
        if diff:
            bumps += 1
            bump_value = diff
    if bumps == 0:
        return predicate == "lenient"
    return bumps == 1 and bump_value in (1, 2)


def accepting_reveals(
    params: LatticeParams, decoded, predicate: str | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Every reveal Bob accepts after decoding `decoded`, each sent with its own parity.

    The reveal test passes exactly when decoded - revealed is e_k or 2e_k
    (or zero, under lenient) and the revealed point lies in the honest
    range.  For decoded points of shape (..., d), returns the candidates
    decoded - s*e_k, s in {1, 2}, led by decoded itself under lenient, shape
    (..., c, d), and the mask of those inside {0..L-1}^d, shape (..., c).
    """
    eye = np.eye(params.d, dtype=np.int64)
    shifts = [0 * eye[0]] if _resolve_predicate(params, predicate) == "lenient" else []
    shifts = np.array(shifts + [bump * eye[k] for k in range(params.d) for bump in (1, 2)])
    reveals = np.asarray(decoded, dtype=np.int64)[..., None, :] - shifts
    return reveals, ((reveals >= 0) & (reveals <= params.L - 1)).all(axis=-1)


def lattice_mu(params: LatticeParams) -> TwoPointAngleMixture:
    """The channel distribution this parameter set is designed for, built once per basis."""
    return params.basis._mu


# ---------------------------------------------------------------------------
# protocol parties
# ---------------------------------------------------------------------------

def CheatingLatticeAlice(
    params: LatticeParams, payload, reveal_b: int, reveal_a
) -> engine.ScriptedParty:
    """Non-adaptive cheat: arbitrary commit payload, arbitrary fixed reveal.

    The reveal is sent as given, so Bob's decider alone judges its form.
    """
    return engine.ScriptedParty(
        engine.ALICE, engine.commit_reveal_script(payload, reveal_b, tuple(reveal_a))
    )


def lattice_protocol(params: LatticeParams, b: int) -> engine.ProtocolSpec:
    """Commit/reveal session spec; the honest point is drawn per session."""

    def honest_script(rng):
        a, payload = commit(params, b, rng)
        return engine.commit_reveal_script(payload, b, tuple(map(operator.index, a)))

    return engine.commit_reveal_protocol(
        lattice_mu(params),
        honest_script,
        lambda received: decode_commit(params, received),
        lambda decoded, rb, ra: verify_reveal(params, decoded, rb, ra),
    )
