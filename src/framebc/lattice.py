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
either.  A codeword's table angle is its leading product plus the table
angle of its trailing coordinates, rounded (`codebook_angles`), so the
split table (`AngleBasis._split`), built on the first decode, holds the
leading products and the sorted angles of the trailing d - 1 coordinates
with their lexicographic indices.  A decode finds the received direction's
exact neighbours with one lookup per leading value, as a search of the
sorted full table would (`decode_commit`).  The channel is built on its
first use, and both are cached on the basis.
No point table exists: a decoded point is its codeword's lexicographic
index, unravelled.  A parameter set is a plain validated record over the
basis, so every parameter set over one basis shares one copy of each, and
work that never decodes (binding, concealing) never pays for either.
"""

from __future__ import annotations

import functools
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
    (`_split`: leading products, sorted trailing table angles) and the
    channel `_mu` are built on first use and then cached here, in the
    instance's `__dict__`.
    """

    @functools.cached_property
    def _split(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The decoder's split table: (leads, tail, tail_lex).

        With h = min(1, d - 1) leading coordinates, leads holds the table
        angles of the (L+2)^h leading values (the one angle 0.0 when h = 0)
        and tail the sorted table angles of the trailing d - h coordinates,
        (L+2)^(d-h) of them, as `codebook_angles` defines both; tail_lex[k]
        is the lexicographic index, among the trailing points, of the one at
        tail[k].  The codeword with leading value c and trailing index r has
        the table angle fl(leads[c] + the tail angle of r), by that
        definition.
        """
        h = min(1, self.d - 1)
        angles = np.asarray(self.angles)
        partial = codebook_angles(self.d - h, self.L, angles[h:])
        order = np.argsort(partial)
        return codebook_angles(h, self.L, angles[:h]), partial[order], order

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


#: lookups per `_decode_lex` block; bounds the temporaries of a batch decode
ANGLE_CHUNK = 1 << 16


def _grid_angles(lo, hi, angles) -> np.ndarray:
    """`codebook_angles`' angles over the points lo <= a < hi, by iterated outer sums."""
    t = np.zeros(1)
    for low, high, theta in zip(reversed(lo), reversed(hi), reversed(list(angles))):
        t = np.add.outer(np.arange(low, high) * theta, t).ravel()
    return t


def codebook_angles(d: int, L: int, angles: np.ndarray) -> np.ndarray:
    """The (L+2)^d codebook table angles in lexicographic order.

    The angles that decoding reads, defined right to left: t_c =
    fl(fl(c_0*theta_0) + t_tail), t_tail the table angle of c's trailing
    d - 1 coordinates, and 0.0 for no coordinates.  A d-term sum in one
    fixed order, so it is within gamma_d*A of the exact angle (see
    `soundness_floor`) and depends on no matmul kernel.
    """
    return _grid_angles((0,) * d, (L + 2,) * d, angles)


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
    queries = _grid_angles(lo[:n], hi[:n], angles[:n])
    sums = _grid_angles(lo[n:], hi[n:], angles[n:])
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
    The table angle t_c of `codebook_angles` sums the d rounded products
    c_i*theta_i in one fixed order, and they sum to below A, so it is within
    gamma_d*A of alpha(c), and its table cos and sin put the entry T_c
    within delta_t = gamma_d*A + 2Ku of P(c).
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
    """`encode` over the rows of an (n, d) integer point array, as an (n, 3) array.

    Each row is bit-identical to `encode`'s, with no per-row Python call.
    Every product p = a_i * theta_i lies in [0, pi/2], so it splits exactly
    at the quantum ENCODE_QUANTUM into hi = floor(p/q)*q and lo = p - hi.
    The hi parts are multiples of q summing below 2 < 2^53 q.  The lo parts
    are below q and multiples of the smallest nonzero product's ulp, so
    their sum fits 53 bits whenever every basis angle exceeds d * 2^-52.
    Both row sums are therefore exact, and their sum is rounded once: the
    correctly rounded sum that `math.fsum` returns.  np.cos and np.sin then
    give math.cos and math.sin's doubles on this platform, which the tests
    check.  Refuses what `encode` refuses: an array that is not (n, d)
    raises ValueError, a dtype that is not integral TypeError and a
    coordinate outside 0..L+1 ValueError.
    """
    points = np.asarray(points)
    if points.ndim != 2 or points.shape[1] != params.d:
        raise ValueError(f"expected an (n, {params.d}) point array, got shape {points.shape}")
    if not np.issubdtype(points.dtype, np.integer):
        raise TypeError(f"coordinates must be integers, got dtype {points.dtype}")
    if not ((0 <= points) & (points <= params.L + 1)).all():
        raise ValueError("coordinates must lie in 0..L+1")
    products = points * np.asarray(params.angles)
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


def decode_commit(params: LatticeParams, received) -> np.ndarray | None:
    """Nearest-codeword decoding within eps_meas; None means abort.

    The rule is the sorted-table rule.  Sort the (L+2)^d table angles t (see
    `codebook_angles`) and let i be the insertion point of phi, the received
    direction.  Score the positions 0, last, i and i - 1 in that order by
    the squared distance in R^3 to (cos t, sin t, 0), keep the first least
    and accept it within eps.  Out-of-plane or shrunken vectors fail the
    distance test on their own.

    No table of (L+2)^d entries is built.  Within one leading value c of
    the split table (`AngleBasis._split`), the table angle fl(leads[c] + x)
    is monotone in the tail angle x, so one searchsorted of phi - leads[c]
    finds, up to rounding, where the lead's table angles pass phi, and a
    short step that compares them with phi corrects it.  A lead at or
    above phi starts there, so only the first such lead is scored, by its
    own angle, and the leads below phi are looked up.  Over the leads,
    the least table angle at or above phi is then position i and the
    greatest below it i - 1: the decode scores the rule's candidates in the
    rule's order, so every verdict and every decoded point is the rule's,
    bit for bit.  `decode_batch` applies the same rule to many vectors at
    once; this scalar form stays for the per-session decodes of
    `engine.run_session`.  math.cos and math.sin give np.cos and np.sin's
    doubles on this platform, which the tests check.
    """
    rx, ry, rz = np.asarray(received, dtype=float).tolist()
    phi = math.atan2(ry, rx) % (2.0 * math.pi)
    basis = params.basis
    leads, tail, tail_lex = basis._split
    n, base = len(tail), basis.L + 2
    # from lead k on, a lead's least table angle is its own, at or above phi
    k = max(1, int(leads.searchsorted(phi)))
    live = leads[:k]
    pos = tail.searchsorted(phi - live)
    below = live + tail.take(pos - 1, mode="clip")
    above = live + tail.take(pos, mode="clip")
    up, down = above.argmin(), below.argmax()
    if not above[up] >= phi > below[down]:  # a lead at an end, or a lookup rounding misplaced
        # at an end, no table angle of the lead lies on that side
        above[pos == n], below[pos == 0] = np.inf, -np.inf
        for c in np.flatnonzero((above < phi) | (below >= phi)).tolist():
            while above[c] < phi or below[c] >= phi:  # step until the neighbours straddle phi
                j = pos[c] = pos[c] + (1 if above[c] < phi else -1)
                below[c] = live[c] + tail[j - 1] if j > 0 else -np.inf
                above[c] = live[c] + tail[j] if j < n else np.inf
        up, down = above.argmin(), below.argmax()
    t_up, lex_up = float(above[up]), up * n + int(tail_lex[min(pos[up], n - 1)])
    t_down, lex_down = float(below[down]), down * n + int(tail_lex[max(pos[down] - 1, 0)])
    if k < len(leads) and leads[k] < t_up:
        t_up, lex_up = float(leads[k]), k * n
    # the rule's candidates i and i - 1, the least table angle at or above phi and the
    # greatest below it; with none on a side the rule scores the last or codeword 0 again
    t_last = float(leads[-1] + tail[-1])
    scored = [(0.0, 0), (t_last, base**basis.d - 1),
              (t_up if phi <= t_up <= t_last else t_last, lex_up),
              (t_down if 0.0 <= t_down < phi else 0.0, lex_down)]
    best, best_sq = 0, math.inf
    for t, lex in scored:
        dx = rx - math.cos(t)
        dy = ry - math.sin(t)
        sq = dx * dx + dy * dy + rz * rz
        if sq < best_sq:
            best, best_sq = lex, sq
    if best_sq <= params.eps_meas * params.eps_meas:
        point = [best // base**e % base for e in range(basis.d - 1, -1, -1)]
        return np.array(point, dtype=np.int64)
    return None


def decode_batch(params: LatticeParams, xyz) -> tuple[np.ndarray, np.ndarray]:
    """`decode_commit`'s rule over the rows of an (n, 3) array, by `_decode_lex`.

    Returns the decoded points as an (n, d) int array and a boolean mask of
    the rows that decode; a row whose mask is False means abort, and its
    point is only the nearest of the codewords it scored.
    """
    lex, ok = _decode_lex(params, np.asarray(xyz, dtype=float).reshape(-1, 3))
    return np.stack(np.unravel_index(lex, (params.L + 2,) * params.d), axis=1), ok


def _decode_lex(params: LatticeParams, xyz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`decode_commit`'s rule on an (..., 3) array, as lexicographic indices of codewords.

    Looks up ANGLE_CHUNK tail bounds at a time, a row's L+2 (1 when d = 1)
    together, and steps the few that rounding put on the wrong side of phi,
    all at once.  Scores codewords 0 and last, then each row's least table
    angle at or above its direction, then its greatest below, each as one
    array, and keeps the first of equal minima, as `decode_commit` does.
    Returns the indices and the within-eps mask, both of shape (...).
    """
    leads, tail, tail_lex = params.basis._split
    n, lead, last = len(tail), leads[:, None], len(leads) * len(tail) - 1
    t_last = leads[-1] + tail[-1]
    flat = xyz.reshape(-1, 3)
    best_lex, best_sq = np.empty(len(flat), dtype=np.int64), np.empty(len(flat))
    step = max(1, ANGLE_CHUNK // len(leads))
    for start in range(0, len(flat), step):
        rows = flat[start:start + step]
        phi = np.arctan2(rows[:, 1], rows[:, 0]) % (2.0 * math.pi)
        # in direction order each lead's bounds ascend, which speeds the lookups
        order = np.argsort(phi)
        phi, (rx, ry, rz) = phi[order], rows[order].T
        pos = tail.searchsorted(phi - lead)  # shape (leads, rows)
        above, below = tail.take(pos, mode="clip"), tail.take(pos - 1, mode="clip")
        above += lead
        below += lead
        # at an end, no table angle of the lead lies on that side
        above[pos == n], below[pos == 0] = np.inf, -np.inf
        wrong = np.flatnonzero((above < phi) | (below >= phi))
        while len(wrong):  # step while both neighbours lie on one side of phi
            c, r = np.divmod(wrong, len(phi))
            j = pos.take(wrong) + np.where(above.take(wrong) < phi[r], 1, -1)
            pos.put(wrong, j)
            below.put(wrong, np.where(j > 0, leads[c] + tail.take(j - 1, mode="clip"), -np.inf))
            above.put(wrong, np.where(j < n, leads[c] + tail.take(j, mode="clip"), np.inf))
            wrong = wrong[(above.take(wrong) < phi[r]) | (below.take(wrong) >= phi[r])]
        # the rule's candidates i and i - 1, the least table angle at or above phi and the
        # greatest below it; with none on a side the rule scores the last or codeword 0 again
        cols = np.arange(len(phi))
        up, down = above.argmin(axis=0), below.argmax(axis=0)
        t_up, t_down = above[up, cols], below[down, cols]
        t_up = np.where((phi <= t_up) & (t_up <= t_last), t_up, t_last)
        t_down = np.where((0.0 <= t_down) & (t_down < phi), t_down, 0.0)
        lex_up = up * n + tail_lex[np.minimum(pos[up, cols], n - 1)]
        lex_down = down * n + tail_lex[np.maximum(pos[down, cols] - 1, 0)]
        best, least = np.zeros(len(phi), dtype=np.int64), np.full(len(phi), np.inf)
        for candidate, t in ((0, 0.0), (last, t_last), (lex_up, t_up), (lex_down, t_down)):
            dx = rx - np.cos(t)
            dy = ry - np.sin(t)
            sq = dx * dx + dy * dy + rz * rz
            closer = sq < least
            best = np.where(closer, candidate, best)
            least = np.where(closer, sq, least)
        best_lex[start + order], best_sq[start + order] = best, least
        del pos, below, above  # before the next block's lookups
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
