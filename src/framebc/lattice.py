"""Lattice-coordinate commitment scheme over a two-point angle-mixture channel.

A d-dimensional lattice point a in {0..L-1}^d is encoded as the planar unit
vector at angle alpha(a) = sum_i a_i * theta_i.  The basis angles theta_i
are rationally independent (square roots of distinct primes times one
common factor), so the map is injective on the decoding range {0..L+1}^d
and the channel's rotation by theta_j or 2*theta_j turns a into a + e_j or
a + 2e_j in coordinates.  Committing to a bit b means drawing a uniformly from the
parity-b class and sending the encoded vector; revealing means sending
(b, a) in the clear and letting Bob compare against what he decoded.

Decoding is nearest-codeword search in a sorted table of all (L+2)^d
codebook angles, accepting only within the measurement tolerance eps_meas.
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
(`build_angle_basis`).  The first decode computes the codebook angles
(`codebook_angles`) and keeps the permutation that sorts them (`_order`,
the lexicographic index of each sorted codeword) and the sorted angles;
the cosine and sine tables follow on that decode and the channel on its
first use, all cached on the basis.
No point table exists: a decoded point is its codeword's lexicographic
index, unravelled.  A parameter set is a plain validated record over the
basis, so every parameter set over one basis shares one copy of each, and
work that never decodes (binding, concealing) never pays for the tables.
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
    is the only owner of derived state: the permutation that sorts the
    codebook (`_order`) and the sorted angles (`_angles`), the decoder's
    cosines and sines, and the channel `_mu` are built on first use and
    then cached here, in the instance's `__dict__`.
    """

    @functools.cached_property
    def _order(self) -> np.ndarray:
        # entry k is the lexicographic index of the codeword with the k-th smallest angle;
        # the certificate keeps the table angles distinct, so the order is unique, and
        # this one pass also keeps the sorted angles
        alphas = codebook_angles(self.d, self.L, np.asarray(self.angles))
        order = np.argsort(alphas)
        vars(self)["_angles"] = alphas[order]
        return order

    @functools.cached_property
    def _angles(self) -> np.ndarray:
        self._order  # the sort that builds the order keeps the sorted angles
        return vars(self)["_angles"]

    @functools.cached_property
    def _cos(self) -> np.ndarray:
        return np.cos(self._angles)

    @functools.cached_property
    def _sin(self) -> np.ndarray:
        return np.sin(self._angles)

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

    The decode table's angles: each a d-term dot product, within gamma_d*A
    of its exact angle in any summation order (see `soundness_floor`), and
    independent of the chunking, since matmul computes each row of a
    product of two or more rows on its own.
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
    codebook, which the first decode tabulates, exceeds the budget.
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
    4. The decoded point, `_order[p]` unravelled, is c: decoded minus a is
       m*e_j, which both predicates accept, and the reveal (parity(a), a) is
       in range with its own parity.
    Only d enters; L and the angles enter through A and the certificate.
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
    beyond these three fields: the decode tables and the channel belong to
    the basis, so parameter sets over one basis share one copy of each.
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


def decode_commit(params: LatticeParams, received) -> np.ndarray | None:
    """Nearest-codeword decoding within eps_meas; None means abort.

    Binary search in the sorted codebook-angle table proposes the two
    angular neighbours of the received direction (plus the table endpoints
    to cover wraparound), then the true Euclidean distance in R^3 decides.
    The candidates are scored in `_decode_positions`'s order, so both keep
    the same first of equal minima.  Out-of-plane or shrunken vectors fail
    the distance test on their own.
    The winner's entry of `_order` is its lexicographic index, which
    unravels to the decoded int64 point.  `decode_batch` applies the same
    rule to many vectors at once; this scalar form stays for the
    per-session decodes of `engine.run_session`.
    """
    received = np.asarray(received, dtype=float)
    rx, ry, rz = float(received[0]), float(received[1]), float(received[2])
    phi = math.atan2(ry, rx) % (2.0 * math.pi)
    basis = params.basis
    angles = basis._angles
    i = int(np.searchsorted(angles, phi))
    last = len(angles) - 1
    best_idx = -1
    best_sq = math.inf
    cos_table, sin_table = basis._cos, basis._sin
    for idx in (0, last, min(i, last), max(i - 1, 0)):
        dx = rx - cos_table[idx]
        dy = ry - sin_table[idx]
        sq = dx * dx + dy * dy + rz * rz
        if sq < best_sq:
            best_sq = sq
            best_idx = idx
    if best_sq <= params.eps_meas * params.eps_meas:
        point = np.unravel_index(basis._order[best_idx], (basis.L + 2,) * basis.d)
        return np.array(point, dtype=np.int64)
    return None


def decode_batch(params: LatticeParams, xyz) -> tuple[np.ndarray, np.ndarray]:
    """`decode_commit` over the rows of an (n, 3) array in one pass.

    Returns the decoded points as an (n, d) int array and a boolean mask of
    the rows that decode; a row whose mask is False means abort, and its
    point is only the nearest candidate.  Candidates and the distance test
    are decode_commit's: the table endpoints and the two angular neighbours
    of each received direction, judged by squared distance in R^3.
    """
    positions, ok = _decode_positions(params, np.asarray(xyz, dtype=float).reshape(-1, 3))
    lex = params.basis._order[positions]
    return np.stack(np.unravel_index(lex, (params.L + 2,) * params.d), axis=1), ok


def _decode_positions(params: LatticeParams, xyz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`decode_batch`'s rule on an (..., 3) array, as positions in the sorted codebook.

    Scores the candidates 0, last, i and i-1 (i the insertion point of the
    received direction) in that order, each as one array, and keeps the
    first of equal minima, as argmin over the four would.  Returns the
    positions and the within-eps mask, both of shape (...).
    """
    rx, ry, rz = xyz[..., 0], xyz[..., 1], xyz[..., 2]
    basis = params.basis
    angles, cos_table, sin_table = basis._angles, basis._cos, basis._sin
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
    return best, best_sq <= params.eps_meas * params.eps_meas


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
