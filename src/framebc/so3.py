"""Rotation geometry and misalignment-channel distributions.

A misalignment channel applies one random rotation R, drawn from a known
distribution mu over SO(3), to every frame-sensitive message of a protocol
session (and R^-1 to messages travelling the other way).  This module
provides the vector and rotation primitives plus the distribution variants
that the commitment schemes are built on.

Sign convention: ``rot_z(theta)`` maps the planar unit vector at angle
``alpha`` to the one at angle ``alpha + theta`` (counterclockwise seen from
+z).  Every scheme and analysis in this package relies on that single
convention; the lattice decoder in particular needs channel rotations to
*add* to the encoded angle.

Vectors are plain numpy arrays of shape (3,); rotations are orthogonal 3x3
numpy arrays with determinant +1.  Both are treated as immutable.  The
package's records are NamedTuple classes with the `Record` base.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

TAU = 2.0 * math.pi

#: absolute tolerance for angle comparisons mod 2*pi
ANGLE_TOL = 1e-9


class ContinuousSupportError(ValueError):
    """Exact support enumeration was requested for a continuous distribution."""


class Record:
    """Base of the package's records, listed before a NamedTuple base.

    A record behaves as a frozen dataclass, but its class gets no generated
    method beyond the NamedTuple's constructor.  Equality also compares the
    type, so a record never equals a plain tuple or a record of another
    class; hashing is the tuple's.  Records have no order: <, <=, > and >=
    raise TypeError with a record on either side, as a frozen dataclass's
    did.  No attribute can be set or deleted, so a record's `__dict__`
    holds only what its class caches there.  `_replace` validates through
    the constructor, and every record is true.
    """

    __slots__ = ()
    __hash__ = tuple.__hash__

    def __eq__(self, other):
        if type(other) is type(self):
            return tuple.__eq__(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        return not self == other

    def _unordered(self, other):
        raise TypeError(f"{type(self).__name__} records have no order")

    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __bool__(self) -> bool:
        return True

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


# ---------------------------------------------------------------------------
# vectors and rotations
# ---------------------------------------------------------------------------

def unit3(x: float, y: float, z: float) -> np.ndarray:
    """Unit vector in the direction of (x, y, z).

    A finite vector whose norm overflows is first divided by its largest
    absolute component; every other vector is divided by its norm directly.
    """
    v = np.array([float(x), float(y), float(z)])
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v))
    if math.isinf(norm) and np.isfinite(v).all():
        v = v / np.abs(v).max()
        norm = float(np.linalg.norm(v))
    if not (math.isfinite(norm) and norm >= 1e-12):
        raise ValueError("cannot normalize a near-zero or non-finite vector")
    return v / norm


def planar_unit(angle: float) -> np.ndarray:
    """Unit vector in the x-y plane at `angle` radians from +x."""
    return np.array([math.cos(angle), math.sin(angle), 0.0])


def plane_angle(v: np.ndarray) -> float:
    """Angle of v's x-y projection, in [0, 2*pi)."""
    return math.atan2(float(v[1]), float(v[0])) % TAU


def rot_z(theta: float) -> np.ndarray:
    """Rotation about +z taking planar angle alpha to alpha + theta."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def identity_rotation() -> np.ndarray:
    return np.eye(3)


def is_rotation(m: np.ndarray) -> bool:
    """True when m is orthogonal with determinant +1, within ANGLE_TOL."""
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        return False
    ortho = float(np.abs(m @ m.T - np.eye(3)).max()) <= ANGLE_TOL
    return ortho and abs(float(np.linalg.det(m)) - 1.0) <= ANGLE_TOL


def rotation_z_angle(rotation: np.ndarray) -> float:
    """Rotation angle in [0, 2*pi) for a rotation about the z axis.

    Only meaningful when the rotation actually fixes +z; callers that
    enumerate cyclic-subgroup supports use this to identify elements.
    """
    return math.atan2(float(rotation[1, 0]), float(rotation[0, 0])) % TAU


def angles_close(a: float, b: float) -> bool:
    """Equality of angles mod 2*pi, absolute tolerance ANGLE_TOL."""
    diff = (a - b) % TAU
    return diff <= ANGLE_TOL or TAU - diff <= ANGLE_TOL


def _quaternions_to_matrices(q: np.ndarray) -> np.ndarray:
    """Rotation matrices for unit quaternions, rows (w, x, y, z)."""
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    out = np.empty(q.shape[:-1] + (3, 3))
    out[..., 0, 0] = 1.0 - 2.0 * (y * y + z * z)
    out[..., 0, 1] = 2.0 * (x * y - w * z)
    out[..., 0, 2] = 2.0 * (x * z + w * y)
    out[..., 1, 0] = 2.0 * (x * y + w * z)
    out[..., 1, 1] = 1.0 - 2.0 * (x * x + z * z)
    out[..., 1, 2] = 2.0 * (y * z - w * x)
    out[..., 2, 0] = 2.0 * (x * z - w * y)
    out[..., 2, 1] = 2.0 * (y * z + w * x)
    out[..., 2, 2] = 1.0 - 2.0 * (x * x + y * y)
    return out


def haar_rotations(n: int, rng: np.random.Generator) -> np.ndarray:
    """n rotations distributed by the Haar measure on SO(3), as an (n, 3, 3) stack.

    Each is sampled as a normalized 4-dimensional Gaussian quaternion, which
    is exactly uniform on the unit 3-sphere and hence Haar after the
    two-to-one quotient onto SO(3).
    """
    q = rng.normal(size=(n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    return _quaternions_to_matrices(q)


# ---------------------------------------------------------------------------
# misalignment distributions
# ---------------------------------------------------------------------------

class HaarSO3(Record, NamedTuple("HaarSO3", [])):
    """Completely unknown relative frame: Haar-uniform over SO(3)."""


class CyclicZ(Record, NamedTuple("CyclicZ", [("n", int)])):
    """Uniform over the n rotations by 2*pi*k/n about +z."""

    def __new__(cls, n: int) -> CyclicZ:
        if n < 1:
            raise ValueError("cyclic group order must be >= 1")
        return super().__new__(cls, n)


class TwoPointAngleMixture(
    Record, NamedTuple("TwoPointAngleMixture", [("angles", tuple[float, ...])])
):
    """Pick one of d base angles uniformly, then rotate about +z by it or twice it.

    Each noise event (angle index j, multiplier m) has probability 1/(2d).
    This is the channel the lattice scheme is designed for: with probability
    1/2 the rotation advances the encoded angle by theta_j, otherwise by
    2*theta_j.  The 2d rotations rot_z(m * theta_j) are built once as one
    read-only (2d, 3, 3) array `rotations`, row 2j + m - 1 for event (j, m),
    the one order of the noise events; `sample` and `enumerate_support`
    both hand out its rows.  `rotations` is kept in the instance's
    `__dict__`, outside the fields, so it enters no repr, equality or hash.
    """

    def __new__(cls, angles: tuple[float, ...]) -> TwoPointAngleMixture:
        if len(angles) < 1:
            raise ValueError("need at least one angle")
        if not all(math.isfinite(a) and a > 0 for a in angles):
            raise ValueError(f"angles must be finite and positive, got {angles!r}")
        if len(set(angles)) != len(angles):
            raise ValueError("angles must be distinct")
        self = super().__new__(cls, angles)
        rotations = np.array([rot_z(m * angle) for angle in angles for m in (1, 2)])
        rotations.flags.writeable = False
        vars(self)["rotations"] = rotations
        return self


class UniformSegment(Record, NamedTuple("UniformSegment", [("phi_max", float)])):
    """Rotation about +z by an angle uniform on [0, phi_max]."""

    def __new__(cls, phi_max: float) -> UniformSegment:
        if not 0.0 < phi_max <= TAU:
            raise ValueError("phi_max must lie in (0, 2*pi]")
        return super().__new__(cls, phi_max)


class FiniteSupport(Record, NamedTuple("FiniteSupport", [("elements", tuple)])):
    """Generic finite distribution given as (rotation, probability) pairs.

    Probabilities must be nonnegative and sum to 1 within 1e-12.  Exact
    analyses convert them through Fraction, so dyadic floats (1/2, 1/4, ...)
    or Fraction instances keep everything rational.  Equality and hashing
    are by identity.
    """

    __hash__ = object.__hash__

    def __eq__(self, other) -> bool:
        return self is other

    def __new__(cls, elements: tuple[tuple[np.ndarray, Fraction | float], ...]) -> FiniteSupport:
        if not elements:
            raise ValueError("support must be nonempty")
        total = 0.0
        for rotation, prob in elements:
            if not float(prob) >= 0.0:
                raise ValueError(f"probabilities must be nonnegative, got {prob!r}")
            if not is_rotation(np.asarray(rotation, dtype=float)):
                raise ValueError("support element is not a rotation")
            total += float(prob)
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        return super().__new__(cls, elements)


MisalignmentDistribution = (
    HaarSO3 | CyclicZ | TwoPointAngleMixture | UniformSegment | FiniteSupport
)


def sample(mu: MisalignmentDistribution, rng: np.random.Generator) -> np.ndarray:
    """Draw one rotation from mu. Deterministic given the generator state.

    A TwoPointAngleMixture hands out its shared read-only rotations; every
    other distribution returns a fresh array.
    """
    if isinstance(mu, HaarSO3):
        return haar_rotations(1, rng)[0]
    if isinstance(mu, CyclicZ):
        k = int(rng.integers(mu.n))
        return rot_z(TAU * k / mu.n)
    if isinstance(mu, TwoPointAngleMixture):
        j = int(rng.integers(len(mu.angles)))
        return mu.rotations[2 * j + int(rng.integers(2))]
    if isinstance(mu, UniformSegment):
        return rot_z(float(rng.uniform(0.0, mu.phi_max)))
    if isinstance(mu, FiniteSupport):
        u = float(rng.random())
        acc = 0.0
        for rotation, prob in mu.elements:
            acc += float(prob)
            if u < acc:
                return np.array(rotation, dtype=float)
        return np.array(mu.elements[-1][0], dtype=float)
    raise TypeError(f"not a misalignment distribution: {mu!r}")


def enumerate_support(
    mu: MisalignmentDistribution,
) -> list[tuple[np.ndarray, Fraction]]:
    """Complete support of a finite mu as (rotation, exact probability) pairs.

    Raises ContinuousSupportError for HaarSO3 and UniformSegment.  A
    TwoPointAngleMixture lists its 2d shared read-only rotations at 1/(2d)
    each, in the order of its `rotations` rows, even where two coincide
    (one angle doubling another); probabilities always sum to exactly 1.
    """
    if isinstance(mu, (HaarSO3, UniformSegment)):
        raise ContinuousSupportError(
            f"continuous distribution has no finite support: {mu!r}"
        )
    if isinstance(mu, CyclicZ):
        return [(rot_z(TAU * k / mu.n), Fraction(1, mu.n)) for k in range(mu.n)]
    if isinstance(mu, TwoPointAngleMixture):
        return [(rotation, Fraction(1, len(mu.rotations))) for rotation in mu.rotations]
    if isinstance(mu, FiniteSupport):
        return [
            (np.array(rotation, dtype=float), Fraction(prob))
            for rotation, prob in mu.elements
        ]
    raise TypeError(f"not a misalignment distribution: {mu!r}")
