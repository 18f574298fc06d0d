import math
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framebc import so3

TOL = 1e-9


def test_rotate_identity():
    v = so3.planar_unit(0.0)
    assert np.allclose(so3.identity_rotation() @ v, [1.0, 0.0, 0.0], atol=TOL)


def test_rotate_quarter_turn_adds_angle():
    # the package-wide sign convention: rot_z(theta) advances the planar angle
    out = so3.rot_z(math.pi / 2) @ np.array([1.0, 0.0, 0.0])
    assert np.allclose(out, [0.0, 1.0, 0.0], atol=TOL)


def test_rotation_inverse_composition():
    rng = np.random.default_rng(0)
    for _ in range(100):
        theta = float(rng.uniform(0, 2 * math.pi))
        v = so3.unit3(*rng.normal(size=3))
        back = so3.rot_z(-theta) @ (so3.rot_z(theta) @ v)
        assert np.linalg.norm(back - v) <= TOL


def test_rotation_matrix_invariants():
    rng = np.random.default_rng(1)
    mats = [so3.rot_z(0.7), *so3.haar_rotations(2, rng)]
    for m in mats:
        assert np.abs(m @ m.T - np.eye(3)).max() <= TOL
        assert abs(np.linalg.det(m) - 1.0) <= TOL
        assert so3.is_rotation(m)
    assert np.abs(mats[1].T @ mats[1] - np.eye(3)).max() <= TOL


def test_rotation_preserves_norm():
    rng = np.random.default_rng(2)
    for _ in range(50):
        rotation = so3.sample(so3.HaarSO3(), rng)
        v = so3.unit3(*rng.normal(size=3))
        assert abs(np.linalg.norm(rotation @ v) - 1.0) <= TOL


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_rotation_preserves_dot_products(seed):
    rng = np.random.default_rng(seed)
    u = so3.unit3(*rng.normal(size=3))
    v = so3.unit3(*rng.normal(size=3))
    rotation = so3.sample(so3.HaarSO3(), rng)
    assert abs((rotation @ u) @ (rotation @ v) - u @ v) <= TOL


def test_unit3_normalizes():
    v = so3.unit3(3.0, 4.0, 0.0)
    assert abs(np.linalg.norm(v) - 1.0) <= TOL
    # finite components whose norm overflows still normalize, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = so3.unit3(1e308, 1e308, 0.0)
    assert np.allclose(v, [math.sqrt(0.5), math.sqrt(0.5), 0.0], rtol=0.0, atol=TOL)
    with pytest.raises(ValueError):
        so3.unit3(0.0, 0.0, 0.0)
    # NaN fails every comparison, so the guard must accept, not reject, by comparison
    for bad in ((math.nan, 0.0, 0.0), (math.inf, 0.0, 0.0), (0.0, -math.inf, 1.0)):
        with pytest.raises(ValueError, match="non-finite"):
            so3.unit3(*bad)


# --- sampling laws ---------------------------------------------------------

def test_cyclic_sample_frequencies():
    mu = so3.CyclicZ(4)
    rng = np.random.default_rng(42)
    counts = np.zeros(4)
    n = 100_000
    for _ in range(n):
        angle = so3.rotation_z_angle(so3.sample(mu, rng))
        counts[round(angle / (math.pi / 2)) % 4] += 1
    assert np.all(np.abs(counts / n - 0.25) <= 0.01)


def test_two_point_sample_frequencies():
    angles = (0.11, 0.23, 0.37)
    mu = so3.TwoPointAngleMixture(angles)
    rng = np.random.default_rng(7)
    n = 100_000
    targets = [m * a for a in angles for m in (1, 2)]
    counts = np.zeros(len(targets))
    for _ in range(n):
        angle = so3.rotation_z_angle(so3.sample(mu, rng))
        idx = int(np.argmin([abs(angle - t) for t in targets]))
        counts[idx] += 1
    p = 1 / (2 * len(angles))
    sigma = math.sqrt(p * (1 - p) / n)
    assert np.all(np.abs(counts / n - p) <= 3 * sigma + 1e-12)


def test_haar_isotropy_moments():
    # oracle: uniform directions on the sphere have mean 0, second moment I/3
    rng = np.random.default_rng(42)
    images = np.einsum(
        "nij,j->ni", so3.haar_rotations(100_000, rng), np.array([1.0, 0.0, 0.0])
    )
    assert np.abs(images.mean(axis=0)).max() <= 0.02
    second = images.T @ images / len(images)
    assert np.abs(second - np.eye(3) / 3).max() <= 0.02


def test_uniform_segment_sampling():
    mu = so3.UniformSegment(math.pi)
    rng = np.random.default_rng(3)
    angles = [so3.rotation_z_angle(so3.sample(mu, rng)) for _ in range(20_000)]
    assert 0.0 <= min(angles) and max(angles) <= math.pi + TOL
    assert abs(np.mean(angles) - math.pi / 2) <= 0.02


@pytest.mark.parametrize(
    "mu",
    [
        so3.HaarSO3(),
        so3.CyclicZ(5),
        so3.TwoPointAngleMixture((0.3, 0.4)),
        so3.UniformSegment(1.0),
        so3.FiniteSupport(((np.eye(3), 0.5), (so3.rot_z(1.0), 0.5))),
    ],
)
def test_sample_determinism(mu):
    a_rng = np.random.default_rng(99)
    first = [so3.sample(mu, a_rng) for _ in range(100)]
    b_rng = np.random.default_rng(99)
    for mat in first:
        assert np.array_equal(mat, so3.sample(mu, b_rng))


# --- support enumeration ---------------------------------------------------

def test_enumerate_cyclic2():
    support = so3.enumerate_support(so3.CyclicZ(2))
    assert len(support) == 2
    assert all(p == Fraction(1, 2) for _, p in support)
    assert np.allclose(support[0][0], np.eye(3), atol=TOL)
    assert np.allclose(support[1][0], so3.rot_z(math.pi), atol=TOL)


def test_enumerate_two_point_generic():
    support = so3.enumerate_support(so3.TwoPointAngleMixture((0.2, 0.31)))
    assert len(support) == 4
    assert all(p == Fraction(1, 4) for _, p in support)


def test_enumerate_two_point_lists_coincident_rotations():
    # with theta2 = 2*theta1 the doubled first angle collides with the second;
    # both events are listed, and the law summed per rotation is unchanged
    support = so3.enumerate_support(so3.TwoPointAngleMixture((0.2, 0.4)))
    assert len(support) == 4
    probs = Counter()
    for r, p in support:
        probs[round(so3.rotation_z_angle(r), 9)] += p
    assert probs == {0.2: Fraction(1, 4), 0.4: Fraction(1, 2), 0.8: Fraction(1, 4)}
    assert sum(p for _, p in support) == 1


def test_enumerate_finite_support():
    mu = so3.FiniteSupport(((np.eye(3), 0.5), (so3.rot_z(math.pi / 2), 0.5)))
    support = so3.enumerate_support(mu)
    assert [p for _, p in support] == [Fraction(1, 2), Fraction(1, 2)]


@pytest.mark.parametrize("mu", [so3.HaarSO3(), so3.UniformSegment(math.pi)])
def test_enumerate_continuous_rejected(mu):
    with pytest.raises(so3.ContinuousSupportError, match="continuous"):
        so3.enumerate_support(mu)


def test_cyclic_group_closure():
    support = [r for r, _ in so3.enumerate_support(so3.CyclicZ(6))]
    angles = sorted(so3.rotation_z_angle(r) for r in support)
    for r1 in support:
        for r2 in support:
            product_angle = so3.rotation_z_angle(r1 @ r2)
            assert any(so3.angles_close(product_angle, a) for a in angles)


def test_finite_support_validation():
    with pytest.raises(ValueError, match="sum"):
        so3.FiniteSupport(((np.eye(3), 0.6), (so3.rot_z(1.0), 0.6)))
    with pytest.raises(ValueError, match="nonnegative"):
        so3.FiniteSupport(((np.eye(3), 1.5), (so3.rot_z(1.0), -0.5)))
    with pytest.raises(ValueError, match="not a rotation"):
        so3.FiniteSupport(((np.eye(3) * 2.0, 1.0),))
    with pytest.raises(ValueError, match="nonnegative"):
        so3.FiniteSupport(((np.eye(3), math.nan),))
    with pytest.raises(ValueError, match="nonnegative"):
        so3.FiniteSupport(((np.eye(3), 1.0), (so3.rot_z(1.0), math.nan)))
    with pytest.raises(ValueError, match="sum"):
        so3.FiniteSupport(((np.eye(3), math.inf),))


def test_two_point_validation():
    with pytest.raises(ValueError):
        so3.TwoPointAngleMixture(())
    with pytest.raises(ValueError):
        so3.TwoPointAngleMixture((0.1, 0.1))
    with pytest.raises(ValueError):
        so3.TwoPointAngleMixture((-0.1,))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_two_point_rejects_non_finite_angles(bad):
    with pytest.raises(ValueError, match="finite and positive"):
        so3.TwoPointAngleMixture((0.2, bad))


def test_two_point_sample_hands_out_fixed_rotations():
    # same two draws per sample as building rot_z(m * angle) afresh
    angles = (0.11, 0.23, 0.37)
    mu = so3.TwoPointAngleMixture(angles)
    rng, ref = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(200):
        rotation = so3.sample(mu, rng)
        j = int(ref.integers(len(angles)))
        multiplier = 1 + int(ref.integers(2))
        assert np.array_equal(rotation, so3.rot_z(multiplier * angles[j]))
        assert not rotation.flags.writeable
    assert rng.bit_generator.state == ref.bit_generator.state
