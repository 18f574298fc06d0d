"""Brute-force references shared by the test modules."""

import itertools
from fractions import Fraction

import numpy as np


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
