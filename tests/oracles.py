"""Brute-force references shared by the test modules."""

import itertools


def parity_class(d: int, L: int, b: int):
    """Iterate the points of {0..L-1}^d with parity b."""
    for point in itertools.product(range(L), repeat=d):
        if sum(point) % 2 == b:
            yield point
