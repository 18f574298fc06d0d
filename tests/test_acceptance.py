"""Acceptance gate: one test and one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.  Every tolerance is pinned here; nothing defers to later
calibration.
"""

import itertools
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from framebc import analysis, cli, engine, lattice, simple, so3
from oracles import sorted_table


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


def test_criterion_1_lattice_soundness():
    with criterion(1, "lattice soundness"):
        start = time.monotonic()
        for d in (1, 2, 3):
            for L in (4, 8):
                params = lattice.make_params(d, L)
                assert analysis.lattice_soundness_exact(params) == Fraction(1)
                estimate = analysis.lattice_soundness_mc(params, 10_000, seed=42)
                assert estimate.successes == 10_000
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"soundness block took {elapsed:.2f}s"


def test_criterion_2_binding():
    with criterion(2, "binding 1/d lenient, 1/(2d) strict"):
        for d in (2, 3, 4):
            params = lattice.make_params(d, 8)
            lenient = analysis.binding_search(params, "lenient").probability
            strict = analysis.binding_search(params, "strict").probability
            assert lenient == Fraction(1, d)
            assert strict == Fraction(1, 2 * d)
            assert lenient >= strict
        start = time.monotonic()
        params5 = lattice.make_params(5, 8)
        lenient5 = analysis.binding_search(params5, "lenient").probability
        strict5 = analysis.binding_search(params5, "strict").probability
        elapsed = time.monotonic() - start
        assert lenient5 == Fraction(1, 5) and strict5 == Fraction(1, 10)
        assert lenient5 >= strict5
        assert elapsed < 10.0, f"d=5 search took {elapsed:.2f}s"


def test_criterion_3_concealing():
    with criterion(3, "concealing bound and monotonicity"):
        start = time.monotonic()
        anchors = {}
        for d in (1, 2, 3):
            for L in (4, 8, 16):
                eps = analysis.concealing_exact(d, L)
                anchors[(d, L)] = eps
                assert eps <= analysis.concealing_bound_exact(d, L), (d, L, eps)
        assert anchors[(2, 16)] < anchors[(2, 4)]
        # regression anchors frozen after the first computation (and checked
        # against an independent boundary count): distance is exactly 2/L
        for (d, L), eps in anchors.items():
            assert eps == Fraction(2, L), (d, L, eps)
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"concealing grid took {elapsed:.2f}s"


def test_criterion_4_continuous_scheme():
    with criterion(4, "continuous closed form vs Monte Carlo"):
        alphas = [round(0.1 * k, 1) for k in range(11)]
        rows = analysis.cheat_curve_continuous(alphas, trials=10_000, seed=42)
        for row in rows:
            assert abs(row.p0_exact + row.p1_exact - 1.5) <= 1e-12
            for exact, mc in ((row.p0_exact, row.p0_mc), (row.p1_exact, row.p1_mc)):
                sigma = math.sqrt(max(exact * (1 - exact), 1e-12) / mc.trials)
                assert abs(mc.rate - exact) <= 3 * sigma + 1e-9
        p0, p1 = simple.interpolation_acceptance(0.5)
        assert (p0, p1) == (0.75, 0.75)


def test_criterion_5_four_symbol_scheme():
    with criterion(5, "four-symbol exact figures"):
        assert analysis.four_symbol_concealing_exact() == Fraction(0)
        assert analysis.four_symbol_soundness_exact() == Fraction(1)
        assert analysis.four_symbol_flip_cheat()[0] == Fraction(1, 2)


def test_criterion_6_twirl_compiler():
    with criterion(6, "twirl compiler equivalence"):
        start = time.monotonic()
        for n in (2, 4, 8):
            group = so3.CyclicZ(n)
            spec = engine.probe_protocol(group)
            base = engine.transcript_distribution(spec)
            compiled = engine.compiled_transcript_distribution(spec, group)
            assert base == compiled, f"Z_{n} transcript laws differ"
        deltas = engine.haar_twirl_moments(100_000, seed=42)
        assert all(v < 0.02 for v in deltas.values()), deltas
        elapsed = time.monotonic() - start
        assert elapsed < 20.0, f"twirl block took {elapsed:.2f}s"


def test_criterion_7_finite_precision():
    with criterion(7, "finite-precision commitment"):
        params = lattice.make_params(3, 8, predicate="lenient")
        basis = params.basis
        # certification passes at the default tolerance
        assert basis.min_gap > 0
        assert basis.separation > 2 * params.eps_meas

        # off-codebook vectors beyond eps of every codeword score zero; the
        # sampled vectors are kept clear of the codebook's formal extension,
        # the one thin family that can reach (never beat) the honest caps
        angles = np.asarray(basis.angles)
        extended = np.sort(
            np.array(
                list(itertools.product(range(-2, params.L + 2), repeat=params.d)),
                dtype=float,
            )
            @ angles
        )
        rng = np.random.default_rng(42)
        zero_checked = 0
        while zero_checked < 100:
            phi = float(rng.uniform(0, 2 * math.pi))
            gap = float(np.abs(extended - phi).min())
            if 2 * math.sin(gap / 2) <= params.eps_meas:
                continue
            result = analysis.binding_search_finite_precision(
                params, so3.planar_unit(phi)
            )
            assert result.overall == Fraction(0)
            zero_checked += 1

        # midway between adjacent codewords also scores zero
        table = sorted_table(params.basis)[1]
        mid = so3.planar_unit((table[100] + table[101]) / 2)
        assert analysis.binding_search_finite_precision(params, mid).overall == 0

        # vectors within eps of a codeword reproduce its binding figures
        reference = analysis.binding_search(params, "lenient").probability
        for point in [(2, 3, 4), (0, 0, 0), (7, 1, 5)]:
            v = lattice.encode(params, point)
            tangent = np.array([-v[1], v[0], 0.0])
            w = v + tangent * (params.eps_meas / 2)
            w /= np.linalg.norm(w)
            result = analysis.binding_search_finite_precision(params, w)
            assert result.anchor == point
            assert result.flip_probability <= reference
        near = analysis.binding_search_finite_precision(
            params, _nudged(params, (2, 3, 4))
        )
        assert near.flip_probability == reference == Fraction(1, 3)


def _nudged(params, point):
    v = lattice.encode(params, point)
    tangent = np.array([-v[1], v[0], 0.0])
    w = v + tangent * (params.eps_meas / 2)
    return w / np.linalg.norm(w)


def test_criterion_8_report_determinism(tmp_path):
    with criterion(8, "byte-identical reports"):
        commands = [
            ["analyze", "--protocol", "lattice", "--d", "3", "--L", "8"],
            ["analyze", "--protocol", "four-symbol"],
            ["analyze", "--protocol", "continuous", "--alpha", "0.5"],
            ["simulate", "--protocol", "lattice", "--d", "2", "--L", "4",
             "--trials", "2000", "--seed", "42"],
            ["simulate", "--protocol", "continuous", "--alpha", "0.3",
             "--trials", "2000", "--seed", "42"],
            ["twirl-check", "--group", "z4"],
            ["mingap", "--d", "3", "--L", "8", "--eps", "1e-5"],
            ["sweep", "--protocol", "lattice", "--d-values", "1,2",
             "--L-values", "4,8"],
            ["sweep", "--protocol", "continuous", "--alphas", "0,0.5,1",
             "--trials", "1000", "--seed", "5"],
        ]
        for idx, argv in enumerate(commands):
            first = tmp_path / f"{idx}_a.txt"
            second = tmp_path / f"{idx}_b.txt"
            assert cli.main(argv + ["--out", str(first)]) in (0,)
            assert cli.main(argv + ["--out", str(second)]) in (0,)
            assert first.read_bytes() == second.read_bytes(), argv
