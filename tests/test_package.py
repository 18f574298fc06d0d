import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from framebc import engine, lattice, simple, so3

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import framebc
print(framebc.__version__)
print(" ".join(sorted(n for n in dir(framebc) if not n.startswith("_"))))
print(hasattr(framebc, "__all__"))
"""

IMPORT_PROBE = """
import sys
import framebc
print(" ".join(sorted(n for n in sys.modules if n.startswith("framebc."))))
import framebc.cli
print(" ".join(sorted({"dataclasses", "statistics"} & set(sys.modules))))
"""

REIMPORT_PROBE = """
import gc, importlib, sys, weakref
import framebc
classes = [
    weakref.ref(value)
    for module in (framebc.so3, framebc.engine, framebc.lattice, framebc.simple, framebc.analysis)
    for value in vars(module).values()
    if isinstance(value, type) and value.__module__.startswith("framebc")
]
for name in [n for n in sys.modules if n.startswith("framebc")]:
    del sys.modules[name]
del framebc
importlib.import_module("framebc")
gc.collect()
print(len(classes), sum(ref() is not None for ref in classes))
"""


def run_fresh(probe: str) -> list[str]:
    # a fresh process, so no other test's imports (framebc.cli) leak in
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.split("\n")[:-1]


def test_package_exposes_only_its_submodules():
    version, names, has_all = run_fresh(PROBE)
    assert version == "0.1.0"
    # the submodules alone: no re-exported name such as make_params or run_session
    assert names.split() == ["analysis", "engine", "lattice", "simple", "so3"]
    assert has_all == "False"


def test_import_loads_no_dataclasses_or_statistics():
    # module presence, not timing: the records are NamedTuple classes, so no
    # class is built by dataclasses, and Z_99 is a literal, not a statistics call
    submodules, unwanted = run_fresh(IMPORT_PROBE)
    assert submodules.split() == [
        "framebc.analysis", "framebc.engine", "framebc.lattice", "framebc.simple", "framebc.so3",
    ]
    assert unwanted == ""


def test_reimport_frees_the_earlier_import():
    # as the benchmark's set-up re-imports: no cache may keep an old class, and
    # with it its module's globals, alive
    [counts] = run_fresh(REIMPORT_PROBE)
    tracked, alive = map(int, counts.split())
    assert tracked > 20 and alive == 0


# --- records -------------------------------------------------------------------

def test_records_equal_only_records_of_their_own_class():
    assert engine.Accepted(1) == engine.Accepted(1)
    assert hash(engine.Accepted(1)) == hash(engine.Accepted(1))
    assert engine.Accepted(1) != (1,) and (1,) != engine.Accepted(1)
    assert not engine.Accepted(1) == (1,) and not (1,) == engine.Accepted(1)
    assert engine.Accepted(0) != engine.Aborted("x")
    assert so3.CyclicZ(1) != so3.UniformSegment(1.0)
    assert engine.Accepted(1) != 1 and so3.HaarSO3() != ()
    assert so3.HaarSO3() == so3.HaarSO3() and so3.HaarSO3()
    # the rotations table is no field: equal angles make equal mixtures
    mixture = so3.TwoPointAngleMixture((0.2, 0.5))
    assert mixture == so3.TwoPointAngleMixture((0.2, 0.5))
    assert hash(mixture) == hash(so3.TwoPointAngleMixture((0.2, 0.5)))
    assert repr(mixture) == "TwoPointAngleMixture(angles=(0.2, 0.5))"


def test_finite_support_compares_by_identity():
    elements = ((so3.identity_rotation(), Fraction(1)),)
    mu = so3.FiniteSupport(elements)
    assert mu == mu and hash(mu) == hash(mu)
    assert mu != so3.FiniteSupport(elements) and mu != (elements,)
    assert {mu: 1}[mu] == 1


def test_outcomes_work_as_dict_keys():
    law = Counter([engine.Accepted(1), engine.Aborted("reveal-reject"), engine.Accepted(1)])
    assert law[engine.Accepted(1)] == 2 and law[engine.Aborted("reveal-reject")] == 1
    assert engine.Accepted(0) not in law and (1,) not in law
    # a transcript law keys each outcome inside its transcript key
    law = engine.transcript_distribution(engine.probe_protocol(so3.CyclicZ(4)))
    assert sum(law.values()) == 1
    for key, weight in law.items():
        outcome = key[-1]
        if isinstance(outcome, engine.Accepted):
            fresh = engine.Accepted(outcome.value)
        else:
            fresh = engine.Aborted(outcome.reason)
        assert law[key[:-1] + (fresh,)] == weight


def _records():
    params = lattice.make_params(2, 4)
    message = engine.data_message(engine.ALICE, (1, (0, 1)))
    transcript = engine.Transcript((message,), (message,), engine.Accepted(1))
    return {
        "LatticeParams": (params, ("basis", "eps_meas", "predicate")),
        "AngleBasis": (params.basis, ("d", "L", "angles", "min_gap", "_order", "_mu")),
        "CyclicZ": (so3.CyclicZ(8), ("n",)),
        "Message": (message, ("sender", "kind", "payload")),
        "Transcript": (transcript, ("alice_view", "bob_view", "outcome")),
        "TwoPointAngleMixture": (so3.TwoPointAngleMixture((0.2, 0.5)), ("angles", "rotations")),
    }


@pytest.mark.parametrize("name", list(_records()))
def test_record_attributes_cannot_be_assigned_or_deleted(name):
    record, attributes = _records()[name]
    before = repr(record)
    for attribute in attributes:
        with pytest.raises(AttributeError):
            setattr(record, attribute, None)
        with pytest.raises(AttributeError):
            delattr(record, attribute)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == before


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: so3.CyclicZ(0), "cyclic group order must be >= 1"),
        (lambda: so3.TwoPointAngleMixture(()), "need at least one angle"),
        (lambda: so3.TwoPointAngleMixture((0.2, math.nan)),
         r"angles must be finite and positive, got \(0.2, nan\)"),
        (lambda: so3.TwoPointAngleMixture((0.2, 0.2)), "angles must be distinct"),
        (lambda: so3.UniformSegment(0.0), r"phi_max must lie in \(0, 2\*pi\]"),
        (lambda: so3.FiniteSupport(()), "support must be nonempty"),
        (lambda: so3.FiniteSupport(((np.eye(3), -0.5), (np.eye(3), 1.5))),
         "probabilities must be nonnegative, got -0.5"),
        (lambda: so3.FiniteSupport(((2 * np.eye(3), 1.0),)), "support element is not a rotation"),
        (lambda: so3.FiniteSupport(((np.eye(3), 0.5),)), "probabilities sum to 0.5, not 1"),
        (lambda: simple.FourSymbolCodeword(2, 0), "codeword bits must be 0 or 1"),
        (lambda: simple.InterpolationStrategy(1.5), r"alpha must lie in \[0, 1\]"),
        (lambda: lattice.LatticeParams(lattice.build_angle_basis(2, 4), 0.0, "loose"),
         "predicate must be one of"),
        (lambda: lattice.LatticeParams(lattice.build_angle_basis(2, 4), -1.0),
         "eps_meas=-1.0 not certified: it must be nonnegative"),
    ],
)
def test_validated_records_refuse_bad_input(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_replace_validates():
    assert so3.CyclicZ(3)._replace(n=5) == so3.CyclicZ(5)
    with pytest.raises(ValueError, match="cyclic group order must be >= 1"):
        so3.CyclicZ(3)._replace(n=0)
    params = lattice.make_params(2, 4)
    with pytest.raises(ValueError, match="not certified"):
        params._replace(eps_meas=-1.0)
