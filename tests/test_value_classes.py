"""The immutable value classes: frozen fields, value equality and hashing,
pickling, the Name(field=value, ...) repr, and a start-up that does not
import dataclasses."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from hmideals import (
    Component,
    HMIdeal,
    MonIdeal,
    ResolutionData,
    StrataData,
    VSpectrum,
)

ROOT = Path(__file__).resolve().parents[1]


def _values():
    """(build, repr) for one small value of each class; build() makes a new,
    equal but distinct object at every call."""
    ideal = "MonIdeal(n=2, gens=((0, 1), (2, 0)))"
    return [
        (lambda: MonIdeal(2, ((0, 1), (2, 0), (2, 1))), ideal),
        (lambda: VSpectrum(2, F(1), ((F(1, 2), MonIdeal(2, ((0, 1), (2, 0)))),)),
         f"VSpectrum(n=2, cutoff=Fraction(1, 1), jumps=((Fraction(1, 2), {ideal}),))"),
        (lambda: HMIdeal(1, MonIdeal(2, ((0, 1), (2, 0)))), f"HMIdeal(f_power=1, ideal={ideal})"),
        (lambda: StrataData(((2, 3), (3, 5))), "StrataData(strata=((2, 3), (3, 5)))"),
        (lambda: Component("E", 2, 1), "Component(label='E', e=2, k=1, exceptional=True)"),
        (lambda: ResolutionData((Component("D", 1, 0, exceptional=False),),
                                frozenset([frozenset([0])])),
         "ResolutionData(components=(Component(label='D', e=1, k=0, exceptional=False),), "
         "lattice=frozenset({frozenset({0})}))"),
    ]


VALUES = _values()
IDS = [text.split("(")[0] for _, text in VALUES]


@pytest.mark.parametrize("build, text", VALUES, ids=IDS)
class TestValueClass:
    def test_fields_are_frozen(self, build, text):
        value = build()
        for name in value._fields:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1  # no __dict__ either
        assert value == build()

    def test_equal_values_hash_equally(self, build, text):
        a, b = build(), build()
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != object() and a != text

    def test_pickle_and_deepcopy_round_trip(self, build, text):
        value = build()
        for clone in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value),
                      copy.copy(value)):
            assert type(clone) is type(value)
            assert clone == value and hash(clone) == hash(value)
            assert repr(clone) == text

    def test_repr(self, build, text):
        assert repr(build()) == text


def test_packing_is_not_a_field():
    """A MonIdeal stores nothing but its fields: two equal ideals built from
    different generator lists compare, hash and print alike."""
    assert MonIdeal.__slots__ == MonIdeal._fields
    b = MonIdeal(2, ((0, 3),))
    c = MonIdeal(2, ((0, 3), (0, 4)))
    assert b == c and hash(b) == hash(c) and repr(b) == repr(c)
    with pytest.raises(AttributeError):
        b.gens = None
    assert MonIdeal(3, ((0, 3, 0),)) != MonIdeal(2, ((0, 3),))


def test_keywords_and_defaults():
    assert MonIdeal(n=2) == MonIdeal(2, ())
    assert VSpectrum(n=1, cutoff=F(1, 3)).jumps == ()
    assert Component("E", 2, 1).exceptional is True
    assert Component(label="D", e=1, k=0, exceptional=False).exceptional is False
    assert ResolutionData((Component("E", 2, 1),)).lattice == {frozenset([0])}


def test_post_init_validates_on_construction():
    with pytest.raises(ValueError):
        VSpectrum(1, F(0))
    with pytest.raises(ValueError):
        StrataData(((1, 3),))
    with pytest.raises(ValueError):
        Component("E", 0, 1)
    with pytest.raises(ValueError):
        ResolutionData(())


def test_cli_import_skips_dataclasses():
    """Importing the CLI adds neither dataclasses nor inspect to sys.modules
    (measured against what the interpreter had already loaded)."""
    code = ("import sys; before = set(sys.modules); import hmideals.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
