"""Value semantics of the public value types: equality and hashing by
fields, repr text, immutability, copying and pickling.  The expected repr
texts are those the types have printed since they were dataclasses."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from functools import cache

import pytest

import refclass as rc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Each type's fields in constructor order; the last column is the field
# changed to make an unequal value, and what it is changed to.
FIELDS = {
    "CanonicalClass": (("atoms",), "atoms", ("a",)),
    "CanonicalProperty": (("atoms", "table"), "table", 1),
    "Interval": (("lo", "hi"), "hi", Fraction(1, 2)),
    "Stat": (("cls", "prop", "interval"), "interval", rc.UNIT),
    "Member": (("individual", "cls"), "individual", "j"),
    "Subset": (("sub", "sup"), "sup", rc.CanonicalClass(("c",))),
    "SentenceForm": (("sentence", "prop", "individual"), "individual", "j"),
    "SentenceEquiv": (("s1", "s2"), "s2", "U"),
    "PropAtom": (("name",), "name", "q"),
    "PropNot": (("arg",), "arg", rc.PropAtom("q")),
    "PropAnd": (("left", "right"), "right", rc.PropAtom("q")),
    "ClosedKB": (("class_atoms", "property_atoms", "individuals", "statements", "profiles",
                  "subset_index", "sentence_groups", "sentence_forms", "stats"),
                 "statements", ()),
    "TableRow": (("cls", "interval", "status", "witness"), "status", "deleted"),
    "ProbResult": (("defined", "interval", "selected", "form", "reason"), "interval", rc.UNIT),
    "Trace": (("sentence", "mode", "forms", "result"), "mode", "point"),
    "FiniteModel": (("class_atoms", "property_atoms", "population", "individual_map"),
                    "population", ()),
    "SanityReport": (("violations", "warnings"), "warnings", []),
    "DslError": (("message", "line", "column"), "column", 3),
}

# The fields left out of the hash: mappings, which are unhashable.
UNHASHED = {"ClosedKB": {"profiles", "subset_index", "sentence_groups", "sentence_forms", "stats"},
            "FiniteModel": {"individual_map"}}

MUTABLE = {"SanityReport", "DslError"}

HALF = "Interval(lo=Fraction(1, 2), hi=Fraction(1, 2))"
HEADS = "CanonicalProperty(atoms=('heads',), table=2)"
TOSSES = "CanonicalClass(atoms=('tosses',))"
RESULT = (f"ProbResult(defined=True, interval={HALF}, selected={TOSSES}, "
          f"form=({HEADS}, 't14'), reason=None)")
ROW = f"TableRow(cls={TOSSES}, interval={HALF}, status='live', witness=None)"
U_ROW = ("TableRow(cls=CanonicalClass(atoms=()), interval=Interval(lo=Fraction(0, 1), "
         "hi=Fraction(1, 1)), status='live', witness=None)")

REPRS = {
    "CanonicalClass": "CanonicalClass(atoms=('b',))",
    "CanonicalProperty": "CanonicalProperty(atoms=('p',), table=2)",
    "Interval": "Interval(lo=Fraction(3, 10), hi=Fraction(2, 5))",
    "Stat": ("Stat(cls=CanonicalClass(atoms=('b',)), prop=CanonicalProperty(atoms=('p',), "
             "table=2), interval=Interval(lo=Fraction(3, 10), hi=Fraction(2, 5)))"),
    "Member": "Member(individual='i', cls=CanonicalClass(atoms=('a',)))",
    "Subset": "Subset(sub=CanonicalClass(atoms=('a',)), sup=CanonicalClass(atoms=('b',)))",
    "SentenceForm": ("SentenceForm(sentence='S', prop=CanonicalProperty(atoms=('p',), table=2), "
                     "individual='i')"),
    "SentenceEquiv": "SentenceEquiv(s1='S', s2='T')",
    "PropAtom": "PropAtom(name='p')",
    "PropNot": "PropNot(arg=PropAtom(name='p'))",
    "PropAnd": "PropAnd(left=PropAtom(name='p'), right=PropNot(arg=PropAtom(name='q')))",
    "ClosedKB": (
        "ClosedKB(class_atoms=frozenset({'tosses'}), property_atoms=frozenset({'heads'}), "
        "individuals=frozenset({'t14'}), "
        f"statements=(Stat(cls={TOSSES}, prop={HEADS}, interval={HALF}), "
        f"Member(individual='t14', cls={TOSSES}), "
        f"SentenceForm(sentence='S14', prop={HEADS}, individual='t14')), "
        f"profiles={{'t14': Profile(generators=(('tosses',),), top={TOSSES})}}, "
        "subset_index=SubsetIndex(superclasses=(), edges={}, reach={}, with_atom={}), "
        "sentence_groups={'S14': frozenset({'S14'})}, "
        f"sentence_forms={{'S14': (({HEADS}, 't14'),)}}, "
        f"stats={{(('tosses',), CanonicalProperty(atoms=('heads',), table=1)): {HALF}, "
        f"(('tosses',), {HEADS}): {HALF}}})"),
    "TableRow": ROW,
    "ProbResult": RESULT,
    "Trace": (f"Trace(sentence='S14', mode='interval', forms=(FormTrace(prop={HEADS}, "
              f"individual='t14', rows=({ROW}, {U_ROW}), result={RESULT}),), result={RESULT})"),
    "FiniteModel": ("FiniteModel(class_atoms=('tosses',), property_atoms=('heads',), "
                    "population=((frozenset({'tosses'}), frozenset()), "
                    "(frozenset({'tosses'}), frozenset({'heads'}))), individual_map={'t14': 0})"),
    "SanityReport": ("SanityReport(violations=[], warnings=['i is known to be in a and a < b is "
                     "asserted, but membership of i in b is not in the knowledge base'])"),
    "DslError": "DslError(message='x', line=1, column=2)",
}


def _closed(path: str) -> rc.ClosedKB:
    with open(os.path.join(ROOT, path), encoding="utf-8") as f:
        return rc.parse_kb(f.read()).close()


@cache
def _examples() -> dict:
    """One value of each type, from kbs/coin.rck and tests/fixtures/model.rck."""
    coin, model = _closed("kbs/coin.rck"), _closed("tests/fixtures/model.rck")
    stat, member, _, subset, form, _, equiv = model.statements
    p = rc.PropAtom("p")
    return {
        "CanonicalClass": subset.sup, "CanonicalProperty": form.prop, "Interval": stat.interval,
        "Stat": stat, "Member": member, "Subset": subset, "SentenceForm": form,
        "SentenceEquiv": equiv, "PropAtom": p, "PropNot": rc.PropNot(p),
        "PropAnd": rc.PropAnd(p, rc.PropNot(rc.PropAtom("q"))), "ClosedKB": coin,
        "TableRow": rc.explain(coin, "S14").forms[0].rows[0],
        "ProbResult": rc.prob_interval(coin, "S14"), "Trace": rc.explain(coin, "S14"),
        "FiniteModel": rc.find_model(coin, 3), "SanityReport": rc.sanity_check(model),
        "DslError": rc.DslError("x", 1, 2),
    }


def _rebuilt(name: str, /, **changes):
    """The example rebuilt from deep copies of its fields, with `changes`."""
    value = _examples()[name]
    fields = {f: copy.deepcopy(getattr(value, f)) for f in FIELDS[name][0]} | changes
    return type(value)(*fields.values())


def test_every_public_value_type_is_covered():
    assert set(FIELDS) == set(REPRS)
    assert all(name in rc.__all__ and type(_examples()[name]) is getattr(rc, name)
               for name in FIELDS)
    assert len(FIELDS) == 18


@pytest.mark.parametrize("name", FIELDS)
def test_equal_fields_make_equal_values(name):
    value, same = _examples()[name], _rebuilt(name)
    assert same is not value and same == value and not same != value
    if name not in MUTABLE:
        assert hash(same) == hash(value)
    field, new = FIELDS[name][1:]
    changed = _rebuilt(name, **{field: new})
    assert changed != value and not changed == value
    assert value != object() and not value == object()


@pytest.mark.parametrize("name", sorted(set(FIELDS) - MUTABLE))
def test_hash_is_the_hashed_fields_tuple(name):
    # as a frozen dataclass hashes: so sets of values iterate as they did
    value = _examples()[name]
    hashed = [f for f in FIELDS[name][0] if f not in UNHASHED.get(name, ())]
    assert hash(value) == hash(tuple(getattr(value, f) for f in hashed))


@pytest.mark.parametrize("name, mapping", [("ClosedKB", "stats"), ("FiniteModel", "individual_map")])
def test_mapping_fields_compare_but_do_not_hash(name, mapping):
    value, other = _examples()[name], _rebuilt(name, **{mapping: {}})
    assert other != value and hash(other) == hash(value)


@pytest.mark.parametrize("name", FIELDS)
def test_repr_text(name):
    assert repr(_examples()[name]) == REPRS[name]


@pytest.mark.parametrize("name", sorted(set(FIELDS) - MUTABLE))
def test_frozen(name):
    value = _examples()[name]
    for field in FIELDS[name][0]:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(value, field, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert repr(value) == REPRS[name]


@pytest.mark.parametrize("name", FIELDS)
def test_copy_deepcopy_and_pickle_give_equal_values(name):
    value = _examples()[name]
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(clone) is type(value) and clone == value and repr(clone) == repr(value)


def test_mutable_records():
    with pytest.raises(TypeError):
        hash(rc.SanityReport())
    with pytest.raises(TypeError):
        hash(rc.DslError("x", 1, 2))
    assert rc.DslError("x", 1, 2).args == ("x", 1, 2)
    report = rc.SanityReport()
    report.warnings.append("w")
    assert report == rc.SanityReport([], ["w"]) and rc.SanityReport() == rc.SanityReport([], [])
    assert rc.SanityReport().warnings is not rc.SanityReport().warnings
    err = rc.DslError("x", 1, 2)
    err.column = 3
    assert err == rc.DslError("x", 1, 3) and str(err) == "line 1, column 3: x"


def test_cli_start_up_generates_no_code():
    """The package builds its types without dataclasses, so a CLI process
    does not import dataclasses, nor inspect (which it would pull in)."""
    probe = "import sys, refclass.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout == "[]\n"
