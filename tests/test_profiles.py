"""Query tables judged once per membership profile: answers against the
dense evaluation in any query order, and the sharing itself."""

import random
from collections import Counter
from fractions import Fraction

import pytest

import refclass as rc
from refclass import inference
from refclass.inference import _form_entry, _form_trace
from conftest import oracle_evaluate, random_profile_builder, random_sane_kbs
from test_sparse import KBS

PROFILE_KBS = random_sane_kbs(81, 80, make=random_profile_builder)

CALLS = ("interval", "point", "explain-interval", "explain-point")


def _call(ckb: rc.ClosedKB, call: str, sentence: str):
    if call == "interval":
        return rc.prob_interval(ckb, sentence)
    if call == "point":
        return rc.prob_point(ckb, sentence)
    return rc.explain(ckb, sentence, call.removeprefix("explain-"))


def _queries(ckb: rc.ClosedKB, rng: random.Random) -> list[tuple[str, str]]:
    queries = [(call, s) for s in sorted(ckb.sentence_forms) for call in CALLS]
    rng.shuffle(queries)
    return queries


def test_profile_generator_reaches_every_case():
    seen = Counter()
    for b, ckb in PROFILE_KBS:
        by_individual = {}
        for m in b._members.values():  # assertion order
            by_individual.setdefault(m.individual, []).append(m.cls.atoms)
        orders = {}
        for ind, gens in by_individual.items():
            orders.setdefault(ckb.profiles[ind].generators, set()).add(tuple(gens))
        seen["same profile, other order"] += any(len(o) > 1 for o in orders.values())
        seen["no-membership individual"] += len(by_individual) < len(ckb.individuals)
        seen["stat in [0, 1]"] += rc.UNIT in ckb.stats.values()
        seen["point stat"] += any(iv.is_point for iv in ckb.stats.values())
        seen["equivalence"] += any(len(g) > 1 for g in ckb.sentence_groups.values())
        props = [f[0] for forms in ckb.sentence_forms.values() for f in forms]
        seen["tautology"] += any(p.is_tautology for p in props)
        seen["contradiction"] += any(p.is_contradiction for p in props)
    assert min(seen.values()) >= 10 and len(seen) == 7, seen


def test_shuffled_queries_match_dense_evaluation():
    """Every answer and trace on one `ClosedKB`, queried in a shuffled
    order, equals the dense evaluation's, down to the individual each
    result names; same-profile forms share one judged table."""
    rng = random.Random(82)
    shared = 0
    for _, ckb in PROFILE_KBS:
        for call, sentence in _queries(ckb, rng):
            mode = "point" if call.endswith("point") else "interval"
            dense = oracle_evaluate(ckb, sentence, mode)
            got = _call(ckb, call, sentence)
            assert got == (dense if call.startswith("explain") else dense.result)
        forms = {f for fs in ckb.sentence_forms.values() for f in fs}
        keys = {(ckb.profiles[ind].generators, prop, point) for prop, ind in forms
                for point in (False, True)}
        assert len(ckb._judged) == len(keys)
        for prop, ind in forms:
            for other in sorted(ckb.individuals):
                if other != ind and ckb.profiles[other] == ckb.profiles[ind]:
                    assert _form_entry(ckb, prop, ind, True)[0] \
                        is _form_entry(ckb, prop, other, True)[0]
                    assert _form_trace(ckb, prop, ind, True).individual == ind
                    assert _form_trace(ckb, prop, other, True).individual == other
                    shared += 1
    assert shared >= 200


def test_warm_queries_build_no_trace_objects(monkeypatch):
    """Once a sentence's forms are judged, `prob_point` and `prob_interval`
    answer from the memo alone: no row, form trace or trace is built."""
    expected = {}
    for k, (_, ckb) in enumerate(PROFILE_KBS):
        for sentence in sorted(ckb.sentence_forms) + ["no-such-sentence"]:
            for call in ("interval", "point"):
                expected[k, sentence, call] = oracle_evaluate(ckb, sentence, call).result
                _call(ckb, call, sentence)

    def built(*args, **kwargs):
        raise AssertionError("a warm query built a trace object")

    for name in ("FormTrace", "Trace", "TableRow"):
        monkeypatch.setattr(inference, name, built)
    kinds = set()
    for (k, sentence, call), want in expected.items():
        got = _call(PROFILE_KBS[k][1], call, sentence)
        assert got == want
        assert got.defined or got is rc.ProbResult.undefined(got.reason)
        kinds.add(got.reason or "defined")
    assert kinds == {"defined", rc.NO_SENTENCE_FORM, rc.NO_MEMBERSHIP,
                     rc.ALL_ROWS_DELETED, rc.CONFLICTING_EQUIVALENT_FORMS}, kinds


def test_equal_memberships_share_one_generator_tuple():
    """Individuals asserted in the same classes, in any order, share one
    `Profile` (so one generator tuple): their sorted atoms and their union."""
    for b, ckb in PROFILE_KBS:
        by_profile = {}
        for ind in ckb.individuals:
            asserted = frozenset(m.cls for m in b.members if m.individual == ind)
            by_profile.setdefault(asserted, []).append(ckb.profiles[ind])
        for classes, profiles in by_profile.items():
            assert all(p is profiles[0] for p in profiles)
            atoms = sorted(c.atoms for c in classes)
            assert profiles[0].generators == tuple(atoms)
            assert profiles[0].top.atoms == tuple(sorted({a for c in atoms for a in c}))
        assert len({id(p) for p in ckb.profiles.values()}) == len(by_profile)


@pytest.mark.parametrize("name", sorted(KBS) + ["profile"])
def test_answers_independent_of_query_order(name):
    """A query sequence on one `ClosedKB` and the reversed sequence on a
    fresh one give equal answers and traces, hence equal `to_dict()`."""
    rng = random.Random(83)
    for b, _ in KBS.get(name, PROFILE_KBS):
        queries = _queries(b.close(), rng)
        first, second = b.close(), b.close()
        forward = [_call(first, call, s) for call, s in queries]
        backward = [_call(second, call, s) for call, s in reversed(queries)][::-1]
        assert forward == backward


def test_one_closure_per_profile():
    """`table_classes` and `memberships` list each membership profile's
    closure once, and the twenty-membership closure of `test_sparse` is
    never listed."""
    for _, ckb in PROFILE_KBS:
        for ind in ckb.individuals:
            assert ckb.table_classes(ind) is ckb.profiles[ind].classes
        distinct = len({p.generators for p in ckb.profiles.values()})
        assert len({id(ckb.table_classes(ind)) for ind in ckb.individuals}) == distinct
        assert len(ckb.memberships) == len(ckb.individuals)
        assert len({id(known) for known in ckb.memberships.values()}) == distinct
    b = rc.KBBuilder()
    b.declare_property("p")
    b.declare_individual("i")
    p = rc.canonicalize_property(rc.PropAtom("p"))
    for k in range(20):
        b.declare_class(f"a{k:02d}")
        b.assert_member("i", rc.CanonicalClass((f"a{k:02d}",)))
    quarter = rc.Interval.point(Fraction(1, 4))
    b.assert_stat(rc.CanonicalClass(("a00",)), p, quarter)
    b.declare_sentence("S", p, "i")
    ckb = b.close()
    assert rc.prob_interval(ckb, "S").selected == rc.CanonicalClass(("a00",))
    assert rc.prob_point(ckb, "S").interval == quarter
    assert not any("classes" in vars(p) for p in ckb.profiles.values())
