"""Sparse query tables against the dense evaluation they replaced, and the
scaling of queries with many memberships."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

import refclass as rc
from conftest import (
    asserted_subsets,
    oracle_evaluate,
    random_arith_builder,
    random_sane_kbs,
    random_subset_builder,
    random_wide_builder,
)

KBS = {
    "random": random_sane_kbs(71, 150, allow_equiv=True),
    "arith": random_sane_kbs(72, 60, make=random_arith_builder),
    "wide": random_sane_kbs(73, 120, make=random_wide_builder),
}
SUBSET_KBS = [random_subset_builder(random.Random(74 + k)).close() for k in range(150)]


def _agree(ckb: rc.ClosedKB, sentence: str, mode: str) -> rc.Trace:
    dense = oracle_evaluate(ckb, sentence, mode)
    prob = rc.prob_point if mode == "point" else rc.prob_interval
    assert prob(ckb, sentence) == dense.result
    assert rc.explain(ckb, sentence, mode).to_dict() == dense.to_dict()
    return dense


@pytest.mark.parametrize("name", sorted(KBS))
def test_matches_dense_evaluation(name):
    for _, ckb in KBS[name]:
        for sentence in sorted(ckb.sentence_forms):
            for mode in ("interval", "point"):
                _agree(ckb, sentence, mode)


def test_membership_test_matches_closure():
    """The listed closure against every union of asserted memberships, the
    membership test against it on every class of the universe and every
    class over up to three atoms, and the sanity warnings against the ones
    read off the listed closure."""
    for ckb in [c for kbs in KBS.values() for _, c in kbs] + SUBSET_KBS:
        atoms = sorted(ckb.class_atoms)
        classes = set(ckb.universe) | {
            rc.CanonicalClass(sub) for k in range(1, 4)
            for sub in itertools.combinations(atoms, k)}
        for ind in sorted(ckb.individuals):
            asserted = [frozenset(s.cls.atoms) for s in ckb.statements
                        if isinstance(s, rc.Member) and s.individual == ind]
            known = ckb.memberships[ind]
            assert {frozenset(c.atoms) for c in known} == {
                frozenset().union(*combo) for k in range(len(asserted) + 1)
                for combo in itertools.combinations(asserted, k)}
            assert ckb.table_classes(ind) == tuple(sorted(known, key=rc.CanonicalClass.sort_key))
            profile = ckb.profiles[ind]
            assert {c for c in classes if profile.covers(c.atoms)} == classes & known
        edges = sorted(asserted_subsets(ckb), key=lambda e: (e[0].sort_key(), e[1].sort_key()))
        warned = [(ind, sub, sup) for ind in sorted(ckb.individuals) for sub, sup in edges
                  if sub in ckb.memberships[ind] and sup not in ckb.memberships[ind]]
        warnings = rc.sanity_check(ckb).warnings
        assert len(warnings) == len(warned)
        for text, (ind, sub, sup) in zip(warnings, warned):
            assert text.startswith(f"{ind} is known to be in {sub} and {sub} < {sup} ")


def test_wide_generator_reaches_every_case():
    """The wide KBs exercise what the sparse path treats apart."""
    seen = Counter()
    for _, ckb in KBS["wide"]:
        profiles = ckb.profiles.values()
        seen["no-membership individual"] += any(not p.generators for p in profiles)
        seen["multi-atom generator"] += any(len(g) > 1 for p in profiles for g in p.generators)
        seen["stat on the top class"] += any(
            not p.top.is_universal and (p.top.atoms, prop) in ckb.stats
            for p in profiles for prop in ckb.stat_index)
        seen["stat in [0, 1]"] += any(iv == rc.UNIT for iv in ckb.stats.values())
        for sentence, forms in ckb.sentence_forms.items():
            prop = forms[0][0]
            seen["tautology"] += bool(prop.is_tautology)
            seen["contradiction"] += bool(prop.is_contradiction)
            point = oracle_evaluate(ckb, sentence, "point")
            if point.forms:
                seen[point.result.reason] += 1
                seen["interval answered by a stat"] += rc.explain(
                    ckb, sentence).result.interval != rc.UNIT
    for case in ("no-membership individual", "multi-atom generator",
                 "stat on the top class", "stat in [0, 1]", "tautology", "contradiction",
                 rc.NO_MEMBERSHIP, rc.ALL_ROWS_DELETED, None,
                 "interval answered by a stat"):
        assert seen[case] >= 5, (case, seen)


def test_structural_membership_unchanged():
    """`member i in a & b` with a stat on `a` alone: membership in `a` is
    not derived, so interval mode reads `a & b` and point mode finds no
    class with a point value."""
    b = rc.parse_kb("\n".join([
        "class a", "class b", "property p", "individual i",
        "sentence S iff p(i)", "member i in a & b", "stat %(a, p) = 0.3",
    ]))
    ckb = b.close()
    interval = _agree(ckb, "S", "interval").result
    assert (interval.interval, str(interval.selected)) == (rc.UNIT, "a & b")
    assert _agree(ckb, "S", "point").result.reason == rc.NO_MEMBERSHIP


def test_many_memberships_leave_the_closure_implicit():
    """Twenty single-atom memberships: 2^20 known classes.  Closing, the
    sanity check and both queries read only the generators and the stats."""
    b = rc.KBBuilder()
    b.declare_property("p")
    b.declare_individual("i")
    atoms = [f"a{k:02d}" for k in range(20)]
    p = rc.canonicalize_property(rc.PropAtom("p"))
    for a in atoms:
        b.declare_class(a)
        b.assert_member("i", rc.CanonicalClass((a,)))
    wide = rc.Interval(Fraction(1, 20), Fraction(19, 20))
    b.assert_stat(rc.CanonicalClass(("a00",)), p, wide)
    b.assert_stat(rc.CanonicalClass(("a01", "a02")), p, rc.Interval.point(Fraction(2, 5)))
    b.assert_stat(rc.CanonicalClass(("a03",)), p, rc.Interval.point(Fraction(9, 10)))
    b.assert_stat(rc.CanonicalClass(("a04",)), p, rc.Interval.point(Fraction(1, 10)))
    b.assert_subset(rc.CanonicalClass(("a01",)), rc.CanonicalClass(("a03",)))
    b.declare_sentence("S", p, "i")
    ckb = b.close()
    report = rc.sanity_check(ckb)
    assert report.ok and not report.warnings
    interval, point = rc.prob_interval(ckb, "S"), rc.prob_point(ckb, "S")
    assert (interval.interval, str(interval.selected)) == (wide, "a00")
    assert point.reason == rc.ALL_ROWS_DELETED
    cached = vars(ckb)
    assert "universe" not in cached and "memberships" not in cached
    assert "classes" not in vars(ckb.profiles["i"])
