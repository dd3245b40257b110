"""Acceptance suite: one test per criterion, exact tolerances throughout.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
pass/fail lines.
"""

import functools
from fractions import Fraction

import refclass as rc
from conftest import (
    coin_builder,
    conflict_builder,
    oracle_filter,
    oracle_subset_known,
    random_sane_kbs,
)


def criterion(n, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {n:2d} [FAIL] {desc}")
                raise
            print(f"criterion {n:2d} [PASS] {desc}")
        return wrapper
    return deco


def cls(*atoms):
    return rc.CanonicalClass(tuple(sorted(atoms)))


def prop(name):
    return rc.canonicalize_property(rc.PropAtom(name))


# Random corpora, generated once.  The totality corpus carries no
# equivalence links (conflicting equivalent forms are reported as a
# distinct undefined outcome by design, which is exercised in suite 6).
CORPUS_TOTALITY = random_sane_kbs(20_001, 1000, allow_equiv=False)
CORPUS_EQUIV = random_sane_kbs(20_002, 1000, allow_equiv=True)
CORPUS_MODELED = [
    (b, ckb)
    for b, ckb in random_sane_kbs(
        20_003, 150, max_classes=2, max_props=1, max_inds=1, allow_equiv=False
    )
    if rc.find_model(ckb, 8) is not None
]


@criterion(1, "coin fixture: Prob = 0.5 via {tosses} in both modes")
def test_c1_coin():
    ckb = coin_builder().close()
    half = rc.Interval.point(Fraction(1, 2))
    for res in (rc.prob_point(ckb, "S14"), rc.prob_interval(ckb, "S14")):
        assert res.defined
        assert res.interval == half
        assert res.selected == cls("tosses")


@criterion(2, "incomparable conflict: point undefined, interval [0,1]")
def test_c2_conflict():
    ckb = conflict_builder().close()
    pt = rc.prob_point(ckb, "S")
    assert not pt.defined
    assert pt.reason == rc.ALL_ROWS_DELETED
    it = rc.prob_interval(ckb, "S")
    assert it.defined
    assert it.interval == rc.UNIT


@criterion(3, "subset assertion resolves conflict: point 0.4 via r1")
def test_c3_subset_resolution():
    ckb = conflict_builder(with_subset=True).close()
    res = rc.prob_point(ckb, "S")
    assert res.defined
    assert res.interval == rc.Interval.point(Fraction(2, 5))
    assert res.selected == cls("r1")


@criterion(4, "nested intervals: [0.4,0.6] beats [0.3,0.7]")
def test_c4_nested_intervals():
    b = rc.KBBuilder()
    b.declare_class("r1")
    b.declare_class("r2")
    b.declare_property("p")
    b.declare_individual("i")
    b.assert_stat(cls("r1"), prop("p"), rc.Interval(Fraction(2, 5), Fraction(3, 5)))
    b.assert_stat(cls("r2"), prop("p"), rc.Interval(Fraction(3, 10), Fraction(7, 10)))
    b.assert_member("i", cls("r1"))
    b.assert_member("i", cls("r2"))
    b.declare_sentence("S", prop("p"), "i")
    res = rc.prob_interval(b.close(), "S")
    assert res.defined
    assert res.interval == rc.Interval(Fraction(2, 5), Fraction(3, 5))


@criterion(5, "totality: 1000 random KBs, every sentence defined in interval mode")
def test_c5_totality():
    failures = 0
    for _, ckb in CORPUS_TOTALITY:
        for label in ckb.sentence_forms:
            if not rc.prob_interval(ckb, label).defined:
                failures += 1
    assert failures == 0


@criterion(6, "equivalent defined sentences carry identical intervals (1000 KBs)")
def test_c6_a1_equivalence():
    failures = 0
    for _, ckb in CORPUS_EQUIV:
        for label, group in ckb.sentence_groups.items():
            defined = [
                r for r in (rc.prob_interval(ckb, s) for s in group) if r.defined
            ]
            if len({r.interval for r in defined}) > 1:
                failures += 1
    assert failures == 0


@criterion(7, "survivor nesting + point agreement on model-checked KBs")
def test_c7_survivor_nesting():
    assert len(CORPUS_MODELED) >= 50, "model-checked corpus unexpectedly small"
    for _, ckb in CORPUS_MODELED:
        for label in ckb.sentence_forms:
            for mode in ("point", "interval"):
                trace = rc.explain(ckb, label, mode)
                for form in trace.forms:
                    live = [r for r in form.rows if r.status == "live"]
                    for i, r1 in enumerate(live):
                        for r2 in live[i + 1:]:
                            assert not rc.differ(r1.interval, r2.interval)
                    if mode == "point":
                        values = {r.interval for r in live}
                        assert len(values) <= 1


@criterion(8, "filter_rows matches the literal clause-by-clause brute-force oracle")
def test_c8_filter_oracle():
    def live(rows):
        return {r.cls for r in rows if r.status == "live"}

    corpora = CORPUS_TOTALITY + CORPUS_EQUIV + CORPUS_MODELED
    for _, ckb in corpora:
        for label in ckb.sentence_forms:
            for mode in ("point", "interval"):
                trace = rc.explain(ckb, label, mode)
                for form in trace.forms:
                    rows = [rc.TableRow(r.cls, r.interval) for r in form.rows]
                    want = set(oracle_filter(
                        rows, functools.partial(oracle_subset_known, ckb)))
                    assert live(form.rows) == want
                    assert live(rc.filter_rows(ckb, rows)) == want
    # Two rows of one class differ, but a row is never judged against its
    # own class, so both stay live.
    b = rc.KBBuilder()
    b.declare_class("a")
    ckb = b.close()
    rows = [rc.TableRow(cls("a"), rc.Interval.point(Fraction(3, 10))),
            rc.TableRow(cls("a"), rc.Interval.point(Fraction(6, 10))),
            rc.TableRow(rc.UNIVERSAL, rc.UNIT)]
    got = rc.filter_rows(ckb, rows)
    assert set(oracle_filter(rows, functools.partial(oracle_subset_known, ckb))) == live(got)
    assert [r.status for r in got] == ["live"] * 3


@criterion(9, "Bayes preservation: posterior 19/118 via the intersection class")
def test_c9_bayes():
    # independent oracle: Bayes' rule from base rate 0.01, sensitivity 0.95,
    # false-positive rate 0.05
    base = Fraction(1, 100)
    sens = Fraction(95, 100)
    fpr = Fraction(5, 100)
    posterior = (sens * base) / (sens * base + fpr * (1 - base))
    assert posterior == Fraction(19, 118)

    b = rc.KBBuilder()
    b.declare_class("patients")
    b.declare_class("pos")
    b.declare_property("disease")
    b.declare_individual("joe")
    b.assert_stat(cls("patients"), prop("disease"), rc.Interval.point(base))
    b.assert_stat(cls("patients", "pos"), prop("disease"), rc.Interval.point(posterior))
    b.assert_member("joe", cls("patients"))
    b.assert_member("joe", cls("pos"))
    b.declare_sentence("S", prop("disease"), "joe")
    ckb = b.close()
    for res in (rc.prob_point(ckb, "S"), rc.prob_interval(ckb, "S")):
        assert res.defined
        assert res.interval == rc.Interval.point(posterior)
        assert res.selected == cls("patients", "pos")


@criterion(10, "complement symmetry: negated forms reflect, same class")
def test_c10_complement_symmetry():
    corpora = CORPUS_TOTALITY + CORPUS_MODELED
    checked = 0
    for _, ckb in corpora:
        for label in ckb.sentence_forms:
            twin = f"N_{label}"
            if label.startswith("N_") or twin not in ckb.sentence_forms:
                continue
            res = rc.prob_interval(ckb, label)
            neg = rc.prob_interval(ckb, twin)
            assert res.defined and neg.defined
            assert neg.interval == res.interval.reflect()
            assert neg.selected == res.selected
            checked += 1
    assert checked > 0


@criterion(11, "model-finder round-trip; coin model at size 2, none at size 1")
def test_c11_model_roundtrip():
    for _, ckb in CORPUS_MODELED:
        model = rc.find_model(ckb, 8)
        assert model is not None
        assert rc.verify_model(ckb, model)
    coin = coin_builder().close()
    assert rc.find_model(coin, 1) is None
    model = rc.find_model(coin, 2)
    assert model is not None
    assert len(model.population) == 2
    assert rc.verify_model(coin, model)
