"""Inference: differ, the table pipeline, point/interval probabilities, traces."""

from fractions import Fraction

import pytest

import refclass as rc
from conftest import coin_builder, conflict_builder


def iv(lo, hi=None):
    lo = Fraction(lo)
    return rc.Interval(lo, Fraction(hi) if hi is not None else lo)


def cls(*atoms):
    return rc.CanonicalClass(tuple(sorted(atoms)))


def prop(name):
    return rc.canonicalize_property(rc.PropAtom(name))


class TestDiffer:
    def test_disjoint(self):
        assert rc.differ(iv("1/5", "3/10"), iv("3/5", "7/10"))

    def test_nested(self):
        assert not rc.differ(iv("2/5", "3/5"), iv("3/10", "7/10"))

    def test_unit_never_differs(self):
        for other in (iv(0, 1), iv("1/2"), iv("1/4", "3/4"), iv(0), iv(1)):
            assert not rc.differ(rc.UNIT, other)
            assert not rc.differ(other, rc.UNIT)

    def test_points_reduce_to_inequality(self):
        assert rc.differ(iv("2/5"), iv("3/5"))
        assert not rc.differ(iv("2/5"), iv("2/5"))

    def test_overlapping_differ(self):
        assert rc.differ(iv("1/10", "1/2"), iv("2/5", "9/10"))


class TestBuildTable:
    def test_coin(self, coin_kb):
        rows = rc.build_table(coin_kb, "t14", prop("heads"))
        assert [(r.cls, r.interval) for r in rows] == [
            (cls("tosses"), iv("1/2")),
            (rc.UNIVERSAL, rc.UNIT),
        ]

    def test_one_row_per_membership(self):
        b = rc.KBBuilder()
        b.declare_class("a")
        b.declare_class("b")
        b.declare_property("p")
        b.declare_individual("i")
        b.assert_member("i", cls("a"))
        b.assert_member("i", cls("b"))
        ckb = b.close()
        rows = rc.build_table(ckb, "i", prop("p"))
        assert len(rows) == 4  # {a,b}, {a}, {b}, U

    def test_unknown_property_all_unit(self):
        b = rc.KBBuilder()
        b.declare_class("a")
        b.declare_property("q")
        b.declare_individual("i")
        b.assert_member("i", cls("a"))
        ckb = b.close()
        rows = rc.build_table(ckb, "i", prop("q"))
        assert all(r.interval == rc.UNIT for r in rows)


class TestFilterRows:
    def test_mutual_deletion(self, conflict_kb):
        rows = rc.build_table(conflict_kb, "i", prop("p"))
        filtered = rc.filter_rows(conflict_kb, rows)
        by_class = {r.cls: r for r in filtered}
        assert by_class[cls("r1")].status == "deleted"
        assert by_class[cls("r1")].witness == cls("r2")
        assert by_class[cls("r2")].status == "deleted"
        assert by_class[rc.UNIVERSAL].status == "live"
        assert by_class[cls("r1", "r2")].status == "live"

    def test_subset_excuse(self):
        ckb = conflict_builder(with_subset=True).close()
        rows = rc.build_table(ckb, "i", prop("p"))
        by_class = {r.cls: r for r in rc.filter_rows(ckb, rows)}
        assert by_class[cls("r1")].status == "live"
        assert by_class[cls("r2")].status == "deleted"

    def test_nested_intervals_survive(self):
        b = rc.KBBuilder()
        b.declare_class("r1")
        b.declare_class("r2")
        b.declare_property("p")
        b.declare_individual("i")
        b.assert_stat(cls("r1"), prop("p"), iv("2/5", "3/5"))
        b.assert_stat(cls("r2"), prop("p"), iv("3/10", "7/10"))
        b.assert_member("i", cls("r1"))
        b.assert_member("i", cls("r2"))
        ckb = b.close()
        filtered = rc.filter_rows(ckb, rc.build_table(ckb, "i", prop("p")))
        assert all(r.status == "live" for r in filtered)


class TestResolve:
    def test_minimal_under_inclusion(self):
        rows = [
            rc.TableRow(cls("tosses"), iv("1/2")),
            rc.TableRow(rc.UNIVERSAL, rc.UNIT),
        ]
        interval, selected = rc.resolve(rows)
        assert interval == iv("1/2")
        assert selected == cls("tosses")

    def test_all_unit(self):
        rows = [rc.TableRow(rc.UNIVERSAL, rc.UNIT)]
        assert rc.resolve(rows) == (rc.UNIT, rc.UNIVERSAL)

    def test_nested_chain_minimum(self):
        rows = [
            rc.TableRow(cls("r1"), iv("2/5", "3/5")),
            rc.TableRow(cls("r2"), iv("3/10", "7/10")),
        ]
        interval, selected = rc.resolve(rows)
        assert interval == iv("2/5", "3/5")
        assert selected == cls("r1")

    def test_tie_break_most_specific(self):
        rows = [
            rc.TableRow(rc.UNIVERSAL, rc.UNIT),
            rc.TableRow(cls("r1", "r2"), rc.UNIT),
        ]
        _, selected = rc.resolve(rows)
        assert selected == cls("r1", "r2")

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            rc.resolve([])


class TestProbPoint:
    def test_coin(self, coin_kb):
        res = rc.prob_point(coin_kb, "S14")
        assert res.defined
        assert res.interval == iv("1/2")
        assert res.selected == cls("tosses")

    def test_incomparable_conflict(self, conflict_kb):
        res = rc.prob_point(conflict_kb, "S")
        assert not res.defined
        assert res.reason == rc.ALL_ROWS_DELETED

    def test_subset_resolves_conflict(self):
        ckb = conflict_builder(with_subset=True).close()
        res = rc.prob_point(ckb, "S")
        assert res.defined
        assert res.interval == iv("2/5")
        assert res.selected == cls("r1")

    def test_no_membership(self):
        b = rc.KBBuilder()
        b.declare_property("p")
        b.declare_individual("i")
        b.declare_sentence("S", prop("p"), "i")
        res = rc.prob_point(b.close(), "S")
        assert not res.defined
        assert res.reason == rc.NO_MEMBERSHIP

    def test_wide_intervals_not_point_candidates(self):
        b = rc.KBBuilder()
        b.declare_class("r")
        b.declare_property("p")
        b.declare_individual("i")
        b.assert_stat(cls("r"), prop("p"), iv("2/5", "3/5"))
        b.assert_member("i", cls("r"))
        b.declare_sentence("S", prop("p"), "i")
        res = rc.prob_point(b.close(), "S")
        assert not res.defined
        assert res.reason == rc.NO_MEMBERSHIP

    def test_no_sentence_form(self, coin_kb):
        res = rc.prob_point(coin_kb, "nonexistent")
        assert not res.defined
        assert res.reason == rc.NO_SENTENCE_FORM

    def test_contradiction_query(self, coin_kb):
        b = coin_builder()
        heads = rc.PropAtom("heads")
        bot = rc.canonicalize_property(rc.PropAnd(heads, rc.PropNot(heads)))
        b.declare_sentence("B", bot, "t14")
        res = rc.prob_point(b.close(), "B")
        assert res.defined
        assert res.interval == iv(0)


class TestProbInterval:
    def test_coin(self, coin_kb):
        res = rc.prob_interval(coin_kb, "S14")
        assert res.defined
        assert res.interval == iv("1/2")
        assert res.selected == cls("tosses")

    def test_conflict_totality(self, conflict_kb):
        res = rc.prob_interval(conflict_kb, "S")
        assert res.defined
        assert res.interval == rc.UNIT
        assert res.selected == cls("r1", "r2")  # intersection class, most specific

    def test_nested_intervals(self):
        b = rc.KBBuilder()
        b.declare_class("r1")
        b.declare_class("r2")
        b.declare_property("p")
        b.declare_individual("i")
        b.assert_stat(cls("r1"), prop("p"), iv("2/5", "3/5"))
        b.assert_stat(cls("r2"), prop("p"), iv("3/10", "7/10"))
        b.assert_member("i", cls("r1"))
        b.assert_member("i", cls("r2"))
        b.declare_sentence("S", prop("p"), "i")
        res = rc.prob_interval(b.close(), "S")
        assert res.defined
        assert res.interval == iv("2/5", "3/5")
        assert res.selected == cls("r1")

    def test_equivalent_forms_share_result(self):
        b = coin_builder()
        b.declare_sentence("T", prop("heads"), "t14")
        b.assert_equiv("S14", "T")
        ckb = b.close()
        assert rc.prob_interval(ckb, "S14") == rc.prob_interval(ckb, "T")

    def test_conflicting_equivalent_forms(self):
        b = rc.KBBuilder()
        b.declare_class("r")
        b.declare_property("p")
        b.declare_property("q")
        b.declare_individual("i")
        b.assert_member("i", cls("r"))
        b.assert_stat(cls("r"), prop("p"), iv("1/4"))
        b.assert_stat(cls("r"), prop("q"), iv("3/4"))
        b.declare_sentence("S1", prop("p"), "i")
        b.declare_sentence("S2", prop("q"), "i")
        b.assert_equiv("S1", "S2")
        ckb = b.close()
        res = rc.prob_interval(ckb, "S1")
        assert not res.defined
        assert res.reason == rc.CONFLICTING_EQUIVALENT_FORMS


class TestExplain:
    def test_coin_trace(self, coin_kb):
        trace = rc.explain(coin_kb, "S14", "interval")
        assert len(trace.forms) == 1
        form = trace.forms[0]
        assert len(form.rows) == 2
        assert all(r.status == "live" for r in form.rows)
        assert trace.result.selected == cls("tosses")

    def test_conflict_trace_witnesses(self, conflict_kb):
        trace = rc.explain(conflict_kb, "S", "interval")
        deleted = [r for r in trace.forms[0].rows if r.status == "deleted"]
        assert {r.cls for r in deleted} == {cls("r1"), cls("r2")}
        assert all(r.witness is not None for r in deleted)

    def test_undefined_point_trace(self, conflict_kb):
        trace = rc.explain(conflict_kb, "S", "point")
        assert not trace.result.defined
        assert trace.result.reason == rc.ALL_ROWS_DELETED

    def test_replay_reproduces_result(self, coin_kb, conflict_kb):
        for ckb, sent in ((coin_kb, "S14"), (conflict_kb, "S")):
            for mode in ("point", "interval"):
                trace = rc.explain(ckb, sent, mode)
                assert trace.result == (
                    rc.prob_point(ckb, sent) if mode == "point"
                    else rc.prob_interval(ckb, sent)
                )
                # replay: recompute the resolution from the surviving rows
                for form in trace.forms:
                    live = [r for r in form.rows if r.status == "live"]
                    if form.result.defined:
                        assert rc.resolve(live) == (
                            form.result.interval, form.result.selected
                        )
                    elif form.result.reason == rc.ALL_ROWS_DELETED:
                        assert not live

    def test_serializable(self, conflict_kb):
        import json
        trace = rc.explain(conflict_kb, "S", "interval")
        text = json.dumps(trace.to_dict(), sort_keys=True)
        assert json.loads(text) == trace.to_dict()

    def test_bad_mode(self, coin_kb):
        with pytest.raises(ValueError):
            rc.explain(coin_kb, "S14", "fuzzy")
