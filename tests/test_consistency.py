"""Consistency: sanity checks, model search, model verification."""

from fractions import Fraction

import pytest

import refclass as rc
from refclass import consistency
from conftest import (
    naive_model_exists,
    oracle_find_model,
    random_arith_builder,
    random_builder,
    random_equiv_builder,
    random_pruned_builder,
    random_sane_kbs,
)


def cls(*atoms):
    return rc.CanonicalClass(tuple(sorted(atoms)))


def prop(name):
    return rc.canonicalize_property(rc.PropAtom(name))


class TestSanityCheck:
    def test_coin_passes(self, coin_kb):
        report = rc.sanity_check(coin_kb)
        assert report.ok
        assert not report.warnings

    def test_subset_cycle(self):
        b = rc.KBBuilder()
        b.declare_class("a")
        b.declare_class("b")
        b.assert_subset(cls("a"), cls("b"))
        b.assert_subset(cls("b"), cls("a"))
        report = rc.sanity_check(b.close())
        assert not report.ok
        assert any("cycle" in v for v in report.violations)

    def test_membership_subset_warning(self):
        b = rc.KBBuilder()
        b.declare_class("a")
        b.declare_class("b")
        b.declare_individual("i")
        b.assert_member("i", cls("a"))
        b.assert_subset(cls("a"), cls("b"))
        report = rc.sanity_check(b.close())
        assert report.ok
        assert len(report.warnings) == 1

    def test_warnings_in_subclass_table_order(self):
        """An individual's unmet edges come most specific subclass first,
        also when its top class has fewer subsets than there are asserted
        subclasses, so they are looked up one by one, fewest atoms first."""
        b = rc.KBBuilder()
        for name in "abcde":
            b.declare_class(name)
        b.declare_individual("i")
        b.assert_member("i", cls("a"))
        b.assert_member("i", cls("b"))
        for sub, sup in [(cls("a"), cls("d")), (cls("a", "b"), cls("c")),
                         (cls("c"), cls("e")), (cls("d"), cls("e"))]:
            b.assert_subset(sub, sup)
        assert [w.split(", but")[0] for w in rc.sanity_check(b.close()).warnings] == [
            "i is known to be in a & b and a & b < c is asserted",
            "i is known to be in a and a < d is asserted",
        ]

    def test_report_serializable(self, coin_kb):
        d = rc.sanity_check(coin_kb).to_dict()
        assert d == {"ok": True, "violations": [], "warnings": []}


class TestFindModel:
    def test_coin_needs_even_class(self, coin_kb):
        assert rc.find_model(coin_kb, 1) is None
        model = rc.find_model(coin_kb, 2)
        assert model is not None
        assert len(model.population) == 2
        assert rc.verify_model(coin_kb, model)

    def test_empty_kb_size_one(self):
        ckb = rc.KBBuilder().close()
        model = rc.find_model(ckb, 3)
        assert model is not None
        assert len(model.population) == 1

    def test_models_hash_by_value(self, coin_kb):
        first, again = rc.find_model(coin_kb, 4), rc.find_model(coin_kb, 4)
        empty = rc.find_model(rc.KBBuilder().close(), 1)
        assert first == again and hash(first) == hash(again)
        assert len({first, again, empty}) == 2
        assert isinstance(first.individual_map, dict)
        moved = rc.FiniteModel(first.class_atoms, first.property_atoms,
                               first.population, {"t14": 0, "x": 1})
        assert moved != first

    def test_contradictory_points_unreachable(self):
        # build the contradictory pair without the close-time fusion gate,
        # so the finder is exercised as an independent oracle
        b = rc.KBBuilder()
        b.declare_class("r")
        b.declare_property("p")
        b.assert_stat(cls("r"), prop("p"), rc.Interval.point(Fraction(3, 10)))
        ckb = b.close()
        extra = rc.Stat(cls("r"), prop("p"), rc.Interval.point(Fraction(3, 5)))
        ckb = rc.ClosedKB(ckb.class_atoms, ckb.property_atoms, ckb.individuals,
                          ckb.statements + (extra,), ckb.profiles, ckb.subset_index,
                          ckb.sentence_groups, ckb.sentence_forms, ckb.stats)
        for bound in range(1, 7):
            assert rc.find_model(ckb, bound) is None

    def test_subset_forces_proper_inclusion(self):
        b = rc.KBBuilder()
        b.declare_class("a")
        b.declare_class("b")
        b.assert_subset(cls("a"), cls("b"))
        model = rc.find_model(b.close(), 4)
        assert model is not None
        ext_a, ext_b = set(model.extension(cls("a"))), set(model.extension(cls("b")))
        assert ext_a < ext_b

    def test_distinct_classes_distinct_extensions(self):
        b = rc.KBBuilder()
        b.declare_class("a")
        b.declare_class("b")
        b.declare_individual("i")
        b.assert_member("i", cls("a"))
        b.assert_member("i", cls("b"))
        model = rc.find_model(b.close(), 5)
        assert model is not None
        exts = [frozenset(model.extension(c)) for c in (cls("a"), cls("b"), cls("a", "b"))]
        assert len(set(exts)) == 3

    def test_interval_stat(self):
        b = rc.KBBuilder()
        b.declare_class("r")
        b.declare_property("p")
        b.assert_stat(cls("r"), prop("p"), rc.Interval(Fraction(1, 3), Fraction(2, 3)))
        model = rc.find_model(b.close(), 4)
        assert model is not None
        assert rc.verify_model(b.close(), model)


def stat_kb(interval):
    b = rc.KBBuilder()
    b.declare_class("r")
    b.declare_property("p")
    b.assert_stat(cls("r"), prop("p"), interval)
    return b.close()


@pytest.fixture
def verify_calls(monkeypatch):
    """Counts the model finder's calls to verify_model."""
    calls = []

    def counting(ckb, model):
        calls.append(model)
        return rc.verify_model(ckb, model)

    monkeypatch.setattr(consistency, "verify_model", counting)
    return calls


class TestArithmeticPrecheck:
    def test_point_denominator_above_bound(self, verify_calls):
        ckb = stat_kb(rc.Interval.point(Fraction(3, 10)))
        assert rc.find_model(ckb, 9) is None
        assert verify_calls == []
        model = rc.find_model(ckb, 10)
        assert model is not None
        assert len(model.population) == 10
        assert rc.verify_model(ckb, model)
        assert verify_calls == [model]

    def test_interval_narrower_than_one_element(self, verify_calls):
        # [1/4, 1/3] holds an integer count only for classes of 3 or more
        ckb = stat_kb(rc.Interval(Fraction(1, 4), Fraction(1, 3)))
        assert rc.find_model(ckb, 2) is None
        assert verify_calls == []
        model = rc.find_model(ckb, 3)
        assert model is not None
        assert model.to_dict() == oracle_find_model(ckb, 3).to_dict()
        assert len(verify_calls) == 1

    @pytest.mark.parametrize("interval, n_max, smallest", [
        (rc.Interval.point(Fraction(3, 10)), 12, 10),
        (rc.Interval.point(Fraction(3, 10)), 9, None),
        (rc.Interval(Fraction(3, 10), Fraction(7, 20)), 12, 3),
    ])
    def test_smallest_extension(self, interval, n_max, smallest):
        # the least m with an integer in [lo·m, hi·m]: lo·m rounded up, hi·m down
        stat = rc.Stat(cls("a"), prop("p"), interval)
        assert consistency._smallest_extension(stat, n_max) == smallest


class TestPrunedAlphabet:
    def test_refuted_before_any_search(self, verify_calls):
        # a < b with every a a p and no b a p: no type is left for a, so
        # there is no model of any size, and no candidate is ever built
        b = rc.KBBuilder()
        for name in ("a", "b", "c"):
            b.declare_class(name)
        b.declare_property("p")
        b.declare_property("q")
        b.assert_subset(cls("a"), cls("b"))
        b.assert_stat(cls("a"), prop("p"), rc.Interval.point(Fraction(1)))
        b.assert_stat(cls("b"), prop("p"), rc.Interval.point(Fraction(0)))
        b.assert_stat(cls("c"), prop("q"), rc.Interval(Fraction(1, 5), Fraction(4, 5)))
        ckb = b.close()
        assert rc.sanity_check(ckb).ok
        for bound in range(1, 9):
            assert rc.find_model(ckb, bound) is None
        assert verify_calls == []


class TestVerifyModel:
    def test_roundtrip(self, coin_kb):
        model = rc.find_model(coin_kb, 3)
        assert rc.verify_model(coin_kb, model)

    def test_wrong_proportion(self, coin_kb):
        model = rc.FiniteModel(
            class_atoms=("tosses",),
            property_atoms=("heads",),
            population=(
                (frozenset({"tosses"}), frozenset({"heads"})),
                (frozenset({"tosses"}), frozenset()),
                (frozenset({"tosses"}), frozenset()),
            ),
            individual_map={"t14": 0},
        )
        assert not rc.verify_model(coin_kb, model)  # 1/3 is not 1/2

    def test_violated_membership(self, coin_kb):
        model = rc.FiniteModel(
            class_atoms=("tosses",),
            property_atoms=("heads",),
            population=(
                (frozenset(), frozenset({"heads"})),
                (frozenset({"tosses"}), frozenset()),
                (frozenset({"tosses"}), frozenset({"heads"})),
            ),
            individual_map={"t14": 0},
        )
        assert not rc.verify_model(coin_kb, model)

    def test_malformed_individual_map(self, coin_kb):
        good = rc.find_model(coin_kb, 3)
        n = len(good.population)

        def model(population, individual_map):
            return rc.FiniteModel(good.class_atoms, good.property_atoms, population, individual_map)

        assert rc.verify_model(coin_kb, good)
        assert not rc.verify_model(coin_kb, model((), good.individual_map))
        assert not rc.verify_model(coin_kb, model(good.population, {}))
        for k in (n, -1):  # -1 would read as the last element
            assert not rc.verify_model(coin_kb, model(good.population, {"t14": k}))
        # two individuals must denote two elements
        b = rc.KBBuilder()
        b.declare_class("a")
        for ind in ("i", "j"):
            b.declare_individual(ind)
            b.assert_member(ind, cls("a"))
        shared = rc.FiniteModel(
            class_atoms=("a",),
            property_atoms=(),
            population=((frozenset({"a"}), frozenset()),),
            individual_map={"i": 0, "j": 0},
        )
        assert not rc.verify_model(b.close(), shared)

    def test_equivalent_sentences_must_agree(self):
        b = rc.KBBuilder()
        b.declare_property("p")
        b.declare_individual("i")
        b.declare_individual("j")
        b.declare_sentence("S1", prop("p"), "i")
        b.declare_sentence("S2", prop("p"), "j")
        b.assert_equiv("S1", "S2")
        ckb = b.close()
        bad = rc.FiniteModel(
            class_atoms=(),
            property_atoms=("p",),
            population=((frozenset(), frozenset({"p"})), (frozenset(), frozenset())),
            individual_map={"i": 0, "j": 1},
        )
        assert not rc.verify_model(ckb, bad)
        good = rc.find_model(ckb, 4)
        assert good is not None
        assert rc.verify_model(ckb, good)


def with_unused_atoms(rng, **shape):
    """A random builder that also declares a class atom and a property atom
    no statement uses, named to sort between the used ones."""
    b = random_builder(rng, **shape)
    if b is not None:
        b.declare_class("c0u")
        b.declare_property("p0u")
    return b


class TestOracleEquivalence:
    def test_matches_naive_enumeration(self):
        """Symmetry-broken search vs full enumeration, at desk scale."""
        kbs = random_sane_kbs(4242, 12, max_classes=2, max_props=1, max_inds=1,
                              add_negated_twins=False)
        for _, ckb in kbs:
            for bound in (1, 2, 3):
                assert (rc.find_model(ckb, bound) is not None) == \
                    naive_model_exists(ckb, bound), str(ckb.statements)

    @pytest.mark.parametrize("seed, count, shape, max_bound", [
        (6060, 24, dict(max_classes=3, max_props=2, max_inds=2, allow_equiv=True), 4),
        (6061, 60, dict(make=random_arith_builder), 4),
        (6062, 20, dict(make=random_pruned_builder), 3),
        (6063, 12, dict(make=random_equiv_builder), 4),
        (6064, 16, dict(make=with_unused_atoms, max_classes=2, max_props=1, max_inds=2), 3),
    ], ids=["random", "arith", "pruned", "equiv", "unused"])
    def test_matches_previous_search(self, seed, count, shape, max_bound):
        """The same first model as the exhaustive search, at every bound."""
        for _, ckb in random_sane_kbs(seed, count, **shape):
            for bound in range(1, max_bound + 1):
                got, want = rc.find_model(ckb, bound), oracle_find_model(ckb, bound)
                assert (got and got.to_dict()) == (want and want.to_dict()), \
                    (str(ckb.statements), bound)

    def test_unused_atoms_get_no_bit(self):
        """40 declared class atoms and only a0 mentioned: the same model as
        with a0 alone, found without a type space over every atom."""
        def kb(n_classes):
            b = rc.KBBuilder()
            for k in range(n_classes):
                b.declare_class(f"a{k}")
            b.declare_property("p")
            b.declare_individual("i")
            b.assert_member("i", cls("a0"))
            b.assert_stat(cls("a0"), prop("p"), rc.Interval.point(Fraction(1, 2)))
            return b.close()

        want = rc.find_model(kb(1), 3)
        got = rc.find_model(kb(40), 3)
        assert want is not None and got.to_dict() == want.to_dict()
        assert got.class_atoms == tuple(sorted(f"a{k}" for k in range(40)))

    def test_model_search_sound_wrt_close(self):
        kbs = random_sane_kbs(777, 20, max_classes=2, max_props=2, max_inds=1,
                              add_negated_twins=False)
        for _, ckb in kbs:
            model = rc.find_model(ckb, 5)
            if model is not None:
                assert rc.verify_model(ckb, model)
