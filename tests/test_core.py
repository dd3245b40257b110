"""kb-core: canonicalization, statement assertion, deductive closure."""

import os
import random
from fractions import Fraction

import pytest

import refclass as rc
from conftest import coin_builder, oracle_prop_table

KBS_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "kbs")


def cls(*atoms):
    return rc.CanonicalClass(tuple(sorted(atoms)))


def prop(name):
    return rc.canonicalize_property(rc.PropAtom(name))


class TestCanonicalizeClass:
    def test_atomic_identity(self):
        assert rc.canonicalize_class(rc.ClassAtom("tosses")) == cls("tosses")

    def test_idempotence_and_commutativity(self):
        expr = rc.ClassAnd(
            rc.ClassAnd(rc.ClassAtom("tosses"), rc.ClassAtom("by_sam")),
            rc.ClassAtom("tosses"),
        )
        assert rc.canonicalize_class(expr) == cls("by_sam", "tosses")

    def test_associativity(self):
        expr = rc.ClassAnd(
            rc.ClassAnd(rc.ClassAtom("a"), rc.ClassAtom("b")),
            rc.ClassAnd(rc.ClassAtom("b"), rc.ClassAtom("c")),
        )
        assert rc.canonicalize_class(expr) == cls("a", "b", "c")

    def test_deep_tree(self):
        expr = rc.ClassAtom("a")
        for _ in range(5000):
            expr = rc.ClassAnd(expr, rc.ClassAtom("b"))
        assert rc.canonicalize_class(expr) == cls("a", "b")

    def test_deep_non_class_tree(self):
        expr = rc.PropAtom("p")
        for _ in range(5000):
            expr = rc.PropNot(expr)
        with pytest.raises(rc.ValidationError, match="^not a class expression: PropNot$"):
            rc.canonicalize_class(expr)

    @pytest.mark.parametrize("atoms", [("b", "a"), ("a", "a")])
    def test_non_canonical_atoms_rejected(self, atoms):
        with pytest.raises(rc.ValidationError, match="^class atoms not canonical: "):
            rc.CanonicalClass(atoms)

    def test_intersection_properties(self):
        a, b = cls("a"), cls("b")
        assert a.intersect(b) == b.intersect(a) == cls("a", "b")
        assert a.intersect(a) == a
        assert a.intersect(rc.UNIVERSAL) == a


def _holds(expr, true_atoms) -> bool:
    """The oracle's verdict on one assignment: each atom is replaced by the
    constant it takes there, written over one fresh atom z, so the oracle's
    table is over z alone and is empty iff the formula is false."""
    z = rc.PropAtom("z")
    false = rc.PropAnd(z, rc.PropNot(z))

    def fixed(e):
        if isinstance(e, rc.PropAtom):
            return rc.PropNot(false) if e.name in true_atoms else false
        if isinstance(e, rc.PropNot):
            return rc.PropNot(fixed(e.arg))
        return rc.PropAnd(fixed(e.left), fixed(e.right))

    return bool(oracle_prop_table(fixed(expr), ["z"]))


class TestCanonicalizeProperty:
    def test_double_negation(self):
        expr = rc.PropNot(rc.PropNot(rc.PropAtom("heads")))
        assert rc.canonicalize_property(expr) == prop("heads")

    def test_conjunction_idempotence(self):
        expr = rc.PropAnd(rc.PropAtom("heads"), rc.PropAtom("heads"))
        assert rc.canonicalize_property(expr) == prop("heads")

    def test_excluded_middle_is_tautology(self):
        expr = rc.PropNot(rc.PropAnd(rc.PropAtom("a"), rc.PropNot(rc.PropAtom("a"))))
        got = rc.canonicalize_property(expr)
        assert got == rc.TAUTOLOGY
        # independent truth-table oracle over {a}
        assert oracle_prop_table(expr, ["a"]) == frozenset(
            {frozenset(), frozenset({"a"})}
        )

    def test_contradiction(self):
        expr = rc.PropAnd(rc.PropAtom("a"), rc.PropNot(rc.PropAtom("a")))
        assert rc.canonicalize_property(expr) == rc.CONTRADICTION

    def test_inessential_atom_dropped(self):
        # !( !a & b ) & !( !a & !b ) is just a, whatever b does
        a, b = rc.PropAtom("a"), rc.PropAtom("b")
        expr = rc.PropAnd(
            rc.PropNot(rc.PropAnd(rc.PropNot(a), b)),
            rc.PropNot(rc.PropAnd(rc.PropNot(a), rc.PropNot(b))),
        )
        assert rc.canonicalize_property(expr) == prop("a")

    def test_predicates_are_bools(self):
        assert rc.TAUTOLOGY.is_tautology is True
        assert rc.TAUTOLOGY.is_contradiction is False
        assert rc.CONTRADICTION.is_contradiction is True
        assert rc.CONTRADICTION.is_tautology is False
        assert prop("a").is_tautology is False
        assert prop("a").is_contradiction is False

    def test_negation_involution(self):
        p = rc.canonicalize_property(
            rc.PropAnd(rc.PropAtom("a"), rc.PropNot(rc.PropAtom("b")))
        )
        assert p.negate().negate() == p

    def test_twenty_atoms(self):
        """A 20-atom conjunction and its negation, parsed: negate, conjunctions
        of its parts, and evaluate agree with the oracle on sampled
        assignments, and atoms a formula ignores are dropped."""
        names = [f"p{k}" for k in range(20)]

        def conj_of(atoms):
            expr = rc.PropAtom(atoms[0])
            for a in atoms[1:]:
                expr = rc.PropAnd(expr, rc.PropAtom(a))
            return expr

        conj_expr, low_expr, high_expr = conj_of(names), conj_of(names[:10]), conj_of(names[10:])
        text = " & ".join(names)
        b = rc.parse_kb("".join(f"property {a}\n" for a in names) + "individual t\n"
                        f"sentence S iff {text}(t)\nsentence N iff !({text})(t)\n"
                        "sentence D iff p0 & !(p19 & !p19)(t)\n")
        conj, neg, dropped = (b.sentence_forms[s][0] for s in ("S", "N", "D"))
        assert conj.atoms == neg.atoms == tuple(sorted(names))
        assert conj.negate() == neg and neg.negate() == conj
        assert dropped == prop("p0")
        halves = rc.canonicalize_property(rc.PropAnd(low_expr, high_expr))
        assert halves == conj
        assert rc.canonicalize_property(rc.PropAnd(conj_expr, rc.PropAtom("p0"))) == conj
        mixed_expr = rc.PropAnd(low_expr, rc.PropNot(rc.PropAtom("p12")))
        mixed = rc.canonicalize_property(mixed_expr)
        assert mixed.atoms == tuple(sorted(names[:10] + ["p12"]))
        assert rc.canonicalize_property(rc.PropAnd(conj_expr, mixed_expr)) == rc.CONTRADICTION
        rng = random.Random(20)
        samples = [set(names), set(names) - {"p12"}, set()]
        samples += [{a for a in names if rng.random() < 0.9} for _ in range(60)]
        for s in samples:
            assert conj.evaluate(s) == _holds(conj_expr, s)
            assert neg.evaluate(s) == conj.negate().evaluate(s) == _holds(rc.PropNot(conj_expr), s)
            assert halves.evaluate(s) == _holds(rc.PropAnd(low_expr, high_expr), s)
            assert mixed.evaluate(s) == _holds(mixed_expr, s)

    @pytest.mark.parametrize("kind", ["negation", "conjunction"])
    def test_deep_tree_is_a_validation_error(self, kind):
        expr = rc.PropAtom("p")
        for _ in range(5000):
            expr = rc.PropNot(expr) if kind == "negation" else rc.PropAnd(expr, rc.PropAtom("p"))
        with pytest.raises(rc.ValidationError, match="^expression nested too deeply$"):
            rc.canonicalize_property(expr)

    def test_deep_non_property_tree(self):
        expr = rc.ClassAtom("a")
        for _ in range(5000):
            expr = rc.ClassAnd(expr, rc.ClassAtom("b"))
        with pytest.raises(rc.ValidationError, match="^not a property expression: ClassAnd$"):
            rc.canonicalize_property(expr)


class TestInterval:
    def test_validation(self):
        with pytest.raises(rc.ValidationError, match=r"^malformed interval \[7/10, 1/5\]$"):
            rc.Interval(Fraction(7, 10), Fraction(2, 10))
        with pytest.raises(rc.ValidationError):
            rc.Interval(Fraction(-1, 10), Fraction(1, 2))

    def test_float_endpoints_rejected(self):
        # a float is a binary fraction: 0.1 would be stored as 3602879701896397/2**55
        msg = r"^inexact endpoint 0\.2: use a Fraction or a decimal string$"
        with pytest.raises(rc.ValidationError, match=msg):
            rc.Interval(Fraction(1, 10), 0.2)
        with pytest.raises(rc.ValidationError, match=r"^inexact endpoint 0\.1: "):
            rc.Interval(0.1, 0.2)
        with pytest.raises(rc.ValidationError, match=r"^inexact endpoint 0\.5: "):
            rc.Interval.point(0.5)
        assert rc.Interval("0.1", "0.2") == rc.Interval(Fraction(1, 10), Fraction(1, 5))
        assert rc.Interval.point("0.5") == rc.Interval(Fraction(1, 2), Fraction(1, 2))
        assert rc.Interval(0, 1) == rc.UNIT

    def test_reflect(self):
        iv = rc.Interval(Fraction(1, 10), Fraction(2, 5))
        assert iv.reflect() == rc.Interval(Fraction(3, 5), Fraction(9, 10))


class TestAssert:
    def test_stat_idempotent(self):
        b = coin_builder()
        before = len(b.stats)
        b.assert_stat(cls("tosses"), prop("heads"), rc.Interval.point(Fraction(1, 2)))
        assert len(b.stats) == before

    def test_bad_interval_rejected(self):
        b = coin_builder()
        with pytest.raises(rc.ValidationError):
            b.assert_stat(cls("tosses"), prop("heads"),
                          rc.Interval(Fraction(7, 10), Fraction(1, 5)))

    def test_independent_memberships(self):
        b = rc.KBBuilder()
        b.declare_class("tosses")
        b.declare_class("by_sam")
        b.declare_individual("t14")
        b.assert_member("t14", cls("tosses"))
        b.assert_member("t14", cls("by_sam"))
        assert len(b.members) == 2

    def test_sentence_redeclaration(self):
        b = coin_builder()
        b.declare_sentence("S14", prop("heads"), "t14")  # same form: idempotent
        with pytest.raises(rc.ValidationError):
            b.declare_sentence("S14", prop("heads").negate(), "t14")

    def test_subset_self_rejected(self):
        b = coin_builder()
        with pytest.raises(rc.ValidationError,
                           match="^subset statement with identical classes: tosses$"):
            b.assert_subset(cls("tosses"), cls("tosses"))

    def test_undeclared_property_rejected(self):
        b = rc.KBBuilder()
        b.declare_class("r")
        b.declare_individual("i")
        with pytest.raises(rc.DeclarationError, match="^undeclared property: zz$"):
            b.assert_stat(cls("r"), prop("zz"), rc.Interval.point(Fraction(1, 2)))
        with pytest.raises(rc.DeclarationError, match="^undeclared property: zz$"):
            b.declare_sentence("S", prop("zz").negate(), "i")
        assert not b.stats and not b.sentence_forms
        b.assert_member("i", cls("r"))
        assert rc.render(b) == "class r\nindividual i\nmember i in r\n"

    def test_undeclared_names_rejected(self):
        b = coin_builder()
        with pytest.raises(rc.DeclarationError, match="^undeclared class: zz$"):
            b.assert_member("t14", cls("tosses", "zz"))
        with pytest.raises(rc.DeclarationError, match="^undeclared individual: zz$"):
            b.assert_member("zz", cls("tosses"))
        with pytest.raises(rc.DeclarationError, match="^undeclared sentence: zz$"):
            b.assert_equiv("S14", "zz")

    @pytest.mark.parametrize("declare", ["declare_class", "declare_property",
                                         "declare_individual"])
    @pytest.mark.parametrize("name", ["é", "class", "iff", "a-b", "1a", ""])
    def test_names_the_dsl_cannot_read_rejected(self, declare, name):
        b = rc.KBBuilder()
        with pytest.raises(rc.DeclarationError):
            getattr(b, declare)(name)
        assert not (b.class_atoms or b.property_atoms or b.individuals)

    def test_universal_not_assertable(self):
        b = coin_builder()
        with pytest.raises(rc.ValidationError):
            b.assert_member("t14", rc.UNIVERSAL)


class TestClose:
    def test_equal_closures_hash_equally(self):
        with open(os.path.join(KBS_DIR, "coin.rck"), encoding="utf-8") as fh:
            text = fh.read()
        a, b = rc.parse_kb(text).close(), rc.parse_kb(text).close()
        assert a == b and a is not b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_membership_intersection_closure(self):
        b = rc.KBBuilder()
        b.declare_class("tosses")
        b.declare_class("by_sam")
        b.declare_individual("t14")
        b.assert_member("t14", cls("tosses"))
        b.assert_member("t14", cls("by_sam"))
        ckb = b.close()
        assert ckb.memberships["t14"] == frozenset(
            {rc.UNIVERSAL, cls("tosses"), cls("by_sam"), cls("tosses", "by_sam")}
        )

    def test_complement_fusion(self):
        b = rc.KBBuilder()
        b.declare_class("r")
        b.declare_property("p")
        p = prop("p")
        b.assert_stat(cls("r"), p, rc.Interval(Fraction(1, 5), Fraction(3, 5)))
        b.assert_stat(cls("r"), p.negate(), rc.Interval(Fraction(1, 2), Fraction(9, 10)))
        ckb = b.close()
        # [0.2, 0.6] ∩ [1-0.9, 1-0.5] = [0.2, 0.5]
        assert ckb.effective_interval(cls("r"), p) == rc.Interval(
            Fraction(1, 5), Fraction(1, 2)
        )

    def test_empty_fusion_rejected(self):
        b = rc.KBBuilder()
        b.declare_class("r")
        b.declare_property("p")
        b.assert_stat(cls("r"), prop("p"), rc.Interval(Fraction(0), Fraction(3, 10)))
        b.assert_stat(cls("r"), prop("p"), rc.Interval(Fraction(3, 5), Fraction(1)))
        with pytest.raises(rc.InconsistencyError):
            b.close()
        # Three pairs fuse empty: two direct bounds, a stat against its
        # complement's reflection, and a stat against a tautology's pinned
        # value.  The canonically first pair is named, in either order.
        header = "class a\nclass r\nproperty p\nproperty q\n"
        stats = ["stat %(r, q) in [0, 0.2]", "stat %(r, q) in [0.5, 1]",
                 "stat %(a, p) = 0.1", "stat %(a, !p) = 0.1",
                 "stat %(r, !(p & !p)) = 0.5"]
        for order in (stats, stats[::-1]):
            b = rc.parse_kb(header + "\n".join(order) + "\n")
            with pytest.raises(rc.InconsistencyError) as exc:
                b.close()
            not_p = rc.canonicalize_property(rc.PropNot(rc.PropAtom("p")))
            assert (exc.value.cls, exc.value.prop) == (cls("a"), not_p)
            assert str(exc.value) == "empty statistical interval for %(a, !p)"

    def test_no_memberships_gives_universal(self):
        b = rc.KBBuilder()
        b.declare_individual("i")
        ckb = b.close()
        assert ckb.memberships["i"] == frozenset({rc.UNIVERSAL})

    def test_duplicate_membership(self):
        b = rc.KBBuilder()
        b.declare_class("a")
        b.declare_individual("i")
        b.assert_member("i", cls("a"))
        b.assert_member("i", cls("a"))
        ckb = b.close()
        assert ckb.memberships["i"] == frozenset({rc.UNIVERSAL, cls("a")})

    def test_idempotence(self):
        from conftest import closure_signature
        b = coin_builder()
        ckb = b.close()
        b2 = rc.KBBuilder()
        b2.class_atoms = set(b.class_atoms)
        b2.property_atoms = set(b.property_atoms)
        b2.individuals = set(b.individuals)
        for s in ckb.statements:
            b2.assert_statement(s)
        assert closure_signature(b2.close()) == closure_signature(ckb)
        with pytest.raises(rc.ValidationError, match="^unknown statement: 'member t14 in tosses'$"):
            b2.assert_statement("member t14 in tosses")

    def test_sentence_class_stored_once(self, monkeypatch):
        """One class of 500 labels with distinct forms: every label maps to
        the same group and forms objects, and the forms are keyed once each."""
        b = rc.KBBuilder()
        b.declare_property("p")
        b.declare_individual("i")
        for k in range(500):
            b.declare_property(f"q{k}")
            both = rc.canonicalize_property(rc.PropAnd(rc.PropAtom("p"), rc.PropAtom(f"q{k}")))
            b.declare_sentence(f"S{k}", both, "i")
            if k:
                b.assert_equiv(f"S{k - 1}", f"S{k}")
        calls = 0
        sort_key = rc.CanonicalProperty.sort_key

        def counted(self):
            nonlocal calls
            calls += 1
            return sort_key(self)

        monkeypatch.setattr(rc.CanonicalProperty, "sort_key", counted)
        ckb = b.close()
        assert calls < 5000
        group, forms = ckb.sentence_groups["S0"], ckb.sentence_forms["S0"]
        assert len(group) == len(forms) == 500
        assert all(ckb.sentence_groups[s] is group for s in group)
        assert all(ckb.sentence_forms[s] is forms for s in group)


class TestSubsetKnown:
    def test_structural(self, coin_kb):
        assert coin_kb.subset_known(cls("tosses", "by_sam"), cls("tosses"))
        assert coin_kb.subset_known(cls("tosses"), rc.UNIVERSAL)
        assert not coin_kb.subset_known(cls("tosses"), cls("tosses"))

    def test_asserted(self):
        b = rc.KBBuilder()
        b.declare_class("a")
        b.declare_class("b")
        b.assert_subset(cls("a"), cls("b"))
        ckb = b.close()
        assert ckb.subset_known(cls("a"), cls("b"))
        assert not ckb.subset_known(cls("b"), cls("a"))

    def test_unrelated(self):
        b = rc.KBBuilder()
        b.declare_class("a")
        b.declare_class("b")
        ckb = b.close()
        assert not ckb.subset_known(cls("a"), cls("b"))

    def test_transitive_through_assertion(self):
        b = rc.KBBuilder()
        for name in ("a", "b", "c"):
            b.declare_class(name)
        b.assert_subset(cls("a"), cls("b"))
        b.assert_subset(cls("b"), cls("c"))
        ckb = b.close()
        assert ckb.subset_known(cls("a"), cls("c"))
        # structural step chained with an asserted one
        assert ckb.subset_known(cls("a", "c"), cls("b"))

    def test_structural_pairs_present(self, conflict_kb):
        assert (cls("r1", "r2"), cls("r1")) in conflict_kb.subset_pairs
        assert all(a != b for a, b in conflict_kb.subset_pairs)


class TestEffectiveInterval:
    def test_default_unit(self, coin_kb):
        q = rc.canonicalize_property(rc.PropNot(rc.PropAtom("heads")))
        assert coin_kb.effective_interval(rc.UNIVERSAL, q) == rc.UNIT

    def test_point(self, coin_kb):
        assert coin_kb.effective_interval(cls("tosses"), prop("heads")) == \
            rc.Interval.point(Fraction(1, 2))

    def test_complement_only(self):
        b = rc.KBBuilder()
        b.declare_class("c")
        b.declare_property("p")
        p = prop("p")
        b.assert_stat(cls("c"), p.negate(), rc.Interval(Fraction(1, 10), Fraction(2, 5)))
        ckb = b.close()
        assert ckb.effective_interval(cls("c"), p) == rc.Interval(
            Fraction(3, 5), Fraction(9, 10)
        )

    def test_tautology_and_contradiction_pinned(self, coin_kb):
        assert coin_kb.effective_interval(cls("tosses"), rc.TAUTOLOGY) == rc.CERTAIN
        assert coin_kb.effective_interval(cls("tosses"), rc.CONTRADICTION) == rc.IMPOSSIBLE

    def test_sentence_partition(self):
        b = coin_builder()
        b.declare_sentence("T", prop("heads"), "t14")
        b.assert_equiv("S14", "T")
        ckb = b.close()
        assert ckb.sentence_groups["S14"] == ckb.sentence_groups["T"] == \
            frozenset({"S14", "T"})
