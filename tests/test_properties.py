"""Property-based tests for the engine's algebraic invariants."""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import refclass as rc
from conftest import (
    closure_signature,
    oracle_prop_table,
    random_builder,
    random_sane_kbs,
)

ATOMS = ["a", "b", "c"]


def class_exprs():
    atom = st.sampled_from(ATOMS).map(rc.ClassAtom)
    return st.recursive(
        atom, lambda sub: st.builds(rc.ClassAnd, sub, sub), max_leaves=6
    )


def prop_exprs():
    atom = st.sampled_from(ATOMS).map(rc.PropAtom)
    return st.recursive(
        atom,
        lambda sub: st.one_of(
            st.builds(rc.PropNot, sub), st.builds(rc.PropAnd, sub, sub)
        ),
        max_leaves=6,
    )


def _expr_atoms(expr) -> list[str]:
    if isinstance(expr, (rc.ClassAtom, rc.PropAtom)):
        return [expr.name]
    if isinstance(expr, rc.PropNot):
        return _expr_atoms(expr.arg)
    return _expr_atoms(expr.left) + _expr_atoms(expr.right)


def _class_expr_of(atoms):
    expr = rc.ClassAtom(atoms[0])
    for a in atoms[1:]:
        expr = rc.ClassAnd(expr, rc.ClassAtom(a))
    return expr


@given(class_exprs())
def test_class_canonicalization_idempotent(expr):
    c = rc.canonicalize_class(expr)
    assert rc.canonicalize_class(_class_expr_of(c.atoms)) == c
    assert tuple(sorted(set(c.atoms))) == c.atoms


@given(class_exprs())
def test_class_canonicalization_order_insensitive(expr):
    c = rc.canonicalize_class(expr)
    shuffled = _class_expr_of(tuple(reversed(c.atoms)))
    assert rc.canonicalize_class(shuffled) == c


@given(class_exprs(), class_exprs())
def test_class_intersection_commutative(e1, e2):
    c1, c2 = rc.canonicalize_class(e1), rc.canonicalize_class(e2)
    assert c1.intersect(c2) == c2.intersect(c1)
    assert c1.intersect(c1) == c1


@given(prop_exprs())
def test_property_canonicalization_matches_truth_table(expr):
    """Equal canonical forms iff logically equivalent over the mentioned atoms."""
    p = rc.canonicalize_property(expr)
    # independent truth-table oracle over the full atom pool
    table = oracle_prop_table(expr, ATOMS)
    # evaluate the canonical form on the same assignments
    recon = frozenset(
        frozenset(s) for s in _all_assignments(ATOMS) if p.evaluate(s)
    )
    assert recon == table


def _all_assignments(atoms):
    for bits in itertools.product([False, True], repeat=len(atoms)):
        yield {a for a, bit in zip(atoms, bits) if bit}


@given(prop_exprs(), prop_exprs())
def test_property_equality_is_logical_equivalence(e1, e2):
    p1, p2 = rc.canonicalize_property(e1), rc.canonicalize_property(e2)
    equivalent = oracle_prop_table(e1, ATOMS) == oracle_prop_table(e2, ATOMS)
    assert (p1 == p2) == equivalent


@given(prop_exprs())
def test_property_negation_involution(expr):
    p = rc.canonicalize_property(expr)
    assert p.negate().negate() == p


@given(prop_exprs())
def test_property_negate_matches_canonical_negation(expr):
    assert rc.canonicalize_property(rc.PropNot(expr)) == rc.canonicalize_property(expr).negate()


@given(prop_exprs(), prop_exprs())
def test_property_conjoin_commutative(e1, e2):
    assert rc.canonicalize_property(rc.PropAnd(e1, e2)) == rc.canonicalize_property(rc.PropAnd(e2, e1))


@given(prop_exprs(), prop_exprs(), prop_exprs())
@settings(max_examples=50)
def test_property_conjoin_associative(e1, e2, e3):
    assert (rc.canonicalize_property(rc.PropAnd(rc.PropAnd(e1, e2), e3))
            == rc.canonicalize_property(rc.PropAnd(e1, rc.PropAnd(e2, e3))))


def _oracle_key(expr):
    """(essential atoms, satisfying assignments over them as ascending bitmasks),
    read off the oracle's truth table over ATOMS, not off the canonicalizer."""
    table = oracle_prop_table(expr, ATOMS)
    essential = tuple(a for a in ATOMS if any(s ^ {a} not in table for s in table))
    masks = {sum(1 << i for i, a in enumerate(essential) if a in s) for s in table}
    return essential, tuple(sorted(masks))


@given(st.lists(prop_exprs(), min_size=2, max_size=8))
def test_property_sort_key_orders_by_atoms_then_satisfying_assignments(exprs):
    """`sort_key` fixes `render` and the statement order: it sorts as
    (atoms, sorted satisfying assignments) does.  Negations are added, so
    that some properties share their atoms."""
    exprs += [rc.PropNot(e) for e in exprs]
    by_key = sorted(exprs, key=lambda e: rc.canonicalize_property(e).sort_key())
    assert [_oracle_key(e) for e in by_key] == sorted(map(_oracle_key, exprs))


# ---------------------------------------------------------------------------
# Closure invariants over random KBs
# ---------------------------------------------------------------------------

KBS = random_sane_kbs(1201, 60, allow_equiv=True)


def test_membership_closed_under_intersection():
    for _, ckb in KBS:
        for ind in ckb.individuals:
            ms = ckb.memberships[ind]
            for c1, c2 in itertools.combinations(ms, 2):
                assert c1.intersect(c2) in ms


def test_structural_pairs_and_irreflexivity():
    for _, ckb in KBS:
        for c1, c2 in itertools.permutations(ckb.universe, 2):
            if set(c1.atoms) > set(c2.atoms):
                assert (c1, c2) in ckb.subset_pairs
        assert all(a != b for a, b in ckb.subset_pairs)


def test_subset_transitively_closed():
    for _, ckb in KBS:
        pairs = ckb.subset_pairs
        for (a, b), (c, d) in itertools.product(pairs, pairs):
            if b == c and a != d:
                assert (a, d) in pairs


def test_complement_reflection():
    for _, ckb in KBS:
        props = {p for (_, p) in ckb.stats}
        for c in ckb.universe:
            for p in props:
                assert ckb.effective_interval(c, p) == \
                    ckb.effective_interval(c, p.negate()).reflect()


def test_sentence_partition_is_partition():
    for _, ckb in KBS:
        seen = {}
        for label, group in ckb.sentence_groups.items():
            assert label in group
            for member in group:
                assert ckb.sentence_groups[member] == group
        all_labels = set(ckb.sentence_forms)
        assert set(ckb.sentence_groups) == all_labels


def test_close_idempotent():
    for builder, ckb in KBS:
        b2 = rc.KBBuilder()
        b2.class_atoms = set(builder.class_atoms)
        b2.property_atoms = set(builder.property_atoms)
        b2.individuals = set(builder.individuals)
        for s in ckb.statements:
            b2.assert_statement(s)
        assert closure_signature(b2.close()) == closure_signature(ckb)


def test_close_monotone():
    """Asserting more never removes membership/subset/grouping facts."""
    rng = random.Random(5150)
    checked = 0
    while checked < 40:
        b = random_builder(rng, allow_equiv=True)
        if b is None:
            continue
        try:
            before = b.close()
        except rc.InconsistencyError:
            continue
        # add one more random membership
        inds = sorted(b.individuals)
        classes = sorted(b.class_atoms)
        b.assert_member(rng.choice(inds), rc.CanonicalClass((rng.choice(classes),)))
        try:
            after = b.close()
        except rc.InconsistencyError:
            continue
        for ind in before.individuals:
            assert before.memberships[ind] <= after.memberships[ind]
        assert before.subset_pairs <= after.subset_pairs
        for label, group in before.sentence_groups.items():
            assert group <= after.sentence_groups[label]
        checked += 1


# ---------------------------------------------------------------------------
# Inference invariants over random KBs
# ---------------------------------------------------------------------------


def test_point_interval_coherence():
    # per-form invariant: sentences merged into larger equivalence groups
    # evaluate a different form set and are exercised separately
    for _, ckb in KBS:
        for label in ckb.sentence_forms:
            if len(ckb.sentence_groups[label]) > 1:
                continue
            pt = rc.prob_point(ckb, label)
            if pt.defined:
                it = rc.prob_interval(ckb, label)
                assert it.defined
                assert it.interval.lo <= pt.interval.lo <= it.interval.hi


def test_complement_symmetry():
    for _, ckb in KBS:
        for label in ckb.sentence_forms:
            if label.startswith("N_") or f"N_{label}" not in ckb.sentence_forms:
                continue
            if len(ckb.sentence_groups[label]) > 1:
                continue
            res = rc.prob_interval(ckb, label)
            neg = rc.prob_interval(ckb, f"N_{label}")
            if res.defined and neg.defined:
                assert neg.interval == res.interval.reflect()
                assert neg.selected == res.selected


def test_equivalent_sentences_agree():
    for _, ckb in KBS:
        for label, group in ckb.sentence_groups.items():
            results = [rc.prob_interval(ckb, s) for s in group]
            defined = [r for r in results if r.defined]
            assert len({r.interval for r in defined}) <= 1


# ---------------------------------------------------------------------------
# DSL round-trip over random KBs
# ---------------------------------------------------------------------------


def test_render_parse_roundtrip():
    for builder, ckb in KBS:
        try:
            text = rc.render(builder)
        except ValueError:
            continue  # non-decimal rational endpoint
        reparsed = rc.parse_kb(text)
        assert closure_signature(reparsed.close()) == closure_signature(ckb)
        assert rc.render(reparsed) == text
