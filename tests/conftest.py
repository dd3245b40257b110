"""Shared fixtures: hand fixtures, random KB generation, independent oracles."""

from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction

import pytest

import refclass as rc
from refclass import dsl


# ---------------------------------------------------------------------------
# Hand fixtures
# ---------------------------------------------------------------------------


def coin_builder() -> rc.KBBuilder:
    b = rc.KBBuilder()
    b.declare_class("tosses")
    b.declare_property("heads")
    b.declare_individual("t14")
    heads = rc.canonicalize_property(rc.PropAtom("heads"))
    tosses = rc.CanonicalClass(("tosses",))
    b.assert_stat(tosses, heads, rc.Interval.point(Fraction(1, 2)))
    b.assert_member("t14", tosses)
    b.declare_sentence("S14", heads, "t14")
    return b


def conflict_builder(with_subset: bool = False) -> rc.KBBuilder:
    """Two incomparable classes with point values 0.4 and 0.6."""
    b = rc.KBBuilder()
    b.declare_class("r1")
    b.declare_class("r2")
    b.declare_property("p")
    b.declare_individual("i")
    p = rc.canonicalize_property(rc.PropAtom("p"))
    r1 = rc.CanonicalClass(("r1",))
    r2 = rc.CanonicalClass(("r2",))
    b.assert_stat(r1, p, rc.Interval.point(Fraction(2, 5)))
    b.assert_stat(r2, p, rc.Interval.point(Fraction(3, 5)))
    b.assert_member("i", r1)
    b.assert_member("i", r2)
    b.declare_sentence("S", p, "i")
    if with_subset:
        b.assert_subset(r1, r2)
    return b


@pytest.fixture
def coin_kb() -> rc.ClosedKB:
    return coin_builder().close()


@pytest.fixture
def conflict_kb() -> rc.ClosedKB:
    return conflict_builder().close()


# ---------------------------------------------------------------------------
# Random KB generation
# ---------------------------------------------------------------------------

_GRID = [Fraction(n, 4) for n in range(5)] + [Fraction(1, 3), Fraction(2, 3), Fraction(1, 5)]


def random_prop_expr(rng: random.Random, atoms: list[str], depth: int = 2):
    if depth == 0 or rng.random() < 0.5:
        return rc.PropAtom(rng.choice(atoms))
    if rng.random() < 0.5:
        return rc.PropNot(random_prop_expr(rng, atoms, depth - 1))
    return rc.PropAnd(
        random_prop_expr(rng, atoms, depth - 1),
        random_prop_expr(rng, atoms, depth - 1),
    )


def random_builder(
    rng: random.Random,
    *,
    max_classes: int = 3,
    max_props: int = 2,
    max_inds: int = 2,
    allow_equiv: bool = False,
    add_negated_twins: bool = True,
) -> rc.KBBuilder | None:
    """One attempt at a random well-formed builder; None if assembly fails."""
    b = rc.KBBuilder()
    classes = [f"c{i}" for i in range(rng.randint(1, max_classes))]
    props = [f"p{i}" for i in range(rng.randint(1, max_props))]
    inds = [f"i{i}" for i in range(rng.randint(1, max_inds))]
    for name in classes:
        b.declare_class(name)
    for name in props:
        b.declare_property(name)
    for name in inds:
        b.declare_individual(name)

    def rand_class() -> rc.CanonicalClass:
        k = rng.randint(1, min(2, len(classes)))
        return rc.CanonicalClass(tuple(sorted(rng.sample(classes, k))))

    try:
        for ind in inds:
            for _ in range(rng.randint(0, 2)):
                b.assert_member(ind, rand_class())
        for _ in range(rng.randint(0, 4)):
            prop = rc.canonicalize_property(random_prop_expr(rng, props))
            lo = rng.choice(_GRID)
            hi = rng.choice([x for x in _GRID if x >= lo])
            if rng.random() < 0.5:
                hi = lo
            b.assert_stat(rand_class(), prop, rc.Interval(lo, hi))
        if len(classes) >= 2 and rng.random() < 0.4:
            # acyclic by construction: only lower-indexed into higher-indexed
            i, j = sorted(rng.sample(range(len(classes)), 2))
            b.assert_subset(
                rc.CanonicalClass((classes[i],)), rc.CanonicalClass((classes[j],))
            )
        n_sentences = rng.randint(1, 3)
        for k in range(n_sentences):
            prop = rc.canonicalize_property(random_prop_expr(rng, props))
            b.declare_sentence(f"S{k}", prop, rng.choice(inds))
        if allow_equiv and n_sentences >= 2 and rng.random() < 0.7:
            labels = rng.sample([f"S{k}" for k in range(n_sentences)], 2)
            b.assert_equiv(*labels)
        if add_negated_twins:
            for label, (prop, ind) in list(b.sentence_forms.items()):
                b.declare_sentence(f"N_{label}", prop.negate(), ind)
    except rc.KBError:
        return None
    return b


def random_subset_builder(rng: random.Random) -> rc.KBBuilder:
    """A builder rich in asserted subsets: multi-atom endpoints, chains joined
    only by atom-superset steps (`a < b & c`, `b < d`), and cycles."""
    b = rc.KBBuilder()
    atoms = [f"a{i}" for i in range(rng.randint(3, 5))]
    for name in atoms:
        b.declare_class(name)

    def rand_class(max_atoms: int = 3) -> rc.CanonicalClass:
        k = rng.randint(1, min(max_atoms, len(atoms)))
        return rc.CanonicalClass(tuple(sorted(rng.sample(atoms, k))))

    def subset(sub: rc.CanonicalClass, sup: rc.CanonicalClass) -> None:
        if sub != sup:
            b.assert_subset(sub, sup)

    for _ in range(rng.randint(1, 4)):
        kind = rng.random()
        sub, sup = rand_class(), rand_class()
        subset(sub, sup)
        if kind < 0.4:
            # continue the chain from a class the superclass includes
            k = rng.randint(1, len(sup.atoms))
            subset(rc.CanonicalClass(tuple(sorted(rng.sample(sup.atoms, k)))), rand_class())
        elif kind < 0.6:
            # close a cycle back into (a class within) the subclass
            subset(sup, rc.CanonicalClass(tuple(sorted(rng.sample(sub.atoms, 1)))))
    for i in range(rng.randint(0, 2)):
        b.declare_individual(f"i{i}")
        for _ in range(rng.randint(1, 3)):
            b.assert_member(f"i{i}", rand_class(2))
    return b


# Point values in lowest terms over 10 and 20, and intervals whose smallest
# class size with an exact count in them is 2, 3, 4 and 5.
_TENTHS = [Fraction(k, 10) for k in (1, 3, 7, 9)] + \
    [Fraction(k, 20) for k in (1, 3, 7, 9, 11, 13, 17, 19)]
_NARROW = [rc.Interval(Fraction(1, 3), Fraction(2, 3)),
           rc.Interval(Fraction(1, 4), Fraction(1, 3)),
           rc.Interval(Fraction(1, 5), Fraction(1, 4)),
           rc.Interval(Fraction(3, 20), Fraction(1, 5))]


def random_arith_builder(rng: random.Random) -> rc.KBBuilder | None:
    """A small builder whose stats constrain class sizes: points over 10 and
    20, intervals too narrow for a one-element class, and grid values."""
    b = rc.KBBuilder()
    classes = [f"c{i}" for i in range(rng.randint(1, 2))]
    inds = [f"i{i}" for i in range(rng.randint(1, 2))]
    for name in classes:
        b.declare_class(name)
    b.declare_property("p")
    for name in inds:
        b.declare_individual(name)
    p = rc.canonicalize_property(rc.PropAtom("p"))

    def rand_class() -> rc.CanonicalClass:
        k = rng.randint(1, len(classes))
        return rc.CanonicalClass(tuple(sorted(rng.sample(classes, k))))

    try:
        for ind in inds:
            if rng.random() < 0.6:
                b.assert_member(ind, rand_class())
        for _ in range(rng.randint(1, 2)):
            kind = rng.random()
            if kind < 0.3:
                iv = rc.Interval.point(rng.choice(_TENTHS))
            elif kind < 0.8:
                iv = rng.choice(_NARROW)
            else:
                iv = rc.Interval.point(rng.choice(_GRID))
            b.assert_stat(rand_class(), rng.choice([p, p.negate()]), iv)
        if len(classes) == 2 and rng.random() < 0.3:
            b.assert_subset(rc.CanonicalClass(("c0",)), rc.CanonicalClass(("c1",)))
        for k, ind in enumerate(inds):
            b.declare_sentence(f"S{k}", rng.choice([p, p.negate()]), ind)
        if len(inds) == 2 and rng.random() < 0.6:
            b.assert_equiv("S0", "S1")
    except rc.KBError:
        return None
    return b


def random_pruned_builder(rng: random.Random) -> rc.KBBuilder | None:
    """Three class atoms with asserted subsets and stats ``= 0`` and ``= 1``,
    which leave some element types in no model (and some classes in none)."""
    b = rc.KBBuilder()
    classes = ["c0", "c1", "c2"]
    inds = [f"i{k}" for k in range(rng.randint(0, 2))]
    for name in classes:
        b.declare_class(name)
    b.declare_property("p")
    for name in inds:
        b.declare_individual(name)
    p = rc.canonicalize_property(rc.PropAtom("p"))

    def rand_class() -> rc.CanonicalClass:
        return rc.CanonicalClass(tuple(sorted(rng.sample(classes, rng.randint(1, 2)))))

    try:
        for _ in range(rng.randint(1, 2)):
            i, j = sorted(rng.sample(range(3), 2))
            sub = {classes[i]} | ({classes[3 - i - j]} if rng.random() < 0.3 else set())
            b.assert_subset(rc.CanonicalClass(tuple(sorted(sub))),
                            rc.CanonicalClass((classes[j],)))
        for _ in range(rng.randint(1, 3)):
            value = rng.choice([Fraction(0), Fraction(0), Fraction(1), Fraction(1),
                                Fraction(1, 2), Fraction(1, 3)])
            b.assert_stat(rand_class(), rng.choice([p, p.negate()]), rc.Interval.point(value))
        for k, ind in enumerate(inds):
            if rng.random() < 0.7:
                b.assert_member(ind, rand_class())
            b.declare_sentence(f"S{k}", rng.choice([p, p.negate()]), ind)
    except rc.KBError:
        return None
    return b


def random_equiv_builder(rng: random.Random) -> rc.KBBuilder | None:
    """Two individuals whose sentences are asserted equivalent, over two
    class atoms and one property, with a third sentence on one of them."""
    b = rc.KBBuilder()
    for name in ("c0", "c1"):
        b.declare_class(name)
    b.declare_property("p")
    for name in ("i0", "i1"):
        b.declare_individual(name)
    p = rc.canonicalize_property(rc.PropAtom("p"))
    classes = [rc.CanonicalClass(("c0",)), rc.CanonicalClass(("c1",)),
               rc.CanonicalClass(("c0", "c1"))]
    try:
        for ind in ("i0", "i1"):
            if rng.random() < 0.7:
                b.assert_member(ind, rng.choice(classes))
        for _ in range(rng.randint(1, 2)):
            lo = rng.choice(_GRID)
            b.assert_stat(rng.choice(classes), rng.choice([p, p.negate()]),
                          rc.Interval(lo, rng.choice([lo, Fraction(1)])))
        b.declare_sentence("S0", rng.choice([p, p.negate()]), "i0")
        b.declare_sentence("S1", rng.choice([p, p.negate()]), "i1")
        b.declare_sentence("S2", rng.choice([p, p.negate()]), rng.choice(["i0", "i1"]))
        b.assert_equiv("S0", "S1")
        if rng.random() < 0.3:
            b.assert_equiv("S1", "S2")
    except rc.KBError:
        return None
    return b


def random_wide_builder(rng: random.Random) -> rc.KBBuilder | None:
    """A builder with wide membership closures: 4-8 memberships per
    individual (some multi-atom), individuals with none, stats on
    generators, unions of them, the top class, classes outside the closure
    and `in [0, 1]`, asserted subsets, and tautology and contradiction
    sentences beside literals and conjunctions."""
    b = rc.KBBuilder()
    atoms = [f"c{i}" for i in range(rng.randint(6, 9))]
    props = [f"p{i}" for i in range(rng.randint(1, 2))]
    inds = [f"i{i}" for i in range(rng.randint(1, 3))]
    for name in atoms:
        b.declare_class(name)
    for name in props:
        b.declare_property(name)
    for name in inds:
        b.declare_individual(name)

    def canon(group) -> rc.CanonicalClass:
        return rc.CanonicalClass(tuple(sorted(set(group))))

    values = [Fraction(k, 10) for k in range(11)]

    def rand_interval() -> rc.Interval:
        kind = rng.random()
        if kind < 0.45:
            return rc.Interval.point(rng.choice(values[1:-1]))
        if kind < 0.9:
            lo = rng.choice(values[:-1])
            return rc.Interval(lo, rng.choice([v for v in values if v > lo]))
        return rc.UNIT

    try:
        generators: dict[str, list[rc.CanonicalClass]] = {}
        for ind in inds:
            if ind != "i0" and rng.random() < 0.25:
                continue  # no membership at all
            gens = generators[ind] = []
            for _ in range(rng.randint(4, 8)):
                gens.append(canon(rng.sample(atoms, rng.choice([1, 1, 1, 2, 3]))))
                b.assert_member(ind, gens[-1])
        lits = [rc.canonicalize_property(rc.PropAtom(p)) for p in props]
        lits += [p.negate() for p in lits]
        for _ in range(rng.randint(3, 10)):
            kind = rng.random()
            if generators and kind < 0.75:
                gens = generators[rng.choice(sorted(generators))]
                if kind < 0.15:
                    cls = canon(a for g in gens for a in g.atoms)  # the top class
                else:
                    cls = canon(a for g in rng.sample(gens, rng.randint(1, 2))
                                for a in g.atoms)
            else:
                cls = canon(rng.sample(atoms, rng.randint(1, 2)))
            b.assert_stat(cls, rng.choice(lits), rand_interval())
        for _ in range(rng.randint(0, 2)):
            i, j = sorted(rng.sample(range(len(atoms)), 2))
            b.assert_subset(canon([atoms[i]]), canon([atoms[j]]))
        p0 = rc.PropAtom(props[0])
        exprs = [p0, rc.PropNot(p0), rc.PropNot(rc.PropAnd(p0, rc.PropNot(p0))),
                 rc.PropAnd(p0, rc.PropNot(p0))]
        if len(props) > 1:
            exprs.append(rc.PropAnd(p0, rc.PropAtom(props[1])))
        for k in range(rng.randint(2, 5)):
            b.declare_sentence(f"S{k}", rc.canonicalize_property(rng.choice(exprs)),
                               rng.choice(inds))
        if rng.random() < 0.3:
            b.assert_equiv("S0", "S1")
    except rc.KBError:
        return None
    return b


def random_profile_builder(rng: random.Random) -> rc.KBBuilder | None:
    """Many individuals drawn from a few membership profiles, one of them
    empty; some individuals assert a profile's memberships in another
    order.  Stats in [0, 1], point-valued and interval-valued, on unions
    of a profile's classes and elsewhere; literal, conjunction, tautology
    and contradiction sentences on every individual; equivalences."""
    b = rc.KBBuilder()
    atoms = [f"c{i}" for i in range(rng.randint(3, 5))]
    props = [f"p{i}" for i in range(rng.randint(1, 2))]
    for name in atoms:
        b.declare_class(name)
    for name in props:
        b.declare_property(name)

    def rand_class() -> rc.CanonicalClass:
        return rc.CanonicalClass(tuple(sorted(rng.sample(atoms, rng.randint(1, 2)))))

    profiles = [[]] + [list(dict.fromkeys(rand_class() for _ in range(rng.randint(1, 3))))
                       for _ in range(rng.randint(2, 4))]
    values = [Fraction(k, 10) for k in range(11)]
    p0 = rc.PropAtom(props[0])
    exprs = [p0, rc.PropNot(p0), rc.PropNot(rc.PropAnd(p0, rc.PropNot(p0))),
             rc.PropAnd(p0, rc.PropNot(p0))]
    if len(props) > 1:
        exprs.append(rc.PropAnd(p0, rc.PropAtom(props[1])))
    forms = [rc.canonicalize_property(e) for e in exprs]
    try:
        labels = []
        for k in range(rng.randint(8, 16)):
            ind = f"i{k}"
            b.declare_individual(ind)
            profile = list(rng.choice(profiles))
            if rng.random() < 0.4:
                profile.reverse()
            for cls in profile:
                b.assert_member(ind, cls)
            for _ in range(rng.randint(1, 2)):
                labels.append(f"S{len(labels)}")
                b.declare_sentence(labels[-1], rng.choice(forms), ind)
        for _ in range(rng.randint(3, 8)):
            kind = rng.random()
            if kind < 0.4:
                iv = rc.Interval.point(rng.choice(values))
            elif kind < 0.85:
                lo = rng.choice(values[:-1])
                iv = rc.Interval(lo, rng.choice([v for v in values if v > lo]))
            else:
                iv = rc.UNIT
            profile = rng.choice(profiles[1:])
            if rng.random() < 0.6:
                cls = rc.CanonicalClass(tuple(sorted(
                    {a for c in rng.sample(profile, rng.randint(1, len(profile)))
                     for a in c.atoms})))
            else:
                cls = rand_class()
            b.assert_stat(cls, rng.choice([f for f in forms if f.atoms]), iv)
        if rng.random() < 0.4:
            i, j = sorted(rng.sample(range(len(atoms)), 2))
            b.assert_subset(rc.CanonicalClass((atoms[i],)), rc.CanonicalClass((atoms[j],)))
        for _ in range(rng.randint(0, 2)):
            b.assert_equiv(*rng.sample(labels, 2))
    except rc.KBError:
        return None
    return b


def random_sane_kbs(
    seed: int,
    count: int,
    make=random_builder,
    **kwargs,
) -> list[tuple[rc.KBBuilder, rc.ClosedKB]]:
    """Generate `count` KBs that close successfully and pass sanity checks."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        b = make(rng, **kwargs)
        if b is None:
            continue
        try:
            ckb = b.close()
        except rc.InconsistencyError:
            continue
        if rc.sanity_check(ckb).ok:
            out.append((b, ckb))
    return out


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def asserted_subsets(ckb: rc.ClosedKB) -> list[tuple[rc.CanonicalClass, rc.CanonicalClass]]:
    """The asserted subset edges (sub, sup), read from the statements."""
    return [(s.sub, s.sup) for s in ckb.statements if isinstance(s, rc.Subset)]


def oracle_subset_known(ckb: rc.ClosedKB, c1: rc.CanonicalClass,
                        c2: rc.CanonicalClass) -> bool:
    """Brute-force known proper inclusion: a search from c1 for c2 over
    U ∪ {c1, c2}, stepping along structural edges (strict atom superset)
    and asserted subset edges."""
    if c1 == c2:
        return False
    if set(c1.atoms) > set(c2.atoms):
        return True
    nodes = set(ckb.universe) | {c1, c2}
    asserted = set(asserted_subsets(ckb))
    seen = {c1}
    frontier = [c1]
    while frontier:
        cur = frontier.pop()
        for nxt in nodes:
            if nxt in seen:
                continue
            if set(cur.atoms) > set(nxt.atoms) or (cur, nxt) in asserted:
                if nxt == c2:
                    return True
                seen.add(nxt)
                frontier.append(nxt)
    return False


def oracle_subset_reach(ckb: rc.ClosedKB) -> dict[rc.CanonicalClass, frozenset[rc.CanonicalClass]]:
    """Per asserted subclass, the asserted superclasses its chains reach: a
    search from each subclass that scans every asserted subset at each step,
    cubic in the number of asserted subsets."""
    subsets = asserted_subsets(ckb)
    reach = {}
    for start in {sub for sub, _ in subsets}:
        seen: set[rc.CanonicalClass] = set()
        frontier = [start]
        while frontier:
            atoms = set(frontier.pop().atoms)
            for sub, sup in subsets:
                if sup not in seen and atoms.issuperset(sub.atoms):
                    seen.add(sup)
                    frontier.append(sup)
        reach[start] = frozenset(seen)
    return reach


def oracle_reach_known(reach, c1: rc.CanonicalClass, c2: rc.CanonicalClass) -> bool:
    """Known proper inclusion read off `oracle_subset_reach`: c1's atoms
    strictly include c2's, or an asserted subclass within c1 reaches an
    asserted superclass that includes c2."""
    if c1 == c2:
        return False
    atoms = set(c1.atoms)
    return atoms.issuperset(c2.atoms) or any(
        atoms.issuperset(sub.atoms) and any(set(sup.atoms).issuperset(c2.atoms) for sup in reached)
        for sub, reached in reach.items())


def oracle_reach_cycle_classes(ckb: rc.ClosedKB, reach) -> frozenset[rc.CanonicalClass]:
    """The classes of the universe between an asserted subclass and a
    superclass of it that the subclass reaches."""
    cycles = [(set(sub.atoms), set(sup.atoms)) for sub, reached in reach.items()
              for sup in reached if set(sup.atoms).issuperset(sub.atoms)]
    return frozenset(c for c in ckb.universe
                     if any(sub.issubset(c.atoms) and sup.issuperset(c.atoms) for sub, sup in cycles))


def oracle_subset_closure(ckb: rc.ClosedKB):
    """Brute-force closure over U: every structural edge plus the asserted
    ones, closed by a search from each class.  Returns (pairs, classes on a
    cycle)."""
    edges = {c: set() for c in ckb.universe}
    for sub, sup in asserted_subsets(ckb):
        edges[sub].add(sup)
    for a in ckb.universe:
        for b in ckb.universe:
            if set(a.atoms) > set(b.atoms):
                edges[a].add(b)
    pairs, cycle_classes = set(), set()
    for start in ckb.universe:
        seen = set()
        frontier = [start]
        while frontier:
            for nxt in edges[frontier.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        if start in seen:
            cycle_classes.add(start)
        pairs.update((start, c) for c in seen if c != start)
    return frozenset(pairs), frozenset(cycle_classes)


def oracle_differ(a: rc.Interval, b: rc.Interval) -> bool:
    # literal statement: neither interval is included in the other
    a_in_b = b.lo <= a.lo and a.hi <= b.hi
    b_in_a = a.lo <= b.lo and b.hi <= a.hi
    return not a_in_b and not b_in_a


def oracle_filter(rows, subset_fn):
    """Literal survivor predicate over all row pairs; returns surviving classes."""
    keep = []
    for r in rows:
        excused = True
        for s in rows:
            if s.cls == r.cls:
                continue
            if oracle_differ(r.interval, s.interval) and not subset_fn(r.cls, s.cls):
                excused = False
        if excused:
            keep.append(r.cls)
    return keep


def oracle_evaluate(ckb: rc.ClosedKB, sentence: str, mode: str) -> rc.Trace:
    """The dense evaluation the sparse tables replaced: per form,
    `build_table` over every known class (point mode keeps the point-valued
    rows), `filter_rows`, and resolution by the smallest
    (-lo, hi, class sort key); forms combined as `prob_*` combines them."""
    inf = rc.inference
    forms = ckb.sentence_forms.get(sentence)
    if not forms:
        return rc.Trace(sentence, mode, (), rc.ProbResult.undefined(rc.NO_SENTENCE_FORM))
    traces = []
    for prop, ind in forms:
        rows = rc.build_table(ckb, ind, prop)
        if mode == "point":
            rows = [r for r in rows if r.interval.is_point]
        if not rows:
            res = rc.ProbResult.undefined(rc.NO_MEMBERSHIP)
        else:
            rows = rc.filter_rows(ckb, rows)
            live = rc.survivors(rows)
            if live:
                best = min(live, key=lambda r: (-r.interval.lo, r.interval.hi,
                                                r.cls.sort_key()))
                res = rc.ProbResult.of(best.interval, best.cls, (prop, ind))
            else:
                res = rc.ProbResult.undefined(rc.ALL_ROWS_DELETED)
        traces.append(inf.FormTrace(prop, ind, tuple(rows), res))
    defined = [t.result for t in traces if t.result.defined]
    if defined:
        if any(r.interval != defined[0].interval for r in defined):
            res = rc.ProbResult.undefined(rc.CONFLICTING_EQUIVALENT_FORMS)
        else:
            res = defined[0]
    elif any(t.result.reason == rc.ALL_ROWS_DELETED for t in traces):
        res = rc.ProbResult.undefined(rc.ALL_ROWS_DELETED)
    else:
        res = rc.ProbResult.undefined(rc.NO_MEMBERSHIP)
    return rc.Trace(sentence, mode, tuple(traces), res)


def oracle_prop_table(expr, atoms: list[str]) -> frozenset[frozenset[str]]:
    """Truth table of a property expression as the set of satisfying
    assignments (over the given atom list), written independently of the
    canonicalizer."""
    sat = set()
    for bits in itertools.product([False, True], repeat=len(atoms)):
        env = dict(zip(atoms, bits))

        def ev(e):
            if isinstance(e, rc.PropAtom):
                return env[e.name]
            if isinstance(e, rc.PropNot):
                return not ev(e.arg)
            return ev(e.left) and ev(e.right)

        if ev(expr):
            sat.add(frozenset(a for a in atoms if env[a]))
    return frozenset(sat)


def naive_model_exists(ckb: rc.ClosedKB, n_max: int) -> bool:
    """Existence check by full enumeration, no symmetry breaking: all
    populations of typed elements and all injective individual placements."""
    class_atoms = tuple(sorted(ckb.class_atoms))
    property_atoms = tuple(sorted(ckb.property_atoms))
    individuals = tuple(sorted(ckb.individuals))
    nc, np_ = len(class_atoms), len(property_atoms)
    n_types = 1 << (nc + np_)

    def sets_of(t):
        cs = frozenset(class_atoms[i] for i in range(nc) if t >> i & 1)
        ps = frozenset(property_atoms[j] for j in range(np_) if t >> (nc + j) & 1)
        return cs, ps

    for n in range(1, n_max + 1):
        if n < len(individuals):
            continue
        for types in itertools.product(range(n_types), repeat=n):
            population = tuple(sets_of(t) for t in types)
            for placement in itertools.permutations(range(n), len(individuals)):
                model = rc.FiniteModel(
                    class_atoms=class_atoms,
                    property_atoms=property_atoms,
                    population=population,
                    individual_map=dict(zip(individuals, placement)),
                )
                if rc.verify_model(ckb, model):
                    return True
    return False


def oracle_find_model(ckb: rc.ClosedKB, n_max: int):
    """The exhaustive search the model finder replaced: sizes ascending,
    individuals in the first slots, anonymous elements as a non-decreasing
    type sequence, and `verify_model` on every candidate.  Returns the first
    model in that canonical order, or None."""
    class_atoms = tuple(sorted(ckb.class_atoms))
    property_atoms = tuple(sorted(ckb.property_atoms))
    individuals = tuple(sorted(ckb.individuals))
    nc, np_ = len(class_atoms), len(property_atoms)
    n_types = 1 << (nc + np_)

    def type_to_sets(t):
        cs = frozenset(class_atoms[i] for i in range(nc) if t >> i & 1)
        ps = frozenset(property_atoms[j] for j in range(np_) if t >> (nc + j) & 1)
        return cs, ps

    type_sets = [type_to_sets(t) for t in range(n_types)]
    required = {i: 0 for i in individuals}
    for s in ckb.statements:
        if isinstance(s, rc.Member):
            for a in s.cls.atoms:
                required[s.individual] |= 1 << class_atoms.index(a)
    choice_lists = [[t for t in range(n_types) if t & required[i] == required[i]]
                    for i in individuals]
    m = len(individuals)
    for n in range(max(1, m), n_max + 1):
        for ind_types in itertools.product(*choice_lists) if m else [()]:
            for anon in itertools.combinations_with_replacement(range(n_types), n - m):
                types = list(ind_types) + list(anon)
                model = rc.FiniteModel(
                    class_atoms=class_atoms,
                    property_atoms=property_atoms,
                    population=tuple(type_sets[t] for t in types),
                    individual_map={ind: k for k, ind in enumerate(individuals)},
                )
                if rc.verify_model(ckb, model):
                    return model
    return None


def closure_signature(ckb: rc.ClosedKB):
    """Hashable summary of everything the closure determines."""
    return (
        frozenset((i, ms) for i, ms in ckb.memberships.items()),
        ckb.subset_pairs,
        frozenset(ckb.stats.items()),
        frozenset((s, g) for s, g in ckb.sentence_groups.items()),
        frozenset((s, f) for s, f in ckb.sentence_forms.items()),
    )


# ---------------------------------------------------------------------------
# The per-line parse the one-pass tokenizer replaced
# ---------------------------------------------------------------------------

_LINE_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<comment>#.*)"
    r"|(?P<num>[0-9]+\.[0-9]+|\.[0-9]+|[0-9]+)"
    r"|(?P<id>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<sym>%|\(|\)|\[|\]|,|=|<|&|!)"
)


def oracle_tokenize_line(text: str, line_no: int) -> list:
    """One line's tokens, matched from the line's start one at a time."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _LINE_TOKEN_RE.match(text, pos)
        if m is None:
            raise rc.DslError(f"unexpected character {text[pos]!r}", line_no, pos + 1)
        pos = m.end()
        if m.lastgroup not in ("ws", "comment"):
            tokens.append(dsl.Token(m.lastgroup, m.group(), line_no, m.start() + 1))
    tokens.append(dsl.Token("eol", "", line_no, len(text) + 1))
    return tokens


def oracle_parse_kb(text: str) -> tuple[rc.KBBuilder, list]:
    """(builder, errors) from `str.splitlines`, each line tokenized on its
    own, and a new parser per line, so no canonical property is memoised
    from one line to the next."""
    builder = rc.KBBuilder()
    errors = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        try:
            tokens = oracle_tokenize_line(line, line_no)
            dsl._Parser(builder).run(tokens, None, dsl._Parser.parse_line)
        except rc.DslError as e:
            errors.append(e)
    return builder, errors
