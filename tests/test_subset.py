"""Known-subclass answers against the brute-force search over the universe,
and the bitset subset index against the search from each asserted subclass."""

import itertools
import random

import refclass as rc
from conftest import (
    asserted_subsets,
    oracle_reach_cycle_classes,
    oracle_reach_known,
    oracle_subset_closure,
    oracle_subset_known,
    oracle_subset_reach,
    random_subset_builder,
)
from refclass.core import _bits

KBS = [random_subset_builder(random.Random(seed)).close() for seed in range(300)]


def _outside_classes(rng: random.Random, ckb: rc.ClosedKB, count: int):
    atoms = sorted(ckb.class_atoms)
    outside = [
        cls
        for k in range(1, len(atoms) + 1)
        for cls in map(rc.CanonicalClass, itertools.combinations(atoms, k))
        if cls not in ckb.universe
    ]
    return rng.sample(outside, min(count, len(outside)))


def test_generator_covers_chains_and_cycles():
    assert sum(1 for ckb in KBS if ckb.subset_cycle_classes) >= 50
    chained = 0
    for ckb in KBS:
        edges = asserted_subsets(ckb)
        subs = {sub for sub, _ in edges}
        if any(set(sup.atoms) > set(sub.atoms) for _, sup in edges for sub in subs):
            chained += 1
    assert chained >= 50


def test_subset_known_matches_oracle_in_universe():
    for ckb in KBS:
        for c1 in ckb.universe:
            for c2 in ckb.universe:
                assert ckb.subset_known(c1, c2) == oracle_subset_known(ckb, c1, c2), (c1, c2)


def test_subset_known_matches_oracle_outside_universe():
    rng = random.Random(77)
    checked = 0
    for ckb in KBS:
        outside = _outside_classes(rng, ckb, 4)
        for x in outside:
            for c in list(ckb.universe) + outside:
                assert ckb.subset_known(x, c) == oracle_subset_known(ckb, x, c), (x, c)
                assert ckb.subset_known(c, x) == oracle_subset_known(ckb, c, x), (c, x)
                checked += 1
    assert checked > 1000


def test_subset_pairs_and_cycles_match_oracle_closure():
    for ckb in KBS:
        pairs, cycle_classes = oracle_subset_closure(ckb)
        assert ckb.subset_pairs == pairs
        assert ckb.subset_cycle_classes == cycle_classes


# ---------------------------------------------------------------------------
# The bitset index against the search from each asserted subclass
# ---------------------------------------------------------------------------

SHAPES = ("chain", "tree", "diamond", "cycle")


def random_taxonomy_builder(rng: random.Random, shape: str, n_edges: int) -> rc.KBBuilder:
    """About `n_edges` asserted subsets in one shape, with endpoints of one
    to three atoms; each edge starts from a class or from a class with some
    of its atoms, so chains also run through atom-superset steps.  Each new
    class has atoms of its own, so only the cycle shape closes cycles."""
    b = rc.KBBuilder()
    fresh = itertools.count()

    def node() -> rc.CanonicalClass:
        names = [f"a{next(fresh)}" for _ in range(rng.randint(1, 3))]
        for name in names:
            b.declare_class(name)
        return rc.CanonicalClass(tuple(sorted(names)))

    def within(cls: rc.CanonicalClass) -> rc.CanonicalClass:
        if rng.random() < 0.5:
            return cls
        return rc.CanonicalClass(tuple(sorted(rng.sample(cls.atoms, rng.randint(1, len(cls.atoms))))))

    def edge(sub: rc.CanonicalClass, sup: rc.CanonicalClass) -> None:
        if sub != sup:
            b.assert_subset(sub, sup)

    nodes = [node()]
    while len(b.subsets) < n_edges:
        if shape == "chain":
            nodes.append(node())
            edge(within(nodes[-2]), nodes[-1])
        elif shape == "tree":
            nodes.append(node())
            edge(nodes[-1], within(rng.choice(nodes[:-1])))
        elif shape == "diamond":
            top, left, right, bottom = rng.choice(nodes), node(), node(), node()
            edge(within(left), top)
            edge(within(right), top)
            edge(bottom, left)
            edge(bottom, right)
            nodes += [left, right, bottom]
        else:
            start = rng.choice(nodes)
            path = [start] + [node() for _ in range(rng.randint(1, 4))]
            for sub, sup in zip(path, path[1:]):
                edge(within(sub), sup)
            edge(path[-1], within(start))
            nodes += path[1:]
    for i in range(rng.randint(0, 2)):
        b.declare_individual(f"i{i}")
        for _ in range(rng.randint(1, 3)):
            b.assert_member(f"i{i}", within(rng.choice(nodes)))
    return b


TAXONOMIES = [(shape, random_taxonomy_builder(random.Random(seed), shape, 8 + seed * 13).close())
              for shape in SHAPES for seed in range(5)]


def test_taxonomies_reach_every_shape():
    sizes = [len(asserted_subsets(ckb)) for _, ckb in TAXONOMIES]
    assert min(sizes) >= 8 and max(sizes) >= 60
    assert all(bool(ckb.subset_cycle_classes) == (shape == "cycle") for shape, ckb in TAXONOMIES)


def test_index_matches_the_reach_search():
    rng = random.Random(5)
    for _, ckb in TAXONOMIES:
        reach = oracle_subset_reach(ckb)
        index = ckb.subset_index
        for sub, reached in reach.items():
            assert {index.superclasses[k] for k in _bits(index.below(sub.atoms))} == reached, sub
        universe = sorted(ckb.universe, key=rc.CanonicalClass.sort_key)
        outside = {a.intersect(b) for a, b in (rng.sample(universe, 2) for _ in range(6))}
        outside |= {rc.CanonicalClass(tuple(sorted(rng.sample(sorted(ckb.class_atoms), 2))))
                    for _ in range(6)}
        classes = universe + sorted(outside - ckb.universe, key=rc.CanonicalClass.sort_key)
        known = {(c1, c2) for c1 in classes for c2 in classes if oracle_reach_known(reach, c1, c2)}
        for c1 in classes:
            for c2 in classes:
                assert ckb.subset_known(c1, c2) == ((c1, c2) in known), (c1, c2)
        assert ckb.subset_pairs == {(c1, c2) for c1, c2 in known
                                    if c1 in ckb.universe and c2 in ckb.universe}
        assert ckb.subset_cycle_classes == oracle_reach_cycle_classes(ckb, reach)


def _single_atom_subsets(edges: list[tuple[int, int]]) -> rc.ClosedKB:
    b = rc.KBBuilder()
    for k in range(1 + max(max(e) for e in edges)):
        b.declare_class(f"c{k}")
    for sub, sup in edges:
        b.assert_subset(rc.CanonicalClass((f"c{sub}",)), rc.CanonicalClass((f"c{sup}",)))
    return b.close()


def test_index_closes_long_chains_and_wide_trees():
    """A search from every subclass would take minutes on these; deeper
    than the default recursion limit, they also need an iterative walk."""
    c = {k: rc.CanonicalClass((f"c{k}",)) for k in range(5001)}
    chain = _single_atom_subsets([(k, k + 1) for k in range(2000)])
    assert chain.subset_known(c[0], c[2000]) and chain.subset_known(c[1000], c[1001])
    assert chain.subset_known(c[17].intersect(c[1500]), c[1999])
    assert not chain.subset_known(c[2000], c[0]) and not chain.subset_known(c[1001], c[1000])
    assert not chain.subset_known(c[0], c[0].intersect(c[1])) and not chain.subset_cycle_classes

    tree = _single_atom_subsets([(k, (k - 1) // 2) for k in range(1, 5001)])
    assert tree.subset_known(c[4999], c[0]) and tree.subset_known(c[4999], c[3])
    assert not tree.subset_known(c[4999], c[4]) and not tree.subset_known(c[0], c[1])
    assert not tree.subset_cycle_classes

    cycle = _single_atom_subsets([(k, k + 1) for k in range(2000)] + [(2000, 0)])
    assert cycle.subset_known(c[1500], c[3]) and cycle.subset_known(c[3], c[1500])
    assert cycle.subset_cycle_classes == cycle.universe - {rc.UNIVERSAL}
