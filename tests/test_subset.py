"""Known-subclass answers against the brute-force search over the universe."""

import itertools
import random

import refclass as rc
from conftest import (
    asserted_subsets,
    oracle_subset_closure,
    oracle_subset_known,
    random_subset_builder,
)

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
