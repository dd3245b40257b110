"""Consistency: structural sanity checks and a bounded finite-model finder.

The model finder searches for a finite population in which every asserted
proportion statement holds with ``%`` read as a literal proportion, every
membership and proper-inclusion statement holds extensionally, mentioned
classes (and properties) have non-empty, pairwise-distinct extensions, and
equivalent sentence forms agree in truth value.  Failure to find a model
within the bound is not a proof of inconsistency; the bound is part of the
verdict.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .core import (
    CanonicalClass,
    CanonicalProperty,
    ClosedKB,
    Member,
    SentenceForm,
    Stat,
    Subset,
    _covered,
)


@dataclass
class SanityReport:
    violations: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "violations": list(self.violations),
            "warnings": list(self.warnings),
        }


def sanity_check(ckb: ClosedKB) -> SanityReport:
    """Fast necessary conditions for the existence of a model."""
    report = SanityReport()
    for cls in sorted(ckb.subset_cycle_classes, key=CanonicalClass.sort_key):
        report.violations.append(f"subset cycle through class {cls}")
    # Membership/subset coherence: asserted inclusion without the implied
    # membership is flagged as missing knowledge, not an error.
    edges = [(s.sub, s.sup, frozenset(s.sub.atoms), frozenset(s.sup.atoms))
             for s in ckb.statements if isinstance(s, Subset)]
    for ind in sorted(ckb.individuals):
        gens = ckb.generators[ind]
        top = frozenset(ckb.tops[ind].atoms)
        for sub, sup, sub_atoms, sup_atoms in edges:
            if sub_atoms <= top and _covered(gens, sub_atoms) \
                    and not (sup_atoms <= top and _covered(gens, sup_atoms)):
                report.warnings.append(
                    f"{ind} is known to be in {sub} and {sub} < {sup} is asserted, "
                    f"but membership of {ind} in {sup} is not in the knowledge base"
                )
    return report


@dataclass(frozen=True)
class FiniteModel:
    """A finite population with per-element class and property bits."""

    class_atoms: tuple[str, ...]
    property_atoms: tuple[str, ...]
    population: tuple[tuple[frozenset[str], frozenset[str]], ...]
    individual_map: dict[str, int] = field(hash=False)

    def extension(self, cls: CanonicalClass) -> list[int]:
        need = set(cls.atoms)
        return [k for k, (cs, _) in enumerate(self.population) if need <= cs]

    def satisfies(self, prop: CanonicalProperty, element: int) -> bool:
        return prop.evaluate(self.population[element][1])

    def to_dict(self) -> dict:
        return {
            "size": len(self.population),
            "elements": [
                {"classes": sorted(cs), "properties": sorted(ps)}
                for cs, ps in self.population
            ],
            "individuals": {i: k for i, k in sorted(self.individual_map.items())},
        }


def _mentioned_classes(ckb: ClosedKB) -> list[CanonicalClass]:
    return sorted((c for c in ckb.universe if not c.is_universal),
                  key=CanonicalClass.sort_key)


def _mentioned_props(ckb: ClosedKB) -> list[CanonicalProperty]:
    props = {s.prop for s in ckb.statements if isinstance(s, (Stat, SentenceForm))}
    return sorted(props, key=CanonicalProperty.sort_key)


def _sentence_classes(ckb: ClosedKB) -> list[tuple[tuple[CanonicalProperty, str], ...]]:
    """The forms of each sentence-equivalence class, once per class."""
    return list({group: ckb.sentence_forms[label]
                 for label, group in ckb.sentence_groups.items()}.values())


def verify_model(ckb: ClosedKB, model: FiniteModel) -> bool:
    """Re-check every statement against the model, independent of the search."""
    n = len(model.population)
    if n == 0:
        return False
    for ind in ckb.individuals:
        if ind not in model.individual_map:
            return False
        if not 0 <= model.individual_map[ind] < n:
            return False
    # distinct individuals denote distinct elements
    if len(set(model.individual_map.values())) != len(model.individual_map):
        return False

    classes = _mentioned_classes(ckb)
    exts = {c: frozenset(model.extension(c)) for c in classes}
    for c in classes:
        if not exts[c]:
            return False
    for a, b in itertools.combinations(classes, 2):
        if exts[a] == exts[b]:
            return False
    props = _mentioned_props(ckb)
    prop_exts = {
        p: frozenset(k for k in range(n) if model.satisfies(p, k)) for p in props
    }
    for a, b in itertools.combinations(props, 2):
        if prop_exts[a] == prop_exts[b]:
            return False

    for s in ckb.statements:
        if isinstance(s, Stat):
            ext = exts[s.cls]
            hits = sum(1 for k in ext if model.satisfies(s.prop, k))
            ratio = Fraction(hits, len(ext))
            if not (s.interval.lo <= ratio <= s.interval.hi):
                return False
        elif isinstance(s, Member):
            elem = model.individual_map[s.individual]
            if not set(s.cls.atoms) <= model.population[elem][0]:
                return False
        elif isinstance(s, Subset):
            if not (exts[s.sub] < exts[s.sup]):
                return False
    # every class of equivalent sentences must get one truth value
    for forms in _sentence_classes(ckb):
        if len({model.satisfies(prop, model.individual_map[ind]) for prop, ind in forms}) > 1:
            return False
    return True


def _smallest_extension(stat: Stat, n_max: int) -> Optional[int]:
    """The smallest class size m <= n_max at which the stat can hold exactly:
    some integer count lies in [lo·m, hi·m].  None if no size fits."""
    lo, hi = stat.interval.lo, stat.interval.hi
    lo_num, lo_den, hi_num, hi_den = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    for m in range(1, n_max + 1):
        if -(-lo_num * m // lo_den) <= hi_num * m // hi_den:  # ceil(lo·m) <= floor(hi·m)
            return m
    return None


def find_model(ckb: ClosedKB, n_max: int) -> Optional[FiniteModel]:
    """Exhaustive search over population sizes 1..n_max.

    Individuals occupy the first slots (they are pairwise distinct, so this
    is pure symmetry breaking); anonymous elements are enumerated as a
    non-decreasing type sequence.  Returns the first model in canonical
    order, or None if the bound is exhausted.

    Sizes below the smallest class size some stat can hold at are skipped,
    since no model has them.  Each candidate is tested from bitmasks over
    the element types and from its type counts; only the one returned is
    built as a FiniteModel, and :func:`verify_model` re-checks it.
    """
    class_atoms = tuple(sorted(ckb.class_atoms))
    property_atoms = tuple(sorted(ckb.property_atoms))
    individuals = tuple(sorted(ckb.individuals))
    nc, np_ = len(class_atoms), len(property_atoms)
    n_types = 1 << (nc + np_)
    stats = [s for s in ckb.statements if isinstance(s, Stat)]

    start = max(1, len(individuals))
    for s in stats:
        smallest = _smallest_extension(s, n_max)
        if smallest is None:
            return None
        start = max(start, smallest)

    def type_to_sets(t: int) -> tuple[frozenset[str], frozenset[str]]:
        cs = frozenset(class_atoms[i] for i in range(nc) if t >> i & 1)
        ps = frozenset(property_atoms[j] for j in range(np_) if t >> (nc + j) & 1)
        return cs, ps

    type_sets = [type_to_sets(t) for t in range(n_types)]

    # Per-type masks: bit t is set iff an element of type t is in the
    # class (or satisfies the property).
    def class_mask(cls: CanonicalClass) -> int:
        need = set(cls.atoms)
        return sum(1 << t for t in range(n_types) if need <= type_sets[t][0])

    def prop_mask(prop: CanonicalProperty) -> int:
        return sum(1 << t for t in range(n_types) if prop.evaluate(type_sets[t][1]))

    class_masks = [class_mask(c) for c in _mentioned_classes(ckb)]
    prop_masks = [prop_mask(p) for p in _mentioned_props(ckb)]
    # A candidate's support (the set of types it uses) must meet every mask
    # in `must_meet` and miss `must_miss`: non-empty, pairwise-distinct
    # extensions, and inclusion for each asserted subset.  Both ends of a
    # subset are mentioned classes, so distinctness makes it proper.
    must_meet = class_masks + [a ^ b for a, b in itertools.combinations(class_masks, 2)]
    must_meet += [a ^ b for a, b in itertools.combinations(prop_masks, 2)]
    must_miss = 0
    for s in ckb.statements:
        if isinstance(s, Subset):
            must_miss |= class_mask(s.sub) & ~class_mask(s.sup)
    stat_tests = []
    for s in stats:
        cls = class_mask(s.cls)
        iv = s.interval
        stat_tests.append((cls, cls & prop_mask(s.prop), iv.lo.numerator,
                           iv.lo.denominator, iv.hi.numerator, iv.hi.denominator))
    # Equivalent sentence forms, as (property mask, individual slot) pairs.
    slot = {ind: k for k, ind in enumerate(individuals)}
    form_groups = [[(prop_mask(p), slot[ind]) for p, ind in forms]
                   for forms in _sentence_classes(ckb)]

    def forms_agree(ind_types: tuple[int, ...]) -> bool:
        return all(
            len({mask >> ind_types[k] & 1 for mask, k in forms}) <= 1
            for forms in form_groups
        )

    def passes(types: tuple[int, ...]) -> bool:
        support = 0
        for t in types:
            support |= 1 << t
        if support & must_miss or not all(support & mask for mask in must_meet):
            return False
        for cls, hit, lo_num, lo_den, hi_num, hi_den in stat_tests:
            d = sum(cls >> t & 1 for t in types)
            x = sum(hit >> t & 1 for t in types)
            if not lo_num * d <= x * lo_den or not x * hi_den <= hi_num * d:
                return False
        return True

    # An individual's types are those in its most specific known class.
    def individual_type_choices(ind: str) -> list[int]:
        mask = class_mask(ckb.tops[ind])
        return [t for t in range(n_types) if mask >> t & 1]

    choice_lists = [individual_type_choices(i) for i in individuals]
    m = len(individuals)

    for n in range(start, n_max + 1):
        for ind_types in itertools.product(*choice_lists):
            if not forms_agree(ind_types):
                continue
            for anon in itertools.combinations_with_replacement(range(n_types), n - m):
                types = ind_types + anon
                if not passes(types):
                    continue
                model = FiniteModel(
                    class_atoms=class_atoms,
                    property_atoms=property_atoms,
                    population=tuple(type_sets[t] for t in types),
                    individual_map=slot,
                )
                if not verify_model(ckb, model):
                    raise RuntimeError(f"find_model: candidate {types} passed the "
                                       "count tests but verify_model rejects it")
                return model
    return None
