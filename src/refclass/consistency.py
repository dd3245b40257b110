"""Consistency: structural sanity checks and a bounded finite-model finder.

The model finder searches for a finite population in which every asserted
proportion statement holds with ``%`` read as a literal proportion, every
membership and proper-inclusion statement holds extensionally, mentioned
classes (and properties) have non-empty, pairwise-distinct extensions, and
equivalent sentence forms agree in truth value.  It searches bitmasks over
the element types, with a pruned alphabet and one mask for the last slot.
Failure to find a model within the bound is not a proof of inconsistency;
the bound is part of the verdict.
"""

from __future__ import annotations

import itertools
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
    _Record,
    _Value,
    _atom_tables,
    _bits,
    _classes_within,
    _setfield,
)


class SanityReport(_Record):
    _fields = ("violations", "warnings")

    def __init__(self, violations: Optional[list[str]] = None,
                 warnings: Optional[list[str]] = None):
        self.violations = [] if violations is None else violations
        self.warnings = [] if warnings is None else warnings

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
    # membership is flagged as missing knowledge, not an error.  Only the
    # edges whose subclass lies within the individual's top class can fire,
    # and which do depends on its membership profile alone.
    edges = ckb.subset_index.edges
    unmet: dict[tuple[tuple[str, ...], ...], list[Subset]] = {}
    for ind in sorted(ckb.individuals):
        profile = ckb.profiles[ind]
        if profile.generators not in unmet:
            groups = sorted(_classes_within(profile.top.atoms, edges),
                            key=lambda group: group[0].sub.sort_key())
            unmet[profile.generators] = [s for group in groups if profile.covers(group[0].sub.atoms)
                                         for s in group if not profile.covers(s.sup.atoms)]
        for s in unmet[profile.generators]:
            report.warnings.append(
                f"{ind} is known to be in {s.sub} and {s.sub} < {s.sup} is asserted, "
                f"but membership of {ind} in {s.sup} is not in the knowledge base"
            )
    return report


class FiniteModel(_Value):
    """A finite population with per-element class and property bits."""

    _fields = ("class_atoms", "property_atoms", "population", "individual_map")

    def __init__(self, class_atoms: tuple[str, ...], property_atoms: tuple[str, ...],
                 population: tuple[tuple[frozenset[str], frozenset[str]], ...],
                 individual_map: dict[str, int]):
        _setfield(self, "class_atoms", class_atoms)
        _setfield(self, "property_atoms", property_atoms)
        _setfield(self, "population", population)
        _setfield(self, "individual_map", individual_map)

    def __hash__(self) -> int:  # the individual map is left out
        return hash((self.class_atoms, self.property_atoms, self.population))

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
    return [c for c in ckb.universe if not c.is_universal]


def _mentioned_props(ckb: ClosedKB) -> set[CanonicalProperty]:
    return {s.prop for s in ckb.statements if isinstance(s, (Stat, SentenceForm))}


def _sentence_classes(ckb: ClosedKB) -> list[tuple[tuple[CanonicalProperty, str], ...]]:
    """The forms of each sentence-equivalence class, once per class."""
    return list({group: ckb.sentence_forms[label]
                 for label, group in ckb.sentence_groups.items()}.values())


def verify_model(ckb: ClosedKB, model: FiniteModel) -> bool:
    """Re-check every statement against the model, independent of the search:
    it reads only the KB's statements and the model.  Extensions are built once
    per mentioned class and property; a repeated one shows as a smaller set of
    them, and a sentence form's truth is read from its property's extension."""
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

    # mentioned classes and properties have non-empty, pairwise-distinct extensions
    exts = {c: frozenset(model.extension(c)) for c in _mentioned_classes(ckb)}
    if not all(exts.values()) or len(set(exts.values())) < len(exts):
        return False
    prop_exts = {p: frozenset(k for k in range(n) if model.satisfies(p, k))
                 for p in _mentioned_props(ckb)}
    if len(set(prop_exts.values())) < len(prop_exts):
        return False

    for s in ckb.statements:
        if isinstance(s, Stat):
            ext = exts[s.cls]
            ratio = Fraction(len(ext & prop_exts[s.prop]), len(ext))
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
    # (each form's property is a mentioned one)
    for forms in _sentence_classes(ckb):
        if len({model.individual_map[ind] in prop_exts[prop] for prop, ind in forms}) > 1:
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

    Only the atoms a mentioned class or property uses get a type bit; the
    others are false in every element, as in the first model over all atoms.

    Sizes below the smallest class size some stat can hold at are skipped,
    since no model has them.  The alphabet drops the element types no model
    can use: those in an asserted subset but not its superset, the hits of a
    stat ``= 0`` and the misses of a stat ``= 1``; a class or a distinction
    left with no type refutes the KB at once.  One loop fills every slot but
    the last; the last is a mask of the types that complete the others, ANDed
    with the last individual's type when every slot is an individual's.  Its
    lowest bit is the first completion.  Only that model is built, and
    :func:`verify_model` re-checks it.  The masks are only ANDed and tested, so
    the order of the mentioned classes and properties is never read.
    """
    individuals = tuple(sorted(ckb.individuals))
    stats = [s for s in ckb.statements if isinstance(s, Stat)]

    start = max(1, len(individuals))
    for s in stats:
        smallest = _smallest_extension(s, n_max)
        if smallest is None:
            return None
        start = max(start, smallest)

    classes, props = _mentioned_classes(ckb), _mentioned_props(ckb)
    class_atoms = sorted({a for c in classes for a in c.atoms})
    property_atoms = sorted({a for p in props for a in p.atoms})
    nc = len(class_atoms)
    # Bit t of a mask is set iff an element of type t is in the class (or satisfies
    # the property).  Type t has mentioned atom i iff bit i of t is set, class atoms first.
    full, atom_tables = _atom_tables(nc + len(property_atoms))
    class_bits = dict(zip(class_atoms, atom_tables))
    prop_bits = dict(zip(property_atoms, atom_tables[nc:]))

    class_masks = dict.fromkeys(classes, full)
    for c in classes:
        for a in c.atoms:
            class_masks[c] &= class_bits[a]
    prop_masks = {p: p.over(prop_bits, full) for p in props}
    # A candidate's support (the set of types it uses) must meet every mask
    # in `must_meet`: non-empty, pairwise-distinct extensions.  Both ends of
    # an asserted subset are mentioned classes, so distinctness makes it
    # proper once the alphabet has dropped the types in sub but not in sup.
    must_meet = list(class_masks.values())
    must_meet += [a ^ b for a, b in itertools.combinations(class_masks.values(), 2)]
    must_meet += [a ^ b for a, b in itertools.combinations(prop_masks.values(), 2)]
    alphabet = full
    for s in ckb.statements:
        if isinstance(s, Subset):
            alphabet &= ~class_masks[s.sub] | class_masks[s.sup]
    stat_tests = []
    for s in stats:
        cls = class_masks[s.cls]
        hit = cls & prop_masks[s.prop]
        lo, hi = s.interval.lo, s.interval.hi
        alphabet &= ~(hit if hi == 0 else cls & ~hit if lo == 1 else 0)
        stat_tests.append((cls, hit, lo.numerator, lo.denominator, hi.numerator, hi.denominator))
    if not all(alphabet & mask for mask in must_meet):
        return None
    # Equivalent sentence forms, as (property mask, individual slot) pairs.
    slot = {ind: k for k, ind in enumerate(individuals)}
    form_groups = [[(prop_masks[p], slot[ind]) for p, ind in forms]
                   for forms in _sentence_classes(ckb)]

    def completions(types: tuple[int, ...]) -> int:
        """The mask of the alphabet's types t for which types + (t,) passes."""
        support = 0
        for t in types:
            support |= 1 << t
        fits = alphabet
        for mask in must_meet:
            if not support & mask:
                fits &= mask
        for cls, hit, lo_num, lo_den, hi_num, hi_den in stat_tests:
            d = sum(cls >> t & 1 for t in types)
            x = sum(hit >> t & 1 for t in types)
            options = 0  # t outside cls, a miss in cls, or a hit
            for d1, x1, mask in ((d, x, ~cls), (d + 1, x, cls & ~hit), (d + 1, x + 1, hit)):
                if lo_num * d1 <= x1 * lo_den and x1 * hi_den <= hi_num * d1:
                    options |= mask
            fits &= options
        return fits

    def model_of(types: tuple[int, ...]) -> FiniteModel:
        population = tuple((frozenset(a for i, a in enumerate(class_atoms) if t >> i & 1),
                            frozenset(a for j, a in enumerate(property_atoms) if t >> nc + j & 1))
                           for t in types)
        model = FiniteModel(tuple(sorted(ckb.class_atoms)), tuple(sorted(ckb.property_atoms)),
                            population, slot)
        if not verify_model(ckb, model):
            raise RuntimeError(f"find_model: candidate {types} passed the "
                               "count tests but verify_model rejects it")
        return model

    # An individual's types are the alphabet's in its most specific known class.
    letters = _bits(alphabet)
    choice_lists = [_bits(alphabet & class_masks.get(ckb.profiles[i].top, full))
                    for i in individuals]
    m = len(individuals)
    for n in range(start, n_max + 1):
        for ind_types in itertools.product(*choice_lists):
            if any(len({mask >> ind_types[k] & 1 for mask, k in forms}) > 1
                   for forms in form_groups):
                continue  # equivalent sentence forms disagree
            # The last slot is the last individual's if n == m, else an anonymous one
            # after the others in canonical order: the lowest completion is >= prefix[-1],
            # or it would have completed an earlier prefix.
            head, last = (ind_types[:-1], 1 << ind_types[-1]) if n == m else (ind_types, alphabet)
            for prefix in itertools.combinations_with_replacement(letters, n - 1 - len(head)):
                fits = completions(head + prefix) & last
                if fits:
                    return model_of(head + prefix + ((fits & -fits).bit_length() - 1,))
    return None
