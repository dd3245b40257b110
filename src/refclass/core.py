"""Knowledge-base core: vocabulary, statements, canonicalization, closure.

A knowledge base is built incrementally through :class:`KBBuilder` and then
frozen into a :class:`ClosedKB`, which carries the deductively closed view
(memberships as their asserted generators, whose closure under intersection
is implicit, the reach of asserted subset edges, sentence equivalence
classes, fused statistical intervals indexed by property).  All queries run
against the closed form.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from functools import cached_property, reduce
from operator import and_, attrgetter, or_
from typing import Callable, Container, Iterable, Mapping, TypeVar, Union

T = TypeVar("T")


class KBError(Exception):
    """Base for all knowledge-base errors."""


class DeclarationError(KBError):
    """An identifier is undeclared, reserved, or declared twice."""


class ValidationError(KBError):
    """A statement is malformed (bad interval, conflicting sentence form, ...)."""


class InconsistencyError(KBError):
    """Asserted statistics admit no value for some (class, property) pair."""

    def __init__(self, cls: "CanonicalClass", prop: "CanonicalProperty"):
        self.cls = cls
        self.prop = prop
        super().__init__(
            f"empty statistical interval for %({cls}, {prop.describe()})"
        )


def _check_declared(kind: str, name: str, declared: Container[str]) -> None:
    """The one check, and message, for a name used before its declaration."""
    if name not in declared:
        raise DeclarationError(f"undeclared {kind}: {name}")


# ---------------------------------------------------------------------------
# Value types
# ---------------------------------------------------------------------------


class _Record:
    """Base of the record types, mutable and unhashable: ``_fields`` names the
    fields, in order, that ``repr`` shows and that ``==`` compares as one
    tuple between two values of one type, as a dataclass does."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls._fields:  # not _Value, which has none
            cls._key = attrgetter(*cls._fields)  # the fields' tuple, if two or more
            cls.__match_args__ = cls._fields

    def __repr__(self) -> str:
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented


# How a frozen value's __init__ sets a field.  Unlike writing to `__dict__`,
# it keeps the instance's attributes in the compact per-class layout.
_setfield = object.__setattr__


class _Value(_Record):
    """An immutable record, hashed by its fields' tuple.  Its ``__init__``
    sets the fields with ``_setfield``; assigning or deleting one raises
    AttributeError.  The types on hot paths write their own ``__eq__`` and
    ``__hash__`` over the same fields, which run faster than the shared ones."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# Reference classes
# ---------------------------------------------------------------------------

UNIVERSAL_NAME = "U"


class CanonicalClass(_Value):
    """A reference class in canonical intersection form: a sorted atom tuple.

    The empty tuple is the built-in universal class U (identity of
    intersection).  Two values denote the same class iff their atom sets
    are equal.
    """

    _fields = ("atoms",)

    def __init__(self, atoms: tuple[str, ...]):
        if tuple(sorted(set(atoms))) != atoms:
            raise ValidationError(f"class atoms not canonical: {atoms!r}")
        _setfield(self, "atoms", atoms)

    @classmethod
    def _from_sorted(cls, atoms: tuple[str, ...]) -> "CanonicalClass":
        """A class from atoms already sorted and distinct, unchecked."""
        self = object.__new__(cls)
        _setfield(self, "atoms", atoms)
        return self

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.atoms == other.atoms
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.atoms,))

    @property
    def is_universal(self) -> bool:
        return not self.atoms

    def intersect(self, other: "CanonicalClass") -> "CanonicalClass":
        return CanonicalClass._from_sorted(tuple(sorted(set(self.atoms) | set(other.atoms))))

    def sort_key(self):
        # Most specific (most atoms) first; U sorts last.
        return (-len(self.atoms), self.atoms)

    def __str__(self) -> str:
        return " & ".join(self.atoms) if self.atoms else UNIVERSAL_NAME


UNIVERSAL = CanonicalClass(())


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


_SWAP_BITS = str.maketrans("01", "10")


class CanonicalProperty(_Value):
    """A property as a reduced truth table over its essential atoms.

    ``atoms`` is sorted; bit m of ``table`` is set iff the assignment m
    (bit i of m set means atoms[i] is true) satisfies the property.  Atoms
    the function does not depend on are dropped, so logically equivalent
    formulas are equal.
    """

    _fields = ("atoms", "table")

    def __init__(self, atoms: tuple[str, ...], table: int):
        _setfield(self, "atoms", atoms)
        _setfield(self, "table", table)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.table == other.table and self.atoms == other.atoms
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.atoms, self.table))

    @property
    def is_tautology(self) -> bool:
        return not self.atoms and self.table == 1

    @property
    def is_contradiction(self) -> bool:
        return not self.atoms and not self.table

    def negate(self) -> "CanonicalProperty":
        # a function and its negation depend on the same atoms
        return CanonicalProperty(self.atoms, self.table ^ ((1 << (1 << len(self.atoms))) - 1))

    def evaluate(self, true_atoms: Iterable[str]) -> bool:
        """Truth value under the assignment where exactly `true_atoms` hold."""
        true_atoms = set(true_atoms)
        mask = 0
        for i, a in enumerate(self.atoms):
            if a in true_atoms:
                mask |= 1 << i
        return (self.table >> mask) & 1 == 1

    def over(self, tables: Mapping[str, int], full: int) -> int:
        """This property's table in a space with full mask `full`, given each atom's
        table there: the OR of its minterms, found lowest bit first (cheaper than `_bits`)."""
        out, rest = 0, self.table
        while rest:
            m = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            term = full
            for i, a in enumerate(self.atoms):
                term &= tables[a] if m >> i & 1 else full ^ tables[a]
            out |= term
        return out

    def minterms(self) -> list[str]:
        """Each satisfying assignment, lowest first, as a conjunction of literals."""
        return [" & ".join([a if m >> i & 1 else f"!{a}" for i, a in enumerate(self.atoms)])
                for m in _bits(self.table)]

    def sort_key(self):
        # Orders as (atoms, satisfying assignments ascending) does: bits 0 up to the top set
        # bit, 0 and 1 swapped, compared as text (a prefix first, a set bit before a clear one).
        return (self.atoms, bin(self.table)[:1:-1].translate(_SWAP_BITS) if self.table else "")

    def describe(self) -> str:
        """Readable rendering (display only; the DSL has its own renderer)."""
        if not self.atoms:
            return "true" if self.table else "false"
        terms = self.minterms()
        if len(terms) == 1:
            return terms[0]
        return " | ".join(f"({m})" for m in terms)

    def __str__(self) -> str:
        return self.describe()


def _atom_tables(n: int) -> tuple[int, list[int]]:
    """The full mask over the 2^n assignments of n atoms, and each atom's
    table: 2^i clear bits and 2^i set ones for atom i, doubled until it fills
    the space, so the cost is linear in the n * 2^n bits returned."""
    size = 1 << n
    tables = []
    for i in range(n):
        t, width = ((1 << (1 << i)) - 1) << (1 << i), 2 << i  # one period
        while width < size:
            t |= t << width
            width <<= 1
        tables.append(t)
    return (1 << size) - 1, tables


TAUTOLOGY = CanonicalProperty((), 1)
CONTRADICTION = CanonicalProperty((), 0)


# ---------------------------------------------------------------------------
# Property expression trees (the DSL's parse trees)
# ---------------------------------------------------------------------------


class PropAtom(_Value):
    _fields = ("name",)

    def __init__(self, name: str):
        _setfield(self, "name", name)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.name == other.name
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.name,))


class PropNot(_Value):
    _fields = ("arg",)

    def __init__(self, arg: "PropExpr"):
        _setfield(self, "arg", arg)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.arg == other.arg
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.arg,))


class PropAnd(_Value):
    _fields = ("left", "right")

    def __init__(self, left: "PropExpr", right: "PropExpr"):
        _setfield(self, "left", left)
        _setfield(self, "right", right)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.left == other.left and self.right == other.right
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.left, self.right))


PropExpr = Union[PropAtom, PropNot, PropAnd]


_TOO_DEEP = "expression nested too deeply"


def canonicalize_property(expr: PropExpr) -> CanonicalProperty:
    """Canonicalize a !/& formula to its reduced truth table.

    The atoms are not checked against any declaration: :class:`KBBuilder`
    does that.  A tree too deep for the interpreter's stack raises ValidationError."""
    mentioned: set[str] = set()

    def collect(e: PropExpr):
        if isinstance(e, PropAtom):
            mentioned.add(e.name)
        elif isinstance(e, PropNot):
            collect(e.arg)
        elif isinstance(e, PropAnd):
            collect(e.left)
            collect(e.right)
        else:
            raise ValidationError(f"not a property expression: {type(e).__name__}")

    def table(e: PropExpr, tables: Mapping[str, int], full: int) -> int:
        if isinstance(e, PropAtom):
            return tables[e.name]
        if isinstance(e, PropNot):
            return table(e.arg, tables, full) ^ full
        return table(e.left, tables, full) & table(e.right, tables, full)

    try:
        collect(expr)
        # Drop the atoms the table does not depend on, those whose two halves of
        # the table are equal; then rebuild it over the rest, the dropped atoms' tables 0.
        atoms = tuple(sorted(mentioned))
        full, per_atom = _atom_tables(len(atoms))
        t = table(expr, dict(zip(atoms, per_atom)), full)
        keep = tuple(a for i, (a, at) in enumerate(zip(atoms, per_atom))
                     if (t & at) >> (1 << i) != t & ~at)
        if keep != atoms:
            full, per_atom = _atom_tables(len(keep))
            t = table(expr, dict.fromkeys(atoms, 0) | dict(zip(keep, per_atom)), full)
        return CanonicalProperty(keep, t)
    except RecursionError:
        raise ValidationError(_TOO_DEEP) from None


# ---------------------------------------------------------------------------
# Intervals
# ---------------------------------------------------------------------------


class Interval(_Value):
    """A closed subinterval of [0, 1] with exact rational endpoints."""

    _fields = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        if type(lo) is not Fraction or type(hi) is not Fraction:
            for x in (lo, hi):
                if isinstance(x, float):  # 0.1 is not 1/10
                    raise ValidationError(f"inexact endpoint {x!r}: use a Fraction or a decimal string")
            lo, hi = Fraction(lo), Fraction(hi)
        if not (0 <= lo <= hi <= 1):
            raise ValidationError(f"malformed interval [{lo}, {hi}]")
        _setfield(self, "lo", lo)
        _setfield(self, "hi", hi)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.lo == other.lo and self.hi == other.hi
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    @classmethod
    def point(cls, x) -> "Interval":
        return cls(x, x)

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def includes(self, other: "Interval") -> bool:
        """True iff `other` is a subinterval of self."""
        return self.lo <= other.lo and other.hi <= self.hi

    def reflect(self) -> "Interval":
        return Interval(1 - self.hi, 1 - self.lo)

    def __str__(self) -> str:
        if self.is_point:
            return str(self.lo)
        return f"[{self.lo}, {self.hi}]"


UNIT = Interval(Fraction(0), Fraction(1))
CERTAIN = Interval(Fraction(1), Fraction(1))
IMPOSSIBLE = Interval(Fraction(0), Fraction(0))


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Stat(_Value):
    _fields = ("cls", "prop", "interval")

    def __init__(self, cls: CanonicalClass, prop: CanonicalProperty, interval: Interval):
        _setfield(self, "cls", cls)
        _setfield(self, "prop", prop)
        _setfield(self, "interval", interval)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.cls == other.cls and self.prop == other.prop
                    and self.interval == other.interval)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.cls, self.prop, self.interval))


class Member(_Value):
    _fields = ("individual", "cls")

    def __init__(self, individual: str, cls: CanonicalClass):
        _setfield(self, "individual", individual)
        _setfield(self, "cls", cls)


class Subset(_Value):
    _fields = ("sub", "sup")

    def __init__(self, sub: CanonicalClass, sup: CanonicalClass):
        if sub == sup:
            raise ValidationError(f"subset statement with identical classes: {sub}")
        _setfield(self, "sub", sub)
        _setfield(self, "sup", sup)


class SentenceForm(_Value):
    _fields = ("sentence", "prop", "individual")

    def __init__(self, sentence: str, prop: CanonicalProperty, individual: str):
        _setfield(self, "sentence", sentence)
        _setfield(self, "prop", prop)
        _setfield(self, "individual", individual)


class SentenceEquiv(_Value):
    _fields = ("s1", "s2")

    def __init__(self, s1: str, s2: str):
        _setfield(self, "s1", s1)
        _setfield(self, "s2", s2)


Statement = Union[Stat, Member, Subset, SentenceForm, SentenceEquiv]


# ---------------------------------------------------------------------------
# Builder
# ---------------------------------------------------------------------------


class KBBuilder:
    """Mutable accumulator for declarations and statements.

    Single-writer; call :meth:`close` to obtain the immutable, deductively
    closed knowledge base.
    """

    def __init__(self):
        self.class_atoms: set[str] = set()
        self.property_atoms: set[str] = set()
        self.individuals: set[str] = set()
        self.sentence_forms: dict[str, tuple[CanonicalProperty, str]] = {}
        self._stats: dict[tuple, Stat] = {}
        self._members: dict[tuple, Member] = {}
        self._subsets: dict[tuple, Subset] = {}
        self._equivs: dict[tuple, SentenceEquiv] = {}
        # anonymous-query sentences keyed by canonical form (used by the DSL)
        self.query_sentences: dict[tuple[CanonicalProperty, str], str] = {}

    # -- declarations -------------------------------------------------

    def declare_class(self, name: str) -> None:
        if name == UNIVERSAL_NAME:  # a valid identifier, so this is the first check it fails
            raise DeclarationError(f"class name {UNIVERSAL_NAME!r} is reserved")
        self._declare("class", name, self.class_atoms)

    def declare_property(self, name: str) -> None:
        self._declare("property", name, self.property_atoms)

    def declare_individual(self, name: str) -> None:
        self._declare("individual", name, self.individuals)

    @staticmethod
    def _declare(kind: str, name: str, declared: set[str]) -> None:
        _check_identifier(name)
        if name in declared:
            raise DeclarationError(f"duplicate {kind} declaration: {name}")
        declared.add(name)

    def declare_sentence(self, label: str, prop: CanonicalProperty, individual: str) -> None:
        """Declare `label <-> prop(individual)`.

        Re-declaring the same form is idempotent; a different form for an
        existing label is rejected (state the equivalence explicitly
        instead).
        """
        _check_identifier(label)
        self._require_property(prop)
        _check_declared("individual", individual, self.individuals)
        existing = self.sentence_forms.get(label)
        if existing is not None:
            if existing != (prop, individual):
                raise ValidationError(
                    f"sentence {label} already has a different canonical form; "
                    f"use an equivalence statement instead"
                )
            return
        self.sentence_forms[label] = (prop, individual)

    # -- statements ---------------------------------------------------

    def assert_stat(self, cls: CanonicalClass, prop: CanonicalProperty,
                    interval: Interval) -> None:
        self._require_class(cls)
        self._require_property(prop)
        key = cls.sort_key(), prop.sort_key(), interval.lo, interval.hi
        self._stats[key] = Stat(cls, prop, interval)

    def assert_member(self, individual: str, cls: CanonicalClass) -> None:
        _check_declared("individual", individual, self.individuals)
        self._require_class(cls)
        self._members[(individual, cls.sort_key())] = Member(individual, cls)

    def assert_subset(self, sub: CanonicalClass, sup: CanonicalClass) -> None:
        self._require_class(sub)
        self._require_class(sup)
        self._subsets[(sub.sort_key(), sup.sort_key())] = Subset(sub, sup)

    def assert_equiv(self, s1: str, s2: str) -> None:
        for label in (s1, s2):
            _check_declared("sentence", label, self.sentence_forms)
        key = tuple(sorted((s1, s2)))
        self._equivs[key] = SentenceEquiv(*key)

    def assert_statement(self, s: Statement) -> None:
        if isinstance(s, Stat):
            self.assert_stat(s.cls, s.prop, s.interval)
        elif isinstance(s, Member):
            self.assert_member(s.individual, s.cls)
        elif isinstance(s, Subset):
            self.assert_subset(s.sub, s.sup)
        elif isinstance(s, SentenceForm):
            self.declare_sentence(s.sentence, s.prop, s.individual)
        elif isinstance(s, SentenceEquiv):
            self.assert_equiv(s.s1, s.s2)
        else:
            raise ValidationError(f"unknown statement: {s!r}")

    def _require_class(self, cls: CanonicalClass) -> None:
        if cls.is_universal:
            raise ValidationError("the universal class cannot appear in assertions")
        for atom in cls.atoms:
            _check_declared("class", atom, self.class_atoms)

    def _require_property(self, prop: CanonicalProperty) -> None:
        for atom in prop.atoms:
            _check_declared("property", atom, self.property_atoms)

    # -- views used by close() and the DSL renderer --------------------
    # Each lists its statements in canonical order, the order of
    # ClosedKB.statements and of `render`, whatever order they were asserted
    # in: the statement dicts are keyed by the canonical sort keys, and
    # sentence forms are listed by label.

    @property
    def stats(self) -> list[Stat]:
        return [self._stats[k] for k in sorted(self._stats)]

    @property
    def members(self) -> list[Member]:
        return [self._members[k] for k in sorted(self._members)]

    @property
    def subsets(self) -> list[Subset]:
        return [self._subsets[k] for k in sorted(self._subsets)]

    @property
    def forms(self) -> list[SentenceForm]:
        return [SentenceForm(s, *self.sentence_forms[s]) for s in sorted(self.sentence_forms)]

    @property
    def equivs(self) -> list[SentenceEquiv]:
        return [self._equivs[k] for k in sorted(self._equivs)]

    def close(self) -> "ClosedKB":
        return close(self)


# The DSL's reserved words, which no declared name may be.
KEYWORDS = frozenset({
    "class", "property", "individual", "sentence", "iff",
    "stat", "member", "in", "subset", "equiv",
})

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _check_identifier(name: str) -> None:
    """A declared name is one the DSL reads back as a name."""
    if not name or _IDENTIFIER.fullmatch(name) is None:
        raise DeclarationError(f"invalid identifier: {name!r}")
    if name in KEYWORDS:
        raise DeclarationError(f"identifier {name!r} is a keyword")


# ---------------------------------------------------------------------------
# Closed knowledge base
# ---------------------------------------------------------------------------


# property -> atom tuple -> (class, fused interval, lo rank, hi rank)
StatIndex = dict[CanonicalProperty, dict[tuple[str, ...], tuple[CanonicalClass, Interval, int, int]]]


class SubsetIndex(_Value):
    """Known inclusion through asserted subsets, as bitsets over the distinct
    asserted superclasses in canonical order (bit k is ``superclasses[k]``).

    ``edges`` maps each asserted subclass's atoms to its ``Subset``
    statements in canonical order; ``reach`` maps the same atoms to the
    superclasses those edges lead to, directly or along chains;
    ``with_atom`` maps a class atom to the superclasses that have it.
    """

    _fields = ("superclasses", "edges", "reach", "with_atom")

    def __init__(self, superclasses: tuple[CanonicalClass, ...],
                 edges: dict[tuple[str, ...], list[Subset]],
                 reach: dict[tuple[str, ...], int], with_atom: dict[str, int]):
        _setfield(self, "superclasses", superclasses)
        _setfield(self, "edges", edges)
        _setfield(self, "reach", reach)
        _setfield(self, "with_atom", with_atom)
        _setfield(self, "_below", {})  # the caches of below() and above(), not fields
        _setfield(self, "_above", {})

    def below(self, atoms: tuple[str, ...]) -> int:
        """The superclasses the class of `atoms` reaches, cached."""
        got = self._below.get(atoms)
        if got is None:
            got = self._below[atoms] = reduce(or_, _classes_within(atoms, self.reach), 0)
        return got

    def above(self, atoms: tuple[str, ...]) -> int:
        """The superclasses within the class of `atoms`, having all its atoms, cached."""
        got = self._above.get(atoms)
        if got is None:
            got = self._above[atoms] = reduce(and_, [self.with_atom.get(a, 0) for a in atoms],
                                              (1 << len(self.superclasses)) - 1)
        return got


class Profile(_Value):
    """A membership profile: the sorted atoms of an individual's asserted
    membership classes, its generators, and their union, its most specific
    known class (U if none).  A class is a known membership iff its atoms
    are the union of the generators inside it: :meth:`covers` tests that in
    O(k) for k generators, and :attr:`classes` lists all 2^k on first ask."""

    _fields = ("generators", "top")

    def __init__(self, generators: tuple[tuple[str, ...], ...], top: CanonicalClass):
        _setfield(self, "generators", generators)
        _setfield(self, "top", top)

    def covers(self, atoms: Iterable[str]) -> bool:
        """True iff the class of `atoms` is a known membership."""
        have = frozenset(atoms)
        return frozenset().union(*[g for g in self.generators if have.issuperset(g)]) == have

    @cached_property
    def classes(self) -> tuple[CanonicalClass, ...]:
        """The known memberships in table order: most atoms first, then by atoms, U last."""
        ordered = sorted(tuple(sorted(atoms)) for atoms in _union_closure(self.generators))
        ordered.sort(key=len, reverse=True)  # stable: by atoms within a size
        return tuple(map(CanonicalClass._from_sorted, ordered))


class ClosedKB(_Value):
    """The knowledge base after deductive closure.  Immutable.

    Memberships are kept implicit: ``profiles`` maps each individual to its
    :class:`Profile`, one object per distinct generator tuple, shared by the
    individuals that have it.

    ``statements`` records every asserted statement once, in the canonical
    order of the builder's views: stats, members, subsets, sentence forms,
    equivalences.  Its ``Subset`` statements are the asserted subsets.

    ``stat_index`` maps each property to the classes whose fused interval
    for it is narrower than [0, 1] (atom tuple -> (class, interval, lo rank,
    hi rank)).  No other class can delete a row, be deleted or win
    resolution, so queries read only these.  The ranks order all the index's
    endpoints exactly, equal values sharing a rank.  It is built on the
    first query, since the model finder, `check` and `dump` never read it.

    ``subset_index`` holds the asserted superclasses reachable from each
    asserted subclass by asserted hops joined by atom-superset steps, as
    bitsets (see :class:`SubsetIndex`).  Known inclusion is the composition
    of the two, so this is all :meth:`subset_known` needs.

    ``sentence_groups`` and ``sentence_forms`` map each sentence label to
    its equivalence class and to the class's sorted (property, individual)
    forms; all labels of a class share one object of each.

    ``memberships``, ``universe``, ``subset_pairs`` and
    ``subset_cycle_classes`` are views computed on first access too.  The
    cache ``_judged`` fills as it is asked: each query table judged by the
    inference module, per (profile generators, property, point mode).
    """

    _fields = ("class_atoms", "property_atoms", "individuals", "statements", "profiles",
               "subset_index", "sentence_groups", "sentence_forms", "stats")

    def __init__(self, class_atoms: frozenset[str], property_atoms: frozenset[str],
                 individuals: frozenset[str], statements: tuple[Statement, ...],
                 profiles: Mapping[str, Profile], subset_index: SubsetIndex,
                 sentence_groups: Mapping[str, frozenset[str]],
                 sentence_forms: Mapping[str, tuple[tuple[CanonicalProperty, str], ...]],
                 stats: Mapping[tuple[tuple[str, ...], CanonicalProperty], Interval]):
        _setfield(self, "class_atoms", class_atoms)
        _setfield(self, "property_atoms", property_atoms)
        _setfield(self, "individuals", individuals)
        _setfield(self, "statements", statements)
        _setfield(self, "profiles", profiles)
        _setfield(self, "subset_index", subset_index)
        _setfield(self, "sentence_groups", sentence_groups)
        _setfield(self, "sentence_forms", sentence_forms)
        _setfield(self, "stats", stats)

    def __hash__(self) -> int:  # the mappings are left out
        return hash((self.class_atoms, self.property_atoms, self.individuals, self.statements))

    def table_classes(self, individual: str) -> tuple[CanonicalClass, ...]:
        """The individual's known memberships in table order: :attr:`Profile.classes`."""
        _check_declared("individual", individual, self.individuals)
        return self.profiles[individual].classes

    def _per_profile(self, view: Callable[[Profile], T]) -> dict[str, T]:
        """Each individual's `view` of its profile, computed once per distinct profile."""
        distinct = {p.generators: p for p in self.profiles.values()}
        views = {gens: view(p) for gens, p in distinct.items()}
        return {ind: views[p.generators] for ind, p in self.profiles.items()}

    @cached_property
    def _judged(self) -> dict:
        return {}

    @cached_property
    def memberships(self) -> Mapping[str, frozenset[CanonicalClass]]:
        """Every individual's known memberships, one frozenset per profile."""
        return self._per_profile(lambda profile: frozenset(profile.classes))

    @cached_property
    def stat_index(self) -> StatIndex:
        """Per property, the classes with a fused interval narrower than [0, 1]."""
        narrow = [(key, iv) for key, iv in self.stats.items() if iv.lo != 0 or iv.hi != 1]
        index: StatIndex = {}
        for ((atoms, p), iv), (lo, hi) in zip(narrow, _endpoint_ranks([iv for _, iv in narrow])):
            index.setdefault(p, {})[atoms] = (CanonicalClass._from_sorted(atoms), iv, lo, hi)
        return index

    @cached_property
    def universe(self) -> frozenset[CanonicalClass]:
        """The mentioned classes: U, every known membership, and the classes
        of stats and asserted subsets."""
        classes = {UNIVERSAL}
        for profile in {p.generators: p for p in self.profiles.values()}.values():
            classes.update(profile.classes)
        for s in self.statements:
            if isinstance(s, Stat):
                classes.add(s.cls)
            elif isinstance(s, Subset):
                classes.update((s.sub, s.sup))
        return frozenset(classes)

    @cached_property
    def subset_cycle_classes(self) -> frozenset[CanonicalClass]:
        """The classes of the universe on a subset cycle: those that reach a
        superclass within them.  The universe is read only if some asserted
        subclass does."""
        index = self.subset_index
        if not any(index.below(sub) & index.above(sub) for sub in index.reach):
            return frozenset()
        return frozenset(c for c in self.universe if index.below(c.atoms) & index.above(c.atoms))

    def subset_known(self, c1: CanonicalClass, c2: CanonicalClass) -> bool:
        """True iff `c1` is a known proper subclass of `c2`.

        Either c1's atoms strictly include c2's, or c1 reaches an asserted
        superclass that includes c2: the bitsets of the superclasses below
        c1 and above c2 meet.  Exact for any two classes, inside the
        mentioned universe or not.
        """
        if c1 == c2:
            return False
        if set(c1.atoms).issuperset(c2.atoms):
            return True
        index = self.subset_index
        return bool(index.below(c1.atoms) & index.above(c2.atoms))

    @cached_property
    def subset_pairs(self) -> frozenset[tuple[CanonicalClass, CanonicalClass]]:
        """Every known proper inclusion between classes of the universe.

        Computed on first access: only the closure dump reads it.
        """
        index = self.subset_index
        universe = {c.atoms: c for c in self.universe}
        within_sup = [_classes_within(sup.atoms, universe) for sup in index.superclasses]
        pairs: set[tuple[CanonicalClass, CanonicalClass]] = set()
        for c in self.universe:
            supers = set(_classes_within(c.atoms, universe))
            for k in _bits(index.below(c.atoms)):
                supers.update(within_sup[k])
            supers.discard(c)
            pairs.update((c, d) for d in supers)
        return frozenset(pairs)

    def effective_interval(self, cls: CanonicalClass, prop: CanonicalProperty) -> Interval:
        """The fused interval, or the property's prior if no statistic fuses one."""
        got = self.stats.get((cls.atoms, prop))
        return _prior(prop) if got is None else got


def _prior(prop: CanonicalProperty) -> Interval:
    """A property's interval before any statistic: 1, 0 or [0, 1]."""
    return CERTAIN if prop.is_tautology else IMPOSSIBLE if prop.is_contradiction else UNIT


def _endpoint_ranks(intervals: list[Interval]) -> list[tuple[int, int]]:
    """Each interval's (lo, hi) ranks among all the intervals' endpoints.
    Equal values share a rank, so the ranks order the endpoints exactly;
    they are sorted as integers over the endpoints' common denominator."""
    common = math.lcm(*[x.denominator for iv in intervals for x in (iv.lo, iv.hi)])
    scaled = [(iv.lo.numerator * (common // iv.lo.denominator),
               iv.hi.numerator * (common // iv.hi.denominator)) for iv in intervals]
    rank = {v: r for r, v in enumerate(sorted({v for pair in scaled for v in pair}))}
    return [(rank[lo], rank[hi]) for lo, hi in scaled]


def _union_closure(generators: Iterable[tuple[str, ...]]) -> set[frozenset[str]]:
    """The empty set (U) and every union of one or more generators."""
    closed = {frozenset()}
    for g in generators:
        closed |= {c.union(g) for c in closed}
    return closed


def _classes_within(atoms: tuple[str, ...], keyed: Mapping[tuple[str, ...], T]) -> list[T]:
    """The values of `keyed` whose atom keys are a subset of `atoms`.  Looking
    subsets up needs sorted atom tuples: every caller passes canonical ones."""
    if 1 << len(atoms) <= len(keyed):
        return [keyed[sub] for k in range(len(atoms) + 1)
                for sub in itertools.combinations(atoms, k) if sub in keyed]
    have = set(atoms)
    return [c for sub, c in keyed.items() if have.issuperset(sub)]


def _bits(mask: int) -> list[int]:
    """The set bits of `mask`, ascending, in one pass."""
    return [k for k, b in enumerate(reversed(bin(mask))) if b == "1"]


def _subset_index(subsets: list[Subset]) -> SubsetIndex:
    """Each asserted subclass's reach: the graph between superclasses has an
    edge where an asserted subclass lies within a superclass, and each of its
    strongly connected components is closed once, after those it reaches (an
    iterative Tarjan, 1972; Nuutila 1995)."""
    sups = sorted({s.sup for s in subsets}, key=CanonicalClass.sort_key)
    bit = {c: k for k, c in enumerate(sups)}
    index = SubsetIndex(tuple(sups), {}, {}, {})
    for s in subsets:
        index.edges.setdefault(s.sub.atoms, []).append(s)
    for k, c in enumerate(sups):
        for a in c.atoms:
            index.with_atom[a] = index.with_atom.get(a, 0) | 1 << k
    succ = [[bit[s.sup] for group in _classes_within(c.atoms, index.edges) for s in group]
            for c in sups]
    n = len(sups)
    order, low, reach, stack, visits = [0] * n, [0] * n, [0] * n, [], 0
    for root in range(n):
        work = [] if order[root] else [(root, iter(succ[root]))]
        while work:
            v, edges = work[-1]
            if not order[v]:
                visits += 1
                order[v] = low[v] = visits
                stack.append(v)
            for w in edges:
                if not order[w]:
                    work.append((w, iter(succ[w])))
                    break
                if not reach[w]:  # on the stack: its component is open
                    low[v] = min(low[v], order[w])
            else:
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[v])
                if low[v] == order[v]:  # v roots a component: close it
                    component = [stack.pop()]
                    while component[-1] != v:
                        component.append(stack.pop())
                    bits = reduce(or_, [reach[w] for u in component for w in succ[u]],
                                  sum(1 << u for u in component))
                    for u in component:
                        reach[u] = bits
    for sub, group in index.edges.items():
        index.reach[sub] = reduce(or_, [reach[bit[s.sup]] for s in group])
    return index


def close(builder: KBBuilder) -> ClosedKB:
    """Compute the deductive closure of the builder's contents.

    Memberships are kept as shared profiles (the closure under
    intersection is implicit, see :class:`Profile`), asserted subset edges are
    closed into their reach (structural inclusions are read off atom sets
    when asked), sentence labels are partitioned by their equivalence
    links, and statistical intervals are fused: a pair's prior, narrowed by
    its direct bounds and its complement's reflected ones.  The first empty
    pair in canonical order raises InconsistencyError.
    """
    # memberships: one profile per distinct sorted generator tuple, () if none
    shared = {(): Profile((), UNIVERSAL)}
    profiles = dict.fromkeys(builder.individuals, shared[()])
    members = builder.members  # grouped by individual
    for ind, group in itertools.groupby(members, key=attrgetter("individual")):
        gens = tuple(sorted(m.cls.atoms for m in group))
        if gens not in shared:
            top = CanonicalClass._from_sorted(tuple(sorted(frozenset().union(*gens))))
            shared[gens] = Profile(gens, top)
        profiles[ind] = shared[gens]

    # subset relation: the reach of asserted edges
    subsets = builder.subsets
    subset_index = _subset_index(subsets)

    # sentence partition (union-find over equivalence links)
    parent: dict[str, str] = {s: s for s in builder.sentence_forms}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    equivs = builder.equivs
    for eq in equivs:
        ra, rb = find(eq.s1), find(eq.s2)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    # one label set and one sorted forms tuple per class, shared by its labels
    classes: dict[str, list[str]] = {}
    for s in builder.sentence_forms:
        classes.setdefault(find(s), []).append(s)
    sentence_groups: dict[str, frozenset[str]] = {}
    sentence_forms: dict[str, tuple[tuple[CanonicalProperty, str], ...]] = {}
    for labels in classes.values():
        group = frozenset(labels)
        forms = tuple(sorted({builder.sentence_forms[s] for s in labels},
                             key=lambda f: (f[0].sort_key(), f[1])))
        for s in labels:
            sentence_groups[s], sentence_forms[s] = group, forms

    # fused statistics: the prior, narrowed by direct and reflected complement bounds
    stats = builder.stats
    by_key: dict[tuple[tuple[str, ...], CanonicalProperty], list[Interval]] = {}
    for s in stats:
        by_key.setdefault((s.cls.atoms, s.prop), []).append(s.interval)
    fused: dict[tuple[tuple[str, ...], CanonicalProperty], Interval] = {}
    keys = set(by_key)
    keys |= {(atoms, p.negate()) for (atoms, p) in by_key}
    for atoms, p in sorted(keys, key=lambda k: (k[0], k[1].sort_key())):
        prior = _prior(p)
        lo, hi = prior.lo, prior.hi
        for iv in by_key.get((atoms, p), ()):
            lo, hi = max(lo, iv.lo), min(hi, iv.hi)
        for iv in by_key.get((atoms, p.negate()), ()):
            lo, hi = max(lo, 1 - iv.hi), min(hi, 1 - iv.lo)
        if lo > hi:
            raise InconsistencyError(CanonicalClass(atoms), p)
        fused[(atoms, p)] = Interval(lo, hi)

    return ClosedKB(
        class_atoms=frozenset(builder.class_atoms),
        property_atoms=frozenset(builder.property_atoms),
        individuals=frozenset(builder.individuals),
        statements=(*stats, *members, *subsets, *builder.forms, *equivs),
        profiles=profiles,
        subset_index=subset_index,
        sentence_groups=sentence_groups,
        sentence_forms=sentence_forms,
        stats=fused,
    )
