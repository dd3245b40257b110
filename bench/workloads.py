"""Seeded input generators for the three benchmark workloads.

Each generator returns a :class:`Workload`: the knowledge bases as
:class:`KBRecord` objects (the generator's own record of every statement it
writes, which the reference evaluator reads instead of the engine's output),
one round of library operations, and the script of CLI calls.

The shape of every workload (how many individuals, which ones have one or two
memberships, which KBs have a planted model) is fixed; the seed only chooses
names, values and which atom gets which statistic.  So every seed costs about
the same, and latency percentiles land in the same kind of operation.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from reference import cls_text, model_holds

# A literal is (property atom, positive); a class is a frozenset of atoms
# (the empty set is the universal class U).


@dataclass
class KBRecord:
    atoms: list[str]
    props: list[str]
    individuals: list[str]
    members: list[tuple[str, frozenset]] = field(default_factory=list)
    stats: list[tuple[frozenset, tuple[str, bool], Fraction, Fraction]] = field(default_factory=list)
    subsets: list[tuple[frozenset, frozenset]] = field(default_factory=list)
    sentences: dict[str, tuple[tuple[str, bool], str]] = field(default_factory=dict)
    planted: Optional[dict] = None   # model-search: a population that satisfies the KB

    def text(self) -> str:
        """The `.rck` document for exactly the statements recorded."""
        out = [f"class {a}" for a in self.atoms]
        out += [f"property {p}" for p in self.props]
        out += [f"individual {i}" for i in self.individuals]
        for label, (lit, ind) in self.sentences.items():
            out.append(f"sentence {label} iff {lit_text(lit)}({ind})")
        for cls, lit, lo, hi in self.stats:
            where = f"= {dec(lo)}" if lo == hi else f"in [{dec(lo)}, {dec(hi)}]"
            out.append(f"stat %({cls_text(cls)}, {lit_text(lit)}) {where}")
        for ind, cls in self.members:
            out.append(f"member {ind} in {cls_text(cls)}")
        for sub, sup in self.subsets:
            out.append(f"subset {cls_text(sub)} < {cls_text(sup)}")
        return "\n".join(out) + "\n"


@dataclass(frozen=True)
class Op:
    kind: str   # "interval" | "point" | "explain" | "model"
    kb: str     # file name of the KB
    arg: object  # sentence label, or n_max for "model"


@dataclass(frozen=True)
class CliCall:
    kind: str        # "eval" | "dump" | "check"
    kb: str
    query: Optional[str] = None   # eval: sentence label or inline form
    mode: str = "interval"
    trace: bool = False
    json: bool = True
    model: Optional[int] = None   # check: --model N

    def argv(self, path: str) -> list[str]:
        if self.kind == "eval":
            argv = ["eval", path, "--query", self.query, "--mode", self.mode]
            if self.trace:
                argv.append("--trace")
        else:
            argv = [self.kind, path]
            if self.model is not None:
                argv += ["--model", str(self.model)]
        if self.json:
            argv.append("--json")
        return argv


@dataclass
class Workload:
    kbs: dict[str, KBRecord]
    ops: list[Op]
    cli: list[CliCall]


def dec(x: Fraction) -> str:
    """Exact decimal text for a value on the 1/100 grid."""
    n = x * 100
    if n.denominator != 1 or not 0 <= n <= 100:
        raise ValueError(f"{x} is not on the 1/100 grid in [0, 1]")
    n = int(n)
    return f"{n // 100}.{n % 100:02d}"


def lit_text(lit: tuple[str, bool]) -> str:
    return lit[0] if lit[1] else f"!{lit[0]}"


def _pct(rng: random.Random, lo: int, hi: int) -> Fraction:
    return Fraction(rng.randint(lo, hi), 100)


def _interval_around(rng: random.Random, v: Fraction) -> tuple[Fraction, Fraction]:
    """A non-point interval on the 1/100 grid that contains v."""
    lo = max(Fraction(0), v - _pct(rng, 1, 20))
    hi = min(Fraction(1), v + _pct(rng, 1, 20))
    lo = Fraction(int(lo * 100), 100)
    hi = Fraction(-int(-hi * 100), 100)
    return lo, hi


# ---------------------------------------------------------------------------
# wide-universe: a few dozen individuals, six memberships each out of 60 atoms
# ---------------------------------------------------------------------------

WIDE_ATOMS = 60
WIDE_PER_INDIVIDUAL = 6
WIDE_INDIVIDUALS = 26
WIDE_CHAIN = 10
# The structure (which atom carries which kind of statistic, which pairs
# carry one, the asserted chain) comes from this fixed seed; the workload
# seed chooses the values.  Values are drawn without replacement from three
# disjoint bands, with equal widths within a band, so any two classes with a
# statistic differ whatever the seed, and every seed deletes the same rows.
WIDE_STRUCTURE_SEED = 0


def wide_universe(seed: int) -> Workload:
    shape, rng = random.Random(WIDE_STRUCTURE_SEED), random.Random(seed)
    atoms = [f"c{k:02d}" for k in range(WIDE_ATOMS)]
    individuals = [f"i{j}" for j in range(WIDE_INDIVIDUALS)]
    rec = KBRecord(atoms=atoms, props=["p"], individuals=individuals)
    pos, neg = ("p", True), ("p", False)
    for j, ind in enumerate(individuals):
        rec.sentences[f"S{j}"] = (pos, ind)
        rec.sentences[f"N{j}"] = (neg, ind)
        for t in range(WIDE_PER_INDIVIDUAL):
            rec.members.append((ind, frozenset([atoms[(j + 7 * t) % WIDE_ATOMS]])))

    # 24 point stats in [0.05, 0.35], 21 interval stats of width 0.08 in
    # [0.61, 0.95], 15 atoms without a stat; every sixth stat-bearing atom
    # also carries a stat on !p that contains the reflection of its p stat.
    order = atoms[:]
    shape.shuffle(order)
    points = [Fraction(v, 100) for v in rng.sample(range(5, 36), 24)]
    lows = [Fraction(v, 100) for v in rng.sample(range(61, 88), 21)]
    for k, a in enumerate(order[:45]):
        lo, hi = (points[k], points[k]) if k < 24 else (lows[k - 24], lows[k - 24] + Fraction(8, 100))
        rec.stats.append((frozenset([a]), pos, lo, hi))
        if k % 6 == 0:
            rec.stats.append((frozenset([a]), neg, max(Fraction(0), 1 - hi - _pct(rng, 1, 10)),
                              min(Fraction(1), 1 - lo + _pct(rng, 1, 10))))

    # interval stats of width 0.03 in [0.36, 0.60] on ten two-atom
    # intersections that individuals lie in
    pairs = sorted({
        frozenset([atoms[(j + 7 * s) % WIDE_ATOMS], atoms[(j + 7 * t) % WIDE_ATOMS]])
        for j in range(WIDE_INDIVIDUALS)
        for s, t in itertools.combinations(range(WIDE_PER_INDIVIDUAL), 2)
    }, key=sorted)
    for cls, lo in zip(shape.sample(pairs, 10), rng.sample(range(36, 58), 10)):
        rec.stats.append((cls, pos, Fraction(lo, 100), Fraction(lo + 3, 100)))

    # an asserted chain c_a < c_b < ... over ten atoms
    chain = shape.sample(atoms, WIDE_CHAIN)
    for sub, sup in zip(chain, chain[1:]):
        rec.subsets.append((frozenset([sub]), frozenset([sup])))

    kb = "wide.rck"
    ops = []
    for j in range(WIDE_INDIVIDUALS):
        odd = j % 2
        ops += [Op("interval", kb, f"S{j}"), Op("interval", kb, f"N{j}"),
                Op("explain", kb, f"S{j}" if odd else f"N{j}"),
                Op("point", kb, f"N{j}" if odd else f"S{j}")]
    rng.shuffle(ops)
    q = rng.sample(range(WIDE_INDIVIDUALS), 2)
    cli = [
        CliCall("eval", kb, query=f"S{q[0]}", trace=True),
        CliCall("eval", kb, query=f"p(i{q[1]})", mode="point"),
        CliCall("dump", kb),
    ]
    return Workload({kb: rec}, ops, cli)


# ---------------------------------------------------------------------------
# census: thousands of individuals in one or two of a dozen atoms
# ---------------------------------------------------------------------------

CENSUS_ATOMS = 12
CENSUS_INDIVIDUALS = 2400


def census(seed: int) -> Workload:
    rng = random.Random(seed)
    atoms = [f"a{k:02d}" for k in range(CENSUS_ATOMS)]
    individuals = [f"i{j}" for j in range(CENSUS_INDIVIDUALS)]
    rec = KBRecord(atoms=atoms, props=["p"], individuals=individuals)
    pos, neg = ("p", True), ("p", False)
    pairs = [frozenset(pr) for pr in itertools.combinations(atoms, 2)]
    for j, ind in enumerate(individuals):
        rec.sentences[f"S{j}"] = (pos, ind)
        if j % 3 == 0:
            rec.sentences[f"N{j}"] = (neg, ind)
        shape = j % 6
        if shape < 2:        # one atom
            rec.members.append((ind, frozenset([rng.choice(atoms)])))
        elif shape < 4:      # two atoms, as one intersection statement
            rec.members.append((ind, rng.choice(pairs)))
        else:                # two atoms, as two statements
            x, y = sorted(rng.choice(pairs))
            rec.members.append((ind, frozenset([x])))
            rec.members.append((ind, frozenset([y])))

    # a point stat on every atom, a compatible !p interval on four of them,
    # interval stats on 20 of the 66 pairwise intersections
    for k, a in enumerate(atoms):
        v = _pct(rng, 5, 95)
        rec.stats.append((frozenset([a]), pos, v, v))
        if k % 3 == 0:
            lo, hi = _interval_around(rng, 1 - v)
            rec.stats.append((frozenset([a]), neg, lo, hi))
    for cls in rng.sample(pairs, 20):
        lo, hi = _interval_around(rng, _pct(rng, 10, 90))
        rec.stats.append((cls, pos, lo, hi))
    # twelve intersections asserted to lie inside a third atom
    for cls in rng.sample(pairs, 12):
        sup = rng.choice([a for a in atoms if a not in cls])
        rec.subsets.append((cls, frozenset([sup])))

    kb = "census.rck"
    ops = []
    for j in range(CENSUS_INDIVIDUALS):
        ops += [Op("interval", kb, f"S{j}"), Op("point", kb, f"S{j}")]
        if j % 3 == 0:
            ops.append(Op("interval", kb, f"N{j}"))
    rng.shuffle(ops)
    q = rng.sample(range(0, CENSUS_INDIVIDUALS, 3), 3)
    cli = [
        CliCall("dump", kb),
        CliCall("eval", kb, query=f"S{q[0]}"),
        CliCall("eval", kb, query=f"S{q[1]}", mode="point"),
        CliCall("eval", kb, query=f"N{q[2]}"),
        CliCall("check", kb, json=False),
    ]
    return Workload({kb: rec}, ops, cli)


# ---------------------------------------------------------------------------
# model-search: many small KBs, some with a planted model, some with none
# ---------------------------------------------------------------------------

# (class atoms, property atoms, individuals, bound, planted, copies); a
# planted KB's population has `bound` elements.  The planted shapes all cost
# less than the cheaper no-model shape; the median operation falls in the
# middle of that group, and the 90th percentile among the dearer no-model
# searches.
MODEL_SHAPES = [
    (2, 1, 1, 3, True, 14), (2, 1, 2, 3, True, 13),
    (3, 1, 1, 2, True, 14), (2, 2, 1, 2, True, 13),
    (2, 1, 1, 4, False, 22), (2, 1, 2, 5, False, 52),
]
# The CLI script's KBs: five with no model within the bound and two planted.
MODEL_CLI_SHAPES = [(3, 1, 1, 4, False)] * 5 + [(2, 1, 1, 4, True)] * 2
# Decimal values whose reduced denominator (10 or 20) exceeds every bound.
NO_MODEL_VALUES = [Fraction(n, 10) for n in (1, 3, 7, 9)] + [Fraction(n, 20) for n in (3, 7, 13, 17)]


def _model_kb(rng: random.Random, nc: int, np_: int, m: int, bound: int,
              planted: bool) -> KBRecord:
    atoms = [f"k{x}" for x in range(nc)]
    props = ["p", "q"][:np_]
    individuals = [f"x{x}" for x in range(m)]
    while True:
        rec = KBRecord(atoms=atoms, props=props, individuals=individuals)
        if planted:
            pop = [(frozenset(a for a in atoms if rng.random() < 0.5),
                    frozenset(p for p in props if rng.random() < 0.5))
                   for _ in range(bound)]
            for x, ind in enumerate(individuals):
                if not pop[x][0]:
                    break
                rec.members.append((ind, frozenset([rng.choice(sorted(pop[x][0]))])))
            else:
                for k, a in enumerate(atoms):
                    lit = (props[k % np_], True)
                    ext = [e for e in pop if a in e[0]]
                    if not ext:
                        break
                    r = Fraction(sum(lit[0] in e[1] for e in ext), len(ext))
                    if (r * 100).denominator == 1:
                        rec.stats.append((frozenset([a]), lit, r, r))
                    else:
                        rec.stats.append((frozenset([a]), lit,
                                          Fraction(int(r * 10), 10),
                                          Fraction(int(r * 10) + 1, 10)))
                else:
                    model = {
                        "size": bound,
                        "elements": [{"classes": sorted(c), "properties": sorted(p)}
                                     for c, p in pop],
                        "individuals": {ind: x for x, ind in enumerate(individuals)},
                    }
                    rec.planted = model
                    if model_holds(rec, model):
                        return rec
            continue
        for ind in individuals:
            rec.members.append((ind, frozenset([rng.choice(atoms)])))
        v = rng.choice(NO_MODEL_VALUES)
        rec.stats.append((frozenset([atoms[0]]), ("p", True), v, v))
        for k, a in enumerate(atoms[1:], start=1):
            lo, hi = _interval_around(rng, _pct(rng, 20, 80))
            rec.stats.append((frozenset([a]), (props[k % np_], True), lo, hi))
        return rec


def model_search(seed: int) -> Workload:
    rng = random.Random(seed)
    kbs: dict[str, KBRecord] = {}
    ops = []
    for s, (*shape, copies) in enumerate(MODEL_SHAPES):
        for c in range(copies):
            name = f"m{s}_{c:02d}.rck"
            kbs[name] = _model_kb(rng, *shape)
            ops.append(Op("model", name, shape[3]))
    rng.shuffle(ops)
    cli = []
    for s, shape in enumerate(MODEL_CLI_SHAPES):
        name = f"cli{s}.rck"
        kbs[name] = _model_kb(rng, *shape)
        cli.append(CliCall("check", name, model=shape[3]))
    return Workload(kbs, ops, cli)


WORKLOADS = {
    "wide-universe": wide_universe,
    "census": census,
    "model-search": model_search,
}
