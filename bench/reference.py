"""Reference evaluator, written from the paper's rule, for checking answers.

It reads the generator's record of what it wrote (never the engine's parse or
closure) and computes each answer directly:

- a known membership class of an individual is any union of the atom sets it
  was asserted to be in (intersection closure), plus the universal class U;
- a class's interval for a literal is every asserted interval on that
  literal, intersected with the reflection 1 - x of every asserted interval
  on its complement, and [0, 1] when nothing is asserted;
- c1 is a known subclass of c2 when c1 has more atoms than c2 and all of
  c2's, or when a path of asserted subset edges leads from c1 to c2, each
  hop starting from a class whose atoms the previous class contains;
- a row is deleted unless every row whose interval differs from it (neither
  includes the other) belongs to a known superclass;
- the answer is the narrowest surviving interval, the tie going to the most
  specific class.  In point mode only classes with a point-valued statistic
  are rows, and the answer can be undefined.

Models are checked by counting: every statistic must hold as a literal
proportion of the population.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

U = frozenset()
NO_MEMBERSHIP = "no-membership"
ALL_ROWS_DELETED = "all-rows-deleted"


@dataclass(frozen=True)
class Answer:
    defined: bool
    interval: Optional[tuple[Fraction, Fraction]] = None
    selected: frozenset = frozenset()   # every class the rule lets the answer name
    reason: Optional[str] = None
    rows: Optional[dict] = None         # class text -> (lo, hi, live)


def cls_text(cls: frozenset) -> str:
    return " & ".join(sorted(cls)) if cls else "U"


def cls_of(text: str) -> frozenset:
    return U if text == "U" else frozenset(text.split(" & "))


def differ(a: tuple[Fraction, Fraction], b: tuple[Fraction, Fraction]) -> bool:
    a_has_b = a[0] <= b[0] and b[1] <= a[1]
    b_has_a = b[0] <= a[0] and a[1] <= b[1]
    return not a_has_b and not b_has_a


class Reference:
    def __init__(self, rec):
        self.rec = rec
        asserted: dict[str, set] = {i: set() for i in rec.individuals}
        for ind, cls in rec.members:
            asserted[ind].add(cls)
        self.memberships = {i: _union_closure(cs) | {U} for i, cs in asserted.items()}
        self.universe = {U}
        for ms in self.memberships.values():
            self.universe |= ms
        self._direct: dict[tuple, list] = {}
        for cls, lit, lo, hi in rec.stats:
            self.universe.add(cls)
            self._direct.setdefault((cls, lit), []).append((lo, hi))
        for sub, sup in rec.subsets:
            self.universe |= {sub, sup}
        self._reached: dict[frozenset, list] = {}
        self._subset_texts: Optional[set] = None

    # -- statistics ---------------------------------------------------------

    def interval(self, cls: frozenset, lit: tuple[str, bool]) -> tuple[Fraction, Fraction]:
        lo, hi = Fraction(0), Fraction(1)
        for a, b in self._direct.get((cls, lit), ()):
            lo, hi = max(lo, a), min(hi, b)
        for a, b in self._direct.get((cls, (lit[0], not lit[1])), ()):
            lo, hi = max(lo, 1 - b), min(hi, 1 - a)
        if lo > hi:
            raise ValueError(f"generated KB has no value for %({cls_text(cls)}, {lit})")
        return lo, hi

    def has_stat(self, cls: frozenset, atom: str) -> bool:
        return (cls, (atom, True)) in self._direct or (cls, (atom, False)) in self._direct

    # -- subclass knowledge -------------------------------------------------

    def reached(self, cls: frozenset) -> list:
        """Superclasses of asserted edges reachable from `cls`."""
        got = self._reached.get(cls)
        if got is None:
            seen: set = set()
            frontier = [cls]
            while frontier:
                cur = frontier.pop()
                for sub, sup in self.rec.subsets:
                    if sub <= cur and sup not in seen:
                        seen.add(sup)
                        frontier.append(sup)
            got = self._reached[cls] = list(seen)
        return got

    def known_subclass(self, c1: frozenset, c2: frozenset) -> bool:
        if c1 == c2:
            return False
        return c2 < c1 or any(c2 <= r for r in self.reached(c1))

    # -- queries ------------------------------------------------------------

    def form(self, query: str) -> tuple[tuple[str, bool], str]:
        """A sentence label, or an inline form such as `p(i3)` / `!p(i3)`."""
        if query in self.rec.sentences:
            return self.rec.sentences[query]
        prop, ind = query.rstrip(")").split("(")
        return (prop.lstrip("!"), not prop.startswith("!")), ind

    def answer(self, query: str, mode: str) -> Answer:
        lit, ind = self.form(query)
        rows = {}
        for c in self.memberships[ind]:
            iv = self.interval(c, lit)
            if mode == "interval" or (self.has_stat(c, lit[0]) and iv[0] == iv[1]):
                rows[c] = iv
        live = {
            c: all(o == c or not differ(iv, rows[o]) or self.known_subclass(c, o)
                   for o in rows)
            for c, iv in rows.items()
        }
        table = {cls_text(c): (iv[0], iv[1], live[c]) for c, iv in rows.items()}
        if not rows:
            return Answer(False, reason=NO_MEMBERSHIP, rows=table)
        survivors = [c for c in rows if live[c]]
        if not survivors:
            return Answer(False, reason=ALL_ROWS_DELETED, rows=table)
        lo = max(rows[c][0] for c in survivors)
        hi = min(rows[c][1] for c in survivors if rows[c][0] == lo)
        narrowest = [c for c in survivors if rows[c] == (lo, hi)]
        most = max(len(c) for c in narrowest)
        return Answer(True, (lo, hi), frozenset(c for c in narrowest if len(c) == most),
                      rows=table)

    # -- closure as `refclass dump` reports it ------------------------------

    def subset_texts(self) -> set[str]:
        if self._subset_texts is None:
            universe = list(self.universe)
            self._subset_texts = {f"{cls_text(a)} < {cls_text(b)}" for a in universe
                                  for b in universe if self.known_subclass(a, b)}
        return self._subset_texts

    def stat_texts(self) -> dict[str, tuple[Fraction, Fraction]]:
        out = {}
        for cls, (atom, _) in self._direct:
            for lit in ((atom, True), (atom, False)):
                name = atom if lit[1] else f"!{atom}"
                out[f"%({cls_text(cls)}, {name})"] = self.interval(cls, lit)
        return out

    def warnings(self) -> int:
        """Individuals known to be in an asserted subclass but not its superclass."""
        return sum(1 for ms in self.memberships.values()
                   for sub, sup in self.rec.subsets if sub in ms and sup not in ms)


def _union_closure(classes: set) -> set:
    closed = set(classes)
    frontier = list(closed)
    while frontier:
        c = frontier.pop()
        for d in list(closed):
            u = c | d
            if u not in closed:
                closed.add(u)
                frontier.append(u)
    return closed


# ---------------------------------------------------------------------------
# Checking the engine's answers
# ---------------------------------------------------------------------------


def check_prob(res, ans: Answer) -> bool:
    """A library ProbResult against the reference answer."""
    if res.defined != ans.defined:
        return False
    if not ans.defined:
        return res.reason == ans.reason
    return ((res.interval.lo, res.interval.hi) == ans.interval
            and frozenset(res.selected.atoms) in ans.selected)


def check_result_dict(d: dict, ans: Answer) -> bool:
    """A `{"status", "interval", "reference_class" | "reason"}` payload."""
    if d.get("status") != ("defined" if ans.defined else "undefined"):
        return False
    if not ans.defined:
        return d.get("reason") == ans.reason
    lo, hi = d["interval"]
    return ((Fraction(lo), Fraction(hi)) == ans.interval
            and cls_of(d["reference_class"]) in ans.selected)


def check_trace_dict(d: dict, ans: Answer) -> bool:
    """An `explain(...).to_dict()` payload: the result and every row's fate."""
    if not check_result_dict(d["result"], ans) or len(d["forms"]) != 1:
        return False
    rows = {r["class"]: (Fraction(r["interval"][0]), Fraction(r["interval"][1]),
                         r["status"] == "live")
            for r in d["forms"][0]["rows"]}
    return rows == ans.rows and len(d["forms"][0]["rows"]) == len(rows)


def check_dump(d: dict, ref: Reference) -> bool:
    rec = ref.rec
    if (d["classes"] != sorted(rec.atoms) or d["properties"] != sorted(rec.props)
            or d["individuals"] != sorted(rec.individuals)):
        return False
    if {i: set(cs) for i, cs in d["memberships"].items()} != \
            {i: {cls_text(c) for c in ms} for i, ms in ref.memberships.items()}:
        return False
    stats = {k: (Fraction(v[0]), Fraction(v[1])) for k, v in d["stats"].items()}
    if stats != ref.stat_texts():
        return False
    for label, (lit, ind) in rec.sentences.items():
        name = lit[0] if lit[1] else f"!{lit[0]}"
        if d["sentences"].get(label) != {"group": [label], "forms": [f"{name}({ind})"]}:
            return False
    return len(d["subsets"]) == len(set(d["subsets"])) and set(d["subsets"]) == ref.subset_texts()


def model_holds(rec, model: dict) -> bool:
    """Does `model` (as `FiniteModel.to_dict()` prints it) satisfy `rec`?

    Every statistic is re-counted as a literal proportion; memberships and
    proper inclusions must hold extensionally; every mentioned class and
    every mentioned property has a non-empty, pairwise distinct extension.
    """
    elements = model["elements"]
    n = len(elements)
    if n == 0 or model["size"] != n:
        return False
    where = model["individuals"]
    if sorted(where) != sorted(rec.individuals) or len(set(where.values())) != len(where) \
            or not all(0 <= k < n for k in where.values()):
        return False
    classes = [set(e["classes"]) for e in elements]
    props = [set(e["properties"]) for e in elements]

    def ext(cls):
        return frozenset(k for k in range(n) if cls <= classes[k])

    def holds(lit, k):
        return (lit[0] in props[k]) == lit[1]

    mentioned = [c for c in Reference(rec).universe if c]
    exts = [ext(c) for c in mentioned]
    if not all(exts) or len(set(exts)) != len(exts):
        return False
    lits = {lit for _, lit, _, _ in rec.stats} | {lit for lit, _ in rec.sentences.values()}
    lit_exts = [frozenset(k for k in range(n) if holds(lit, k)) for lit in lits]
    if len(set(lit_exts)) != len(lit_exts):
        return False
    for ind, cls in rec.members:
        if not cls <= classes[where[ind]]:
            return False
    for cls, lit, lo, hi in rec.stats:
        members = ext(cls)
        ratio = Fraction(sum(holds(lit, k) for k in members), len(members))
        if not lo <= ratio <= hi:
            return False
    return all(ext(sub) < ext(sup) for sub, sup in rec.subsets)


def no_model_by_arithmetic(rec, n_max: int) -> bool:
    """Some point statistic needs a class of more than n_max elements."""
    return any(lo == hi and lo.denominator > n_max for _, _, lo, hi in rec.stats)


def check_model(rec, model: Optional[dict], n_max: int) -> bool:
    """A find_model verdict: a model no larger than the planted one, or none
    only where arithmetic rules every model within the bound out."""
    if model is None:
        return no_model_by_arithmetic(rec, n_max)
    if rec.planted is not None and model["size"] > rec.planted["size"]:
        return False
    return model["size"] <= n_max and model_holds(rec, model)


# ---------------------------------------------------------------------------
# Self-check against the answers README.md documents for kbs/*.rck
# ---------------------------------------------------------------------------


def self_check() -> None:
    from workloads import KBRecord

    half = Fraction(1, 2)
    coin = KBRecord(atoms=["tosses"], props=["heads"], individuals=["t14"],
                    members=[("t14", frozenset(["tosses"]))],
                    stats=[(frozenset(["tosses"]), ("heads", True), half, half)],
                    sentences={"S14": (("heads", True), "t14")})
    conflict = KBRecord(atoms=["r1", "r2"], props=["p"], individuals=["i"],
                        members=[("i", frozenset(["r1"])), ("i", frozenset(["r2"]))],
                        stats=[(frozenset(["r1"]), ("p", True), Fraction(2, 5), Fraction(2, 5)),
                               (frozenset(["r2"]), ("p", True), Fraction(3, 5), Fraction(3, 5))],
                        sentences={"S": (("p", True), "i")})
    got = [
        Reference(coin).answer("S14", "point"),
        Reference(conflict).answer("S", "point"),
        Reference(conflict).answer("p(i)", "interval"),
    ]
    want = [
        # refclass eval kbs/coin.rck --query S14 --mode point
        Answer(True, (half, half), frozenset([frozenset(["tosses"])])),
        # refclass eval kbs/conflict.rck --query S --mode point
        Answer(False, reason=ALL_ROWS_DELETED),
        # refclass eval kbs/conflict.rck --query "p(i)" --trace
        Answer(True, (Fraction(0), Fraction(1)), frozenset([frozenset(["r1", "r2"])])),
    ]
    for g, w in zip(got, want):
        if (g.defined, g.interval, g.selected, g.reason) != \
                (w.defined, w.interval, w.selected, w.reason):
            raise AssertionError(f"reference self-check failed: got {g}, want {w}")
