"""The engine's answers against `bench/reference.py`, on generated records.

The reference evaluator computes each answer from the generator's record of
what it wrote, never from the engine's parse, closure or tables, so it is an
oracle independent of `build_table`, `filter_rows` and `subset_known`.  It
covers literal properties only: every statistic and sentence here is `p` or
`!p` for a property atom `p`.  Every model `find_model` returns is re-counted
by the reference's `model_holds`.  `bench/` is imported read-only.
"""

import contextlib
import io
import itertools
import json
import os
import sys
import tempfile
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import refclass as rc
from refclass import cli

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench"))
from reference import Reference, check_dump, check_prob, check_trace_dict, model_holds  # noqa: E402
from workloads import KBRecord  # noqa: E402

# on the 1/100 grid, which `KBRecord.text()` writes as exact decimals
VALUES = [Fraction(k, 20) for k in range(21)]
# coarse values, so that more records have a model of at most four elements
QUARTERS = [Fraction(k, 4) for k in range(5)]


def _subclass(draw, cls: frozenset) -> frozenset:
    """`cls` or a class with some of its atoms, which `cls` lies within."""
    return frozenset(draw(st.sets(st.sampled_from(sorted(cls)), min_size=1)))


@st.composite
def records(draw, max_atoms: int = 6, values: list = VALUES) -> KBRecord:
    """Memberships of one to three atoms, some nested (a single atom of an
    individual's multi-atom membership asserted as well), stats on them, on
    unions of an individual's memberships (its top class among them) and
    elsewhere, point, interval and `[0, 1]` stats with compatible complement
    stats, and asserted subsets in chains joined by atom-superset steps,
    some closed into cycles."""
    atoms = [f"c{k}" for k in range(draw(st.integers(2, max_atoms)))]
    props = [f"p{k}" for k in range(draw(st.integers(1, 2)))]
    individuals = [f"i{k}" for k in range(draw(st.integers(1, 3)))]
    rec = KBRecord(atoms=atoms, props=props, individuals=individuals)
    classes = st.sets(st.sampled_from(atoms), min_size=1, max_size=3).map(frozenset)
    unions = []
    for ind in individuals:
        mine = draw(st.lists(classes, min_size=ind != "i0", max_size=3))
        for cls in [c for c in mine if len(c) > 1]:
            if draw(st.booleans()):  # nested: a generator inside another
                mine.append(frozenset([draw(st.sampled_from(sorted(cls)))]))
        rec.members += [(ind, cls) for cls in mine]
        unions += [frozenset().union(*some) for k in range(1, len(mine) + 1)
                   for some in itertools.combinations(mine, k)]
    # stats and subsets mostly on classes an individual is known to be in,
    # so that rows differ and asserted subsets excuse some of them
    stat_classes = st.one_of(st.sampled_from(unions), st.sampled_from(unions), classes) \
        if unions else classes

    stats = {}
    for _ in range(draw(st.integers(0, 10))):
        cls, atom, positive = draw(stat_classes), draw(st.sampled_from(props[:1] + props)), \
            draw(st.booleans())
        kind = draw(st.sampled_from(["point", "interval", "unit"]))
        lo = draw(st.sampled_from(values))
        hi = lo if kind == "point" else Fraction(1) if kind == "unit" else \
            draw(st.sampled_from([v for v in values if v >= lo]))
        if kind == "unit":
            lo = Fraction(0)
        stats[cls, atom] = [(cls, (atom, positive), lo, hi)]
        if draw(st.booleans()):  # the complement, in an interval holding the reflection
            stats[cls, atom].append((cls, (atom, not positive),
                                     max(Fraction(0), 1 - hi - draw(st.sampled_from(values[:3]))),
                                     min(Fraction(1), 1 - lo + draw(st.sampled_from(values[:3])))))
    rec.stats = [s for group in stats.values() for s in group]

    subsets = {}
    for _ in range(draw(st.integers(0, 2))):
        path = [draw(stat_classes) for _ in range(draw(st.integers(2, 4)))]
        for sub, sup in zip(path, path[1:]):
            subsets[_subclass(draw, sub), sup] = None
        if draw(st.booleans()):  # back into a class the chain starts within
            subsets[path[-1], _subclass(draw, path[0])] = None
    with_stats = sorted({cls for cls, _ in stats}, key=sorted)
    for _ in range(draw(st.integers(0, 2)) if len(with_stats) > 1 else 0):
        subsets[tuple(draw(st.permutations(with_stats))[:2])] = None  # it may excuse a row
    rec.subsets = [(sub, sup) for sub, sup in subsets if sub != sup]

    for k in range(draw(st.integers(1, 4))):
        lit = (draw(st.sampled_from(props)), draw(st.booleans()))
        rec.sentences[f"S{k}"] = (lit, draw(st.sampled_from(individuals)))
    return rec


def _dump(text: str) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "kb.rck")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["dump", path, "--json"]) == 0
    return json.loads(out.getvalue())


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(records())
def test_queries_and_closure_match_reference(rec):
    text = rec.text()
    ckb = rc.parse_kb(text).close()  # the stats on a class and literal are compatible
    ref = Reference(rec)
    for label in rec.sentences:
        for mode, prob in (("interval", rc.prob_interval), ("point", rc.prob_point)):
            ans = ref.answer(label, mode)
            assert check_prob(prob(ckb, label), ans), (label, mode, ans)
            assert check_trace_dict(rc.explain(ckb, label, mode).to_dict(), ans), (label, mode)
    assert len(rc.sanity_check(ckb).warnings) == ref.warnings()
    assert check_dump(_dump(text), ref)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(records(max_atoms=3, values=QUARTERS), st.integers(1, 4))
def test_found_models_hold(rec, bound):
    """Every model `find_model` returns satisfies the record, re-counted by
    the reference.  Nothing is asserted when it finds none:
    `no_model_by_arithmetic` is only a sufficient condition for that."""
    model = rc.find_model(rc.parse_kb(rec.text()).close(), bound)
    if model is not None:
        d = model.to_dict()
        assert d["size"] <= bound and model_holds(rec, d)
