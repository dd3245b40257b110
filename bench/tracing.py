"""Span tracing of refclass from outside the package.

`Tracer.install` replaces every public function of `refclass.dsl`, `.core`,
`.inference`, `.consistency` and `.cli` (and `ClosedKB.subset_known`) with a
wrapper, in every module namespace that holds it, so calls between modules
are traced too.  `uninstall` puts the originals back.  The untraced benchmark
run never imports this module.

A span is (name, start ns, end ns, parent span index, operation id); spans
stay in memory until `write`.  The two functions called once per candidate
pair or candidate model (`inference.differ`, `consistency.verify_model`) are
only counted, so their time stays in their caller's self time.
"""

from __future__ import annotations

import inspect
import json
from collections import Counter
from time import perf_counter_ns

LAYERS = ("dsl", "core", "inference", "consistency", "cli")
COUNT_ONLY = {"inference.differ", "consistency.verify_model"}


def _statements(builder) -> int:
    return (len(builder.class_atoms) + len(builder.property_atoms) + len(builder.individuals)
            + len(builder.sentence_forms) + len(builder.stats) + len(builder.members)
            + len(builder.subsets) + len(builder.equivs))


def _after_parse_kb(counts, args, out):
    counts["dsl.statements"] += _statements(out)


def _after_close(counts, args, out):
    counts["core.universe_size"] += len(out.universe)
    counts["core.subset_pairs"] += len(out.subset_pairs)
    counts["core.membership_classes"] += sum(len(v) for v in out.memberships.values())


def _after_filter_rows(counts, args, out):
    counts["inference.rows_built"] += len(args[1])
    counts["inference.rows_deleted"] += sum(1 for r in out if r.status != "live")


def _after_differ(counts, args, out):
    counts["inference.differ_calls"] += 1
    counts["inference.differ_true"] += bool(out)


def _after_verify_model(counts, args, out):
    counts["consistency.verify_model_calls"] += 1
    counts["consistency.verify_accepted"] += bool(out)


AFTER = {
    "dsl.parse_kb": _after_parse_kb,
    "core.close": _after_close,
    "inference.filter_rows": _after_filter_rows,
    "inference.differ": _after_differ,
    "consistency.verify_model": _after_verify_model,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._restore: list = []

    def _wrap(self, name: str, fn):
        spans, stack, counts, after = self.spans, self.stack, self.counts, AFTER.get(name)
        tracer = self

        if name in COUNT_ONLY:
            def counted(*args, **kwargs):
                out = fn(*args, **kwargs)
                after(counts, args, out)
                return out
            return counted

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.op)
            if after is not None:
                after(counts, args, out)
            return out
        return traced

    def install(self, package) -> None:
        modules = [getattr(package, layer) for layer in LAYERS]
        wrappers = {}
        for mod, layer in zip(modules, LAYERS):
            for attr, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ \
                        and not attr.startswith("_"):
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for ns in [package] + modules:
            for attr, value in list(vars(ns).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._restore.append((ns, attr, value))
                    setattr(ns, attr, wrappers[value])
        closed = package.core.ClosedKB
        self._restore.append((closed, "subset_known", closed.subset_known))
        closed.subset_known = self._wrap("core.subset_known", closed.subset_known)

    def uninstall(self) -> None:
        for ns, attr, value in reversed(self._restore):
            setattr(ns, attr, value)
        self._restore.clear()

    def self_times(self, first: int, last: int) -> dict[str, list]:
        """Per span name: [calls, inclusive ns, self ns] over spans[first:last]."""
        child = Counter()
        for name, start, end, parent, _ in self.spans[first:last]:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = {}
        for idx in range(first, last):
            name, start, end, _, _ = self.spans[idx]
            agg = out.setdefault(name, [0, 0, 0])
            agg[0] += 1
            agg[1] += end - start
            agg[2] += end - start - child[idx]
        return out

    def write(self, path: str, ops: dict) -> None:
        """One JSON line per span, after a header naming the operations."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                                 "ops": ops}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(times: dict, counts: Counter) -> dict[str, float]:
    """The per-layer metrics of one traced pass (times in ms)."""
    def self_ms(name):
        return times.get(name, [0, 0, 0])[2] / 1e6

    differ = counts["inference.differ_calls"]
    verified = counts["consistency.verify_model_calls"]
    return {
        "dsl.parse_kb_ms": self_ms("dsl.parse_kb"),
        "dsl.statements": counts["dsl.statements"],
        "core.close_ms": self_ms("core.close"),
        "core.universe_size": counts["core.universe_size"],
        "core.subset_pairs": counts["core.subset_pairs"],
        "core.membership_classes": counts["core.membership_classes"],
        "core.subset_known_calls": times.get("core.subset_known", [0])[0],
        "core.subset_known_ms": self_ms("core.subset_known"),
        "inference.build_table_ms": self_ms("inference.build_table"),
        "inference.filter_rows_ms": self_ms("inference.filter_rows"),
        "inference.rows_built": counts["inference.rows_built"],
        "inference.rows_deleted": counts["inference.rows_deleted"],
        "inference.differ_calls": differ,
        "inference.differ_true_ratio": counts["inference.differ_true"] / differ if differ else 0.0,
        "consistency.sanity_check_ms": self_ms("consistency.sanity_check"),
        "consistency.find_model_ms": self_ms("consistency.find_model"),
        "consistency.verify_model_calls": verified,
        "consistency.verify_accept_ratio":
            counts["consistency.verify_accepted"] / verified if verified else 0.0,
        # the whole cli.main span: cli.startup_ms subtracts it from process time
        "cli.main_ms": times.get("cli.main", [0, 0])[1] / 1e6,
    }
