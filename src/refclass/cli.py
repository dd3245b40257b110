"""Command-line driver: `refclass eval|check|dump`.

Exit codes: 0 success/defined, 1 parse error, 2 inconsistency or sanity
violation, 3 undefined query, 4 no model within the requested bound.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .consistency import find_model, sanity_check
from .core import CanonicalClass, InconsistencyError, KBError
from .dsl import ParseFailure, parse_kb, parse_query
from .inference import explain, prob_interval, prob_point
from . import __version__

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INCONSISTENT = 2
EXIT_UNDEFINED = 3
EXIT_NO_MODEL = 4


def _use_color() -> bool:
    return sys.stdout.isatty() and not os.environ.get("REFCLASS_NO_COLOR")


def _style(text: str, code: str) -> str:
    if _use_color():
        return f"\x1b[{code}m{text}\x1b[0m"
    return text


def _green(text: str) -> str:
    return _style(text, "32")


def _red(text: str) -> str:
    return _style(text, "31")


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _load(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)
    try:
        return parse_kb(text)
    except ParseFailure as e:
        for err in e.errors:
            print(f"{path}:{err.line}:{err.column}: {err.message}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _close(builder):
    try:
        return builder.close()
    except InconsistencyError as e:
        print(f"inconsistent knowledge base: {e}", file=sys.stderr)
        raise SystemExit(EXIT_INCONSISTENT)


def cmd_eval(args) -> int:
    builder = _load(args.kb)
    try:
        sentence = parse_query(args.query, builder)
    except KBError as e:
        print(f"query error: {e}", file=sys.stderr)
        return EXIT_PARSE
    ckb = _close(builder)
    report = sanity_check(ckb)
    if not report.ok:
        for v in report.violations:
            print(f"inconsistency: {v}", file=sys.stderr)
        return EXIT_INCONSISTENT
    if args.trace:
        trace = explain(ckb, sentence, args.mode)
        result = trace.result
    else:
        result = (prob_point if args.mode == "point" else prob_interval)(ckb, sentence)

    if args.json:
        payload = {"query": args.query, "mode": args.mode, **result.to_dict()}
        if args.trace:
            payload["trace"] = trace.to_dict()
        _emit_json(payload)
    else:
        if result.defined:
            print(f"Prob({args.query}) = {_green(str(result.interval))} "
                  f"via reference class {result.selected}")
        else:
            print(f"Prob({args.query}) is {_red('undefined')}: {result.reason}")
        if args.trace:
            _print_trace(trace)
    return EXIT_OK if result.defined else EXIT_UNDEFINED


def _print_trace(trace) -> None:
    for ft in trace.forms:
        print(f"  form {ft.prop.describe()}({ft.individual}):")
        for row in ft.rows:
            mark = "kept   " if row.status == "live" else "deleted"
            extra = f"  (differs from {row.witness})" if row.witness is not None else ""
            print(f"    {mark} {str(row.cls):<24} {row.interval}{extra}")
        fr = ft.result
        if fr.defined:
            print(f"    -> {fr.interval} via {fr.selected}")
        else:
            print(f"    -> undefined: {fr.reason}")


def cmd_check(args) -> int:
    builder = _load(args.kb)
    ckb = _close(builder)
    report = sanity_check(ckb)
    model = None
    no_model = False
    if report.ok and args.model is not None:
        model = find_model(ckb, args.model)
        no_model = model is None

    if args.json:
        payload = {**report.to_dict(), "ok": report.ok and not no_model}
        if args.model is not None:
            payload["model_bound"] = args.model
            payload["model"] = model.to_dict() if model else None
        _emit_json(payload)
    else:
        for v in report.violations:
            print(_red(f"violation: {v}"))
        for w in report.warnings:
            print(f"warning: {w}")
        if report.ok:
            print(_green("sanity checks passed"))
        if args.model is not None and report.ok:
            if model is not None:
                print(f"model found at population size {len(model.population)}:")
                print(json.dumps(model.to_dict(), sort_keys=True, indent=2))
            else:
                print(_red(f"no model within bound {args.model}"))
    if not report.ok:
        return EXIT_INCONSISTENT
    if no_model:
        return EXIT_NO_MODEL
    return EXIT_OK


def cmd_dump(args) -> int:
    builder = _load(args.kb)
    ckb = _close(builder)
    # json.dumps(sort_keys=True) orders every dict below by key
    memberships = ckb._per_profile(lambda profile: sorted(map(str, profile.classes)))
    subsets = sorted(f"{a} < {b}" for a, b in ckb.subset_pairs)
    stats = {
        f"%({CanonicalClass(atoms)}, {prop.describe()})": [str(iv.lo), str(iv.hi)]
        for (atoms, prop), iv in ckb.stats.items()
    }
    sentences = {
        label: {
            "group": sorted(ckb.sentence_groups[label]),
            "forms": [f"{p.describe()}({i})" for p, i in forms],
        }
        for label, forms in ckb.sentence_forms.items()
    }
    payload = {
        "classes": sorted(ckb.class_atoms),
        "properties": sorted(ckb.property_atoms),
        "individuals": sorted(ckb.individuals),
        "memberships": memberships,
        "subsets": subsets,
        "stats": stats,
        "sentences": sentences,
    }
    if args.json:
        _emit_json(payload)
    else:
        print(json.dumps(payload, sort_keys=True, indent=2))
    return EXIT_OK


def _population_bound(text: str) -> int:
    """`check --model N`: a population size of 1 or more."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"population bound must be 1 or more, not {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="refclass",
        description="Evidence-relative probabilities by reference-class selection.",
    )
    parser.add_argument("--version", action="version", version=f"refclass {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a probability query")
    p_eval.add_argument("kb", help="knowledge base file (.rck)")
    p_eval.add_argument("--query", required=True,
                        help="sentence label or inline form, e.g. heads(t14)")
    p_eval.add_argument("--mode", choices=("point", "interval"), default="interval")
    p_eval.add_argument("--json", action="store_true", help="JSON output")
    p_eval.add_argument("--trace", action="store_true", help="include the evaluation trace")
    p_eval.set_defaults(func=cmd_eval)

    p_check = sub.add_parser("check", help="run consistency checks")
    p_check.add_argument("kb", help="knowledge base file (.rck)")
    p_check.add_argument("--model", type=_population_bound, metavar="N",
                         help="also search for a finite model up to population size N")
    p_check.add_argument("--json", action="store_true", help="JSON output")
    p_check.set_defaults(func=cmd_check)

    p_dump = sub.add_parser("dump", help="print the deductive closure")
    p_dump.add_argument("kb", help="knowledge base file (.rck)")
    p_dump.add_argument("--json", action="store_true", help="JSON output")
    p_dump.set_defaults(func=cmd_dump)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
