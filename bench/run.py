"""End-to-end and per-layer benchmark of refclass (standard library only).

Run from the repository root:

    python3 bench/run.py --workload census --seed 1 --seconds 15 --trace 0

A run repeats three timed steps in turn: set-up (generate the workload's
knowledge bases from the seed, write them as `.rck` files, import refclass
from `src/`, load every KB), a slice of the round of library operations (one
closed-loop client), and one whole `refclass` process from the workload's CLI
script.  It stops after the whole round that brings it closest to `--seconds`
without passing it (always at least one round).  Every answer is checked
against the reference evaluator in `reference.py`.  The last line of standard
output is one JSON object: correct, attempted, failed and the metrics.

With `--trace 1` the run instead installs span wrappers (`tracing.py`) and
reports the per-layer metrics of traced passes, each pass being one KB load,
one round of library operations and the CLI script run in-process.
Details of every run, and the spans of a traced run's first pass, go to
`bench/out/`.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter, perf_counter_ns

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CLI_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "cli_s": "s", "peak_rss_mb": "MB",
}


def unit_of(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# Set-up: inputs, import, KB loading
# ---------------------------------------------------------------------------


def import_refclass():
    """A fresh import of the package from src/, as a new process would do."""
    for name in [m for m in sys.modules if m == "refclass" or m.startswith("refclass.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    rc = importlib.import_module("refclass")
    importlib.import_module("refclass.cli")
    return rc


def load_kbs(rc, wl, workdir: str) -> dict:
    """file name -> (ClosedKB, SanityReport), through the library API."""
    kbs = {}
    for fname in wl.kbs:
        with open(os.path.join(workdir, fname), encoding="utf-8") as fh:
            text = fh.read()
        ckb = rc.dsl.parse_kb(text).close()
        kbs[fname] = (ckb, rc.consistency.sanity_check(ckb))
    return kbs


def setup(workload: str, seed: int, workdir: str):
    """Timed set-up into a new directory `workdir`.

    Writing into a new directory each time, rather than over the previous
    files, keeps the file system's cost of truncating files out of it.
    """
    start = perf_counter()
    os.mkdir(workdir)
    wl = WORKLOADS[workload](seed)
    for fname, rec in wl.kbs.items():
        with open(os.path.join(workdir, fname), "w", encoding="utf-8") as fh:
            fh.write(rec.text())
    rc = import_refclass()
    kbs = load_kbs(rc, wl, workdir)
    return perf_counter() - start, wl, rc, kbs


def sanity_ok(kbs: dict, refs: dict) -> bool:
    return all(rep.ok and len(rep.warnings) == refs[f].warnings()
               for f, (_, rep) in kbs.items())


# ---------------------------------------------------------------------------
# Library operations
# ---------------------------------------------------------------------------


def expectations(wl, refs: dict) -> dict:
    exp = {}
    for op in wl.ops:
        if op.kind != "model" and op not in exp:
            mode = "point" if op.kind == "point" else "interval"
            exp[op] = refs[op.kb].answer(op.arg, mode)
    return exp


def bind(rc, kbs: dict, ops: list) -> list:
    """(op, callable, args) for one round, through the current module attributes."""
    inf, con = rc.inference, rc.consistency
    explain = inf.explain

    def explain_dict(ckb, sentence):
        return explain(ckb, sentence, "interval").to_dict()

    call = {"interval": inf.prob_interval, "point": inf.prob_point,
            "explain": explain_dict, "model": con.find_model}
    return [(op, call[op.kind], (kbs[op.kb][0], op.arg)) for op in ops]


def check_op(op, out, exp: dict, refs: dict) -> bool:
    if op.kind == "model":
        return reference.check_model(refs[op.kb].rec, out.to_dict() if out else None, op.arg)
    if op.kind == "explain":
        return reference.check_trace_dict(out, exp[op])
    return reference.check_prob(out, exp[op])


class Tally:
    """Operations attempted and failed, with the first failure's story."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            if not self.failed:
                print(f"failed: {what}", file=sys.stderr)
            self.failed += 1


def run_round(bound: list, exp: dict, refs: dict, tally: Tally, tracer=None,
              ops_log=None) -> list[int]:
    """One closed-loop pass over the round; latencies in ns."""
    lat = []
    for op, fn, args in bound:
        if tracer is not None:
            tracer.op = len(ops_log)
            ops_log.append(f"{op.kind} {op.kb} {op.arg}")
        start = perf_counter_ns()
        try:
            out = fn(*args)
        except Exception:
            lat.append(perf_counter_ns() - start)
            tally.record(False, f"{op}: {traceback.format_exc()}")
            continue
        lat.append(perf_counter_ns() - start)
        tally.record(check_op(op, out, exp, refs), str(op))
    return lat


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def check_cli(call, code, stdout: str, refs: dict) -> bool:
    ref = refs[call.kb]
    if call.kind == "eval":
        ans = ref.answer(call.query, call.mode)
        d = json.loads(stdout)
        return (code == (0 if ans.defined else 3) and reference.check_result_dict(d, ans)
                and (not call.trace or reference.check_trace_dict(d["trace"], ans)))
    if call.kind == "dump":
        return code == 0 and reference.check_dump(json.loads(stdout), ref)
    if call.model is None:
        warnings = sum(1 for line in stdout.splitlines() if line.startswith("warning:"))
        return code == 0 and "sanity checks passed" in stdout and warnings == ref.warnings()
    model = json.loads(stdout)["model"]
    return code == (0 if model else 4) and reference.check_model(ref.rec, model, call.model)


def run_cli_process(call, workdir: str, refs: dict, tally: Tally) -> float:
    """One call as a whole `refclass` process; its wall time in s."""
    env = dict(os.environ, REFCLASS_NO_COLOR="1")
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    argv = [sys.executable, "-m", "refclass.cli"] + call.argv(os.path.join(workdir, call.kb))
    start = perf_counter()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, env=env,
                              timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        tally.record(False, f"{call}: timed out")
        return perf_counter() - start
    wall = perf_counter() - start
    try:
        ok = check_cli(call, proc.returncode, proc.stdout, refs)
    except (ValueError, KeyError, TypeError):
        ok = False
    tally.record(ok, f"{call}: exit {proc.returncode}: {proc.stdout[:200]} {proc.stderr[-500:]}")
    return wall


def run_cli_in_process(rc, wl, workdir: str, refs: dict, tally: Tally, tracer,
                       ops_log: list) -> None:
    for call in wl.cli:
        tracer.op = len(ops_log)
        ops_log.append(f"cli {' '.join(call.argv(call.kb))}")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = rc.cli.main(call.argv(os.path.join(workdir, call.kb)))
            except SystemExit as e:
                code = e.code
        try:
            ok = check_cli(call, code, out.getvalue(), refs)
        except (ValueError, KeyError, TypeError):
            ok = False
        tally.record(ok, f"in-process {call}: exit {code}: {err.getvalue()[-500:]}")


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def untraced_run(args, workdir: str, details: dict) -> dict:
    """Whole rounds of cycles until another round would pass `--seconds`.

    A round has one cycle per CLI call; a cycle is one set-up, one slice of
    the round's library operations and one CLI process.  Interleaving them
    spreads every metric's samples over the whole run, so a slow spell of
    the machine lands on all metrics alike instead of on one phase.
    """
    tally = Tally()
    reps, lat, kinds, walls = [], [], [], []
    refs = exp = None
    setup_ok = True
    rounds = 0
    inputs = None
    start = perf_counter()
    while True:
        round_start = perf_counter()
        for k in itertools.count():
            if inputs is not None:
                shutil.rmtree(inputs)
            inputs = os.path.join(workdir, f"rep{len(reps)}")
            seconds, wl, rc, kbs = setup(args.workload, args.seed, inputs)
            reps.append(seconds)
            if refs is None:
                refs = {f: reference.Reference(rec) for f, rec in wl.kbs.items()}
                exp = expectations(wl, refs)
            setup_ok = setup_ok and sanity_ok(kbs, refs)
            n = len(wl.cli)
            chunk = wl.ops[k * len(wl.ops) // n:(k + 1) * len(wl.ops) // n]
            lat += run_round(bind(rc, kbs, chunk), exp, refs, tally)
            kinds += [op.kind for op in chunk]
            walls.append(run_cli_process(wl.cli[k], inputs, refs, tally))
            if k + 1 == n:
                break
        rounds += 1
        if rounds == 1:
            # read after one whole round, so it does not grow with the
            # number of rounds the machine's speed allows
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        now = perf_counter()
        if now - start + (now - round_start) > args.seconds:
            break

    by_kind: dict = {}
    for kind, ns in zip(kinds, lat):
        by_kind.setdefault(kind, []).append(ns / 1e6)
    details.update(rounds=rounds, ops=len(lat), run_s=perf_counter() - start,
                   setup_reps_s=reps, cli_walls_s=walls, setup_ok=setup_ok,
                   ms_by_kind={k: {"n": len(v), "p50": statistics.median(v),
                                   "p90": statistics.quantiles(v, n=10)[8]}
                               for k, v in by_kind.items()})
    metrics = {
        "setup_s": statistics.median(reps),
        "ops_per_s": len(lat) / (sum(lat) / 1e9),
        "op_p50_ms": statistics.median(lat) / 1e6,
        "op_p90_ms": statistics.quantiles(lat, n=10)[8] / 1e6,
        "cli_s": statistics.median(walls),
        "peak_rss_mb": peak_rss_mb,
    }
    return {"correct": setup_ok and tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}}


def traced_run(args, workdir: str, details: dict) -> dict:
    """Traced passes until another pass would pass `--seconds`.

    A pass runs the round once untraced, then with the wrappers installed
    loads every KB, runs the round again and runs the CLI script in-process;
    the tracing overhead is the traced round's time over the untraced one's.
    """
    from tracing import Tracer, layer_metrics

    tally = Tally()
    start = perf_counter()
    workdir = os.path.join(workdir, "rep0")
    _, wl, rc, kbs = setup(args.workload, args.seed, workdir)
    refs = {f: reference.Reference(rec) for f, rec in wl.kbs.items()}
    exp = expectations(wl, refs)
    setup_ok = sanity_ok(kbs, refs)

    tracer = Tracer()
    ops_log: list[str] = []
    passes, overheads = [], []
    while True:
        pass_start = perf_counter()
        untraced_ns = sum(run_round(bind(rc, kbs, wl.ops), exp, refs, tally))
        first, first_op = len(tracer.spans), len(ops_log)
        tracer.counts.clear()
        tracer.install(rc)
        try:
            tracer.op = len(ops_log)
            ops_log.append("load every KB")
            traced_kbs = load_kbs(rc, wl, workdir)
            setup_ok = setup_ok and sanity_ok(traced_kbs, refs)
            traced_ns = sum(run_round(bind(rc, traced_kbs, wl.ops), exp, refs, tally,
                                      tracer, ops_log))
            run_cli_in_process(rc, wl, workdir, refs, tally, tracer, ops_log)
        finally:
            tracer.uninstall()
        passes.append(layer_metrics(tracer.self_times(first, len(tracer.spans)), tracer.counts))
        if len(passes) > 1:   # every pass repeats the first; keep its spans only
            del tracer.spans[first:]
            del ops_log[first_op:]
        overheads.append(traced_ns / untraced_ns - 1)
        now = perf_counter()
        if now - start + (now - pass_start) > args.seconds:
            break
    walls = [run_cli_process(call, workdir, refs, tally) for call in wl.cli]

    metrics = {k: statistics.median_low(p[k] for p in passes) for k in passes[0]}
    metrics["cli.startup_ms"] = sum(walls) * 1e3 - metrics["cli.main_ms"]
    overhead = statistics.median(overheads)
    print(f"tracing overhead on a round of library operations: {overhead:+.1%}", file=sys.stderr)
    tracer.write(os.path.join(OUT, f"{args.workload}-seed{args.seed}.spans.jsonl"),
                 dict(enumerate(ops_log)))
    details.update(passes=len(passes), spans_written=len(tracer.spans), tracing_overheads=overheads,
                   tracing_overhead=overhead, cli_walls_s=walls, setup_ok=setup_ok)
    return {"correct": setup_ok and tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "refclass", "__init__.py")):
        print(f"error: no refclass sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    reference.self_check()

    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, f"inputs-{tag}-{os.getpid()}")
    os.makedirs(workdir)
    details: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                     "python": sys.version.split()[0]}
    try:
        run = traced_run if args.trace else untraced_run
        result = run(args, workdir, details)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({**details, "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
