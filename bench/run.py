"""Benchmark for the intenlog engine.

Run from the root of a checkout (pure standard library, no network):

    python3 bench/run.py --workload kb_query --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --scaling            # informational sweeps, never gated

``--trace 0`` prints every end-to-end metric; ``--trace 1`` first runs
half the time untraced, then wraps the engine's layers (see tracer.py)
for the other half and prints the per-layer metrics.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
run's metadata and determinism record.  Spans and the demo traces go to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# rounds whose sample of an operation is kept, per operation
KEEP = 10
# The calibration loop's time at the host speed that reported times are
# scaled to (its typical time on a 2-vCPU shared x86-64 host, Python 3.11).
CAL_REF_S = 0.006
CAL_REPEATS = 2  # calibration samples per round
# operation kinds of the mixed read/write phase, for ops_per_s
MIXED = ("query", "assert")

# name -> (unit, sample kind, quantile of the pooled samples, scale)
END_TO_END = {
    "setup_s": ("s", "setup", 0.5, 1.0),
    "load_s": ("s", "load", 0.5, 1.0),
    "query_p50_ms": ("ms", "query", 0.5, 1e3),
    "query_p99_ms": ("ms", "query", 0.99, 1e3),
    "assert_p50_ms": ("ms", "assert", 0.5, 1e3),
    "assert_p90_ms": ("ms", "assert", 0.9, 1e3),
    "chain_s": ("s", "chain", 0.5, 1.0),
    "answer_p50_ms": ("ms", "answer", 0.5, 1e3),
    "answer_p95_ms": ("ms", "answer", 0.95, 1e3),
    "session_p50_ms": ("ms", "session", 0.5, 1e3),
}

# per-layer metric -> traced functions it sums over
TRACED = {
    "parser.parse_formula": ("parser.parse_formula",),
    "syntax.free_var_tuple": ("syntax.free_var_tuple",),
    "syntax.substitute": ("syntax.substitute",),
    "syntax.serialize": ("syntax.serialize",),
    "prp.interpret": ("prp.ConceptTable.interpret",),
    "prp.recover": ("prp.ConceptTable.recover",),
    "relalg.natural_join": ("relalg.natural_join",),
    "relalg.project_out": ("relalg.project_out",),
    "relalg.complement": ("relalg.complement",),
    "worlds.extension": ("worlds.extension",),
    "worlds.active_domain": ("worlds.World.active_domain",),
    "worlds.with_base": ("worlds.World.with_base",),
    "epistemic.forward_chain": ("epistemic.forward_chain",),
    "epistemic.apply_K": ("epistemic.apply_K",),
    "epistemic.memory_find": ("epistemic.Memory.find",),
    "epistemic.consolidate": ("epistemic.consolidate",),
    "epistemic.answer": ("epistemic.answer",),
    "grounding.pars": ("grounding.pars",),
    "grounding.render_nl": ("grounding.render_nl",),
    "grounding.lookup": ("grounding.GroundingRegistry.lookup_concept",
                         "grounding.GroundingRegistry.lookup_predicate"),
    "kb.execute": ("kb.Session.execute",),
    "kb.assert_fact": ("kb.Session.assert_fact",),
}
DERIVED_RULES = ("T_b", "T_a", "AxK", "Ax4")


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile of the sorted sample."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def commit_id() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def demo_digests(eng) -> list[str]:
    """Digest of ``intenlog demo --trace-out`` for two runs in a row."""
    OUT.mkdir(exist_ok=True)
    digests = []
    for i in (1, 2):
        path = OUT / f"demo-trace-{i}.jsonl"
        with contextlib.redirect_stdout(io.StringIO()):
            code = eng.cli.main(["demo", "--trace-out", str(path)])
        digests.append(file_digest(path) if code == 0 else f"exit {code}")
    return digests


def run_rounds(wl, rec, seconds: float, before=None, after=None) -> list:
    """Closed loop: replay rounds until ``seconds`` have passed.

    ``before`` returns extra samples for the round, taken before it
    starts; ``after`` runs once it completes.  Returns the samples by
    kind of each completed round."""
    rounds = []
    deadline = time.perf_counter() + seconds
    while True:
        rec.current = before() if before is not None else {}
        # As in timeit, the collector is off within a round and a full
        # collection runs between rounds.  A collection pause lands on
        # whichever operation crosses an allocation threshold, which the
        # seed moves, so with the collector on the pauses set the tails.
        gc.collect()
        gc.disable()
        try:
            digest, _ = wl.round(rec)
        except Exception as exc:  # the round is abandoned, its operation failed
            rec.fail(f"round raised {type(exc).__name__}: {exc}")
        else:
            rounds.append(rec.current)
            rec.check(lambda: digest == wl.reference_digest,
                      "round digest differs from the first round")
            if after is not None:
                after()
        finally:
            gc.enable()
        rec.current = None
        if time.perf_counter() >= deadline:
            return rounds


def pooled(rounds, kind: str) -> list[float]:
    """The least disturbed samples of ``kind``: for each operation of the
    script, its ``KEEP`` fastest rounds, pooled.

    Every round replays the same script, so an operation's time differs
    between rounds only through interference from outside the process.
    On a shared host the CPU switches between speeds up to 1.5-2x apart
    for a second to minutes at a time, which moves every operation of a
    round that runs through a slow phase.  Each operation's fastest
    rounds hold its time at the fastest speed the host reached in the
    run, while the pool keeps the spread between cheap and costly
    operations that the percentiles describe."""
    columns = zip(*(r[kind] for r in rounds))  # one per operation of the script
    return [x for column in columns for x in sorted(column)[:KEEP]]


def least_disturbed(rounds, kind: str) -> list[int]:
    """Indices of the ``KEEP`` rounds with the least total time of ``kind``."""
    order = sorted(range(len(rounds)), key=lambda i: math.fsum(rounds[i][kind]))
    return sorted(order[:KEEP])


class _Node:
    """A hashable tree node, compared and hashed by structure like the
    engine's concepts."""

    __slots__ = ("op", "children", "name")

    def __init__(self, op, children, name):
        self.op, self.children, self.name = op, children, name

    def __hash__(self):
        return hash((self.op, self.children, self.name))

    def __eq__(self, other):
        return (self.op, self.children, self.name) == (other.op, other.children, other.name)


def _tree(depth: int, i: int) -> _Node:
    if depth == 0:
        return _Node("atom", (), f"p{i % 7}")
    if depth % 2:
        return _Node("conj", (_tree(depth - 1, i), _tree(depth - 1, i + 1)), None)
    return _Node("neg", (_tree(depth - 1, i),), None)


def _size(node: _Node, seen: dict) -> int:
    if node not in seen:
        seen[node] = 1 + sum(_size(child, seen) for child in node.children)
    return seen[node]


def calibration_loop():
    """A fixed pure-Python loop of the kinds of work the engine does:
    tuple, dict and set work, then building, hashing and walking trees of
    small objects.  It does not call the engine."""
    counts = {}
    for i in range(3000):
        key = (i % 97, i % 13, str(i % 31))
        counts[key] = counts.get(key, 0) + 1
    keys = sorted(frozenset(counts), key=lambda key: (key[2], key[0]))
    return keys[:5], sum(_size(_tree(9, i), {}) for i in range(10))


def calibration_samples() -> list[float]:
    """``CAL_REPEATS`` times of ``calibration_loop``, with the collector
    off so that the engine's heap does not change them."""
    times = []
    gc.disable()
    try:
        for _ in range(CAL_REPEATS):
            start = time.perf_counter()
            calibration_loop()
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return times


def set_up(workload: str, seed: int, size: str):
    """Import the engine afresh and generate the inputs: the set-up."""
    from workloads import WORKLOADS, import_engine

    start = time.perf_counter()
    wl = WORKLOADS[workload](import_engine(), seed, size)
    return wl, time.perf_counter() - start


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  size: str = "full", corrupt: bool = False):
    """One benchmark run; returns (result, metadata)."""
    from workloads import Recorder

    wl, _ = set_up(workload, seed, size)
    eng = wl.eng
    rec = Recorder()
    wl.prepare(corrupt=corrupt)
    wl.reference_digest, first = wl.round(rec)  # warm-up round, not recorded
    derived = Counter(step.rule for step in first.trace)
    demo = rec.op("demo", demo_digests, eng)
    rec.check(lambda: demo[0] == demo[1], "demo trace digest differs between two runs")

    meta = {
        "workload": workload, "seed": seed, "size": size, "params": wl.p,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": commit_id(), "src_lines": src_lines(),
        "trace_digest": wl.reference_digest, "demo_trace_digest": demo[0],
        "derived": {r: derived.get(r, 0) for r in DERIVED_RULES},
        "concepts": len(first.table.concepts()),
    }
    if trace:
        metrics = traced_metrics(wl, rec, seconds, meta)
    else:
        def setup_sample():
            # One set-up before every round.  The rounds keep running the
            # engine imported first, whose expected answers are fixed, so
            # its modules go back into sys.modules afterwards.
            engine = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "intenlog"}
            seconds = set_up(workload, seed, size)[1]
            sys.modules.update(engine)
            return {"setup": [seconds], "calibration": calibration_samples()}

        rounds = run_rounds(wl, rec, seconds, before=setup_sample)
        # The host's speed still drifts from run to run, by up to 1.5x on
        # a shared host, and the fastest rounds of a run move with it.  So
        # every time is scaled by CAL_REF_S over the calibration loop's
        # median time in the same fastest rounds: times are reported at
        # the host speed at which the loop takes CAL_REF_S.
        calibration = statistics.median(pooled(rounds, "calibration"))
        speed = CAL_REF_S / calibration
        mixed = [x for kind in MIXED for x in pooled(rounds, kind)]
        metrics = {
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ops_per_s": (len(mixed) / (math.fsum(mixed) * speed), "1/s"),
        }
        meta["samples"] = {"ops_per_s": len(mixed)}
        for name, (unit, kind, q, scale) in END_TO_END.items():
            samples = pooled(rounds, kind)
            metrics[name] = (quantile(samples, q) * scale * speed, unit)
            meta["samples"][name] = len(samples)
        meta["rounds"] = {"run": len(rounds), "kept": min(len(rounds), KEEP)}
        meta["calibration"] = {"median_s": calibration, "scale": speed}
    meta["failures"] = dict(rec.failures.most_common(20))
    meta["known_defects"] = dict(rec.defects)
    result = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    return result, meta


def traced_metrics(wl, rec, seconds: float, meta: dict) -> dict:
    """Half the time untraced, half traced; per-round layer metrics."""
    from tracer import COUNT_ONLY, LAYERS, Tracer

    def session_ms(rounds):
        return statistics.median(pooled(rounds, "session")) * 1e3

    untraced = session_ms(run_rounds(wl, rec, seconds / 2))
    tracer = Tracer()
    tracer.install(wl.eng)
    snapshots = [tracer.snapshot()]
    rounds = run_rounds(wl, rec, seconds / 2, after=lambda: snapshots.append(tracer.snapshot()))
    tracer.uninstall()
    traced = session_ms(rounds)
    deltas = [{stat: {f: now[stat][f] - then[stat][f] for f in now[stat]} for stat in now}
              for then, now in zip(snapshots, snapshots[1:])]
    counts = deltas[0]["calls"]
    rec.check(lambda: all(d["calls"] == counts for d in deltas),
              "per-layer counts differ between rounds")
    kept = [deltas[i] for i in least_disturbed(rounds, "session")]

    def calls(metric):
        return sum(counts[f] for f in TRACED[metric])

    def self_s(names):
        return statistics.fmean(sum(d["self_ns"][f] for f in names) for d in kept) / 1e9

    metrics = {}
    for metric, names in TRACED.items():
        metrics[f"{metric}.calls"] = (calls(metric), "count")
        if not COUNT_ONLY.issuperset(names):
            metrics[f"{metric}.self_s"] = (self_s(names), "s")
    for metric in ("relalg.natural_join", "relalg.complement"):
        metrics[f"{metric}.rows_out"] = (deltas[0]["rows_out"][TRACED[metric][0]], "count")
    layer_self = {layer: self_s([f for f in counts if f.startswith(layer + ".")])
                  for layer in LAYERS}
    total = sum(layer_self.values()) or 1.0
    for layer, value in layer_self.items():
        metrics[f"{layer}.self_s"] = (value, "s")
        metrics[f"{layer}.self_share"] = (value / total, "ratio")
    metrics["prp.concepts"] = (meta["concepts"], "count")
    derived = meta["derived"]
    for rule in DERIVED_RULES:
        metrics[f"epistemic.derived.{rule}"] = (derived[rule], "count")
    apply_k = calls("epistemic.apply_K")
    metrics["epistemic.axk_yield"] = (derived["AxK"] / apply_k if apply_k else 0.0, "ratio")
    metrics["trace.overhead_ms"] = (traced - untraced, "ms")
    metrics["trace.overhead_share"] = ((traced - untraced) / untraced, "ratio")

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{meta['workload']}-{meta['seed']}.jsonl"
    meta["spans"] = {"path": str(spans_path.relative_to(ROOT)),
                     "written": tracer.write_spans(spans_path), "dropped": tracer.dropped}
    meta["rounds"] = {"traced": len(rounds), "kept": len(kept)}
    meta["layer_counts"] = {k: v for k, v in sorted(counts.items()) if v}
    meta["session_ms"] = {"untraced": untraced, "traced": traced}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("kb_query", "rule_chain", "retrieval"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scaling", action="store_true",
                        help="run the informational scaling sweeps instead")
    args = parser.parse_args(argv)
    if not (SRC / "intenlog" / "__init__.py").is_file():
        print(f"error: no engine sources at {SRC / 'intenlog'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.scaling:
        from scaling import run_sweeps

        meta = {"python": platform.python_version(), "nproc": os.cpu_count(),
                "commit": commit_id(), "src_lines": src_lines()}
        print(json.dumps({"meta": meta, "scaling": run_sweeps()}, indent=2))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result, meta = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
