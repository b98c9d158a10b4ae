"""Per-layer tracing from outside the engine.

``Tracer.install`` replaces every public function and method of the
eight layer modules with a wrapper, in every intenlog module that binds
it (``from .worlds import extension`` copies the name into epistemic,
grounding and checks, so each copy is replaced).  No source file of the
engine changes.

Each wrapped call becomes a span (name, start, end, parent).  A
recursive function gets a span only at its outermost active call, while
every call is counted.  The hottest leaf functions only count calls:
a span costs about a microsecond, and they are called millions of
times per chain.  Self time is a span's duration minus the time covered
by its child spans, accumulated on the fly.  Spans are kept in memory,
up to ``SPAN_CAP``, and written out by ``write_spans`` at the end.
"""

from __future__ import annotations

import inspect
import json
import time

LAYERS = ("syntax", "parser", "prp", "relalg", "worlds", "epistemic", "grounding", "kb")

# Leaf functions called up to millions of times per round: counted, no
# span, so their time stays with the caller's span.
COUNT_ONLY = frozenset({
    "epistemic.apply_K",
    "epistemic.decompose_implication",
    "epistemic.Memory.find",
    "epistemic.Memory.atoms",
    "epistemic.KnowAtom.key",
    "prp.ConceptTable.particular",
    "prp.pairs_in_bounds",
    "relalg.element_key",
    "relalg.row_key",
    "syntax.term_free_vars",
    "syntax.Vocabulary.has",
})

SPAN_CAP = 50_000

# Functions whose output cardinality is recorded as rows_out.
ROWS_OUT = frozenset({"relalg.natural_join", "relalg.complement"})


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.rows_out: dict[str, int] = {}
        self.spans: list[tuple[int, int, int, int, int]] = []  # id, name, start, end, parent
        self.names: list[str] = []
        self.dropped = 0
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _counter(self, name, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _spanned(self, name, fn):
        calls, self_ns, rows_out = self.calls, self.self_ns, self.rows_out
        stack, spans, clock = self._stack, self.spans, time.perf_counter_ns
        name_id = len(self.names)
        self.names.append(name)
        count_rows = name in ROWS_OUT
        active = [0]

        def spanned(*args, **kwargs):
            calls[name] += 1
            if active[0]:
                return fn(*args, **kwargs)
            active[0] = 1
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[0] = 0
                duration = end - start
                self_ns[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if len(spans) < SPAN_CAP:
                    spans.append((span_id, name_id, start, end, parent))
                else:
                    self.dropped += 1
            if count_rows:
                rows_out[name] += len(out.tuples)
            return out

        return spanned

    # -- installation -----------------------------------------------------

    def install(self, eng) -> None:
        """Wrap the layer modules of the imported engine ``eng``."""
        modules = list(vars(eng).values())
        for layer in LAYERS:
            module = getattr(eng, layer)
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrapper = self._wrap(f"{layer}.{attr}", obj)
                    for other in modules:
                        for other_attr, value in list(vars(other).items()):
                            if value is obj:
                                self._patch(other, other_attr, wrapper)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if not inspect.isfunction(fn):
                            continue
                        if not meth.startswith("_"):
                            self._patch(obj, meth, self._wrap(f"{layer}.{attr}.{meth}", fn))

    def _wrap(self, name, fn):
        self.calls[name] = 0
        self.self_ns[name] = 0
        self.rows_out[name] = 0
        if name in COUNT_ONLY:
            return self._counter(name, fn)
        return self._spanned(name, fn)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def snapshot(self) -> dict[str, dict[str, int]]:
        """Counters so far, for per-round deltas."""
        return {"calls": dict(self.calls), "self_ns": dict(self.self_ns),
                "rows_out": dict(self.rows_out)}

    def write_spans(self, path) -> int:
        """Write the recorded spans as JSON lines; returns the count."""
        with open(path, "w") as fh:
            for span_id, name_id, start, end, parent in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "name": self.names[name_id],
                    "start_ns": start, "end_ns": end,
                    "parent": None if parent < 0 else parent,
                }) + "\n")
        return len(self.spans)
