"""Informational scaling sweeps; never gated.

Three sweeps, each timed as the median of a few repetitions, with the
growth exponent fitted by least squares on log(time) against log(size):

* load:     load_kb of N particulars plus N asserts of a binary predicate;
* chain:    N rules p_i(?x) => p_{i+1}(?x), one known << p0(?x) >>_{x},
            chained at budget 1;
* negation: E{1} E{1} ~ r(?x,?y) over an active domain of D particulars.

An exponent near 1 is linear growth, near 2 quadratic.
"""

from __future__ import annotations

import math
import random
import statistics
import time

LOAD_SIZES = (250, 500, 1000, 2000)
CHAIN_SIZES = (25, 50, 100)
NEGATION_SIZES = (20, 40, 80)
REPEATS = 3


def fit_exponent(sizes, times) -> float:
    xs = [math.log(n) for n in sizes]
    ys = [math.log(t) for t in times]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def _median_time(build, action) -> float:
    times = []
    for _ in range(REPEATS):
        subject = build()
        start = time.perf_counter()
        action(subject)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def load_text(n: int, rng: random.Random) -> str:
    lines = ["predicate r/2"] + [f"particular c{i}" for i in range(n)]
    lines += [f"assert r(c{rng.randrange(n)}, c{rng.randrange(n)})" for _ in range(n)]
    return "\n".join(lines) + "\n"


def chain_text(n: int) -> str:
    lines = [f"predicate p{i}/1" for i in range(n + 1)] + ["particular a", "assert p0(a)"]
    lines += [f"rule p{i}(?x) => p{i + 1}(?x)" for i in range(n)]
    lines.append("know << p0(?x) >>_{x}")
    return "\n".join(lines) + "\n"


def run_sweeps(seed: int = 1) -> dict:
    from intenlog import load_kb

    rng = random.Random(seed)
    sweeps = {}

    texts = {n: load_text(n, rng) for n in LOAD_SIZES}
    sweeps["load"] = {n: _median_time(lambda: texts[n], load_kb) for n in LOAD_SIZES}

    sweeps["chain"] = {
        n: _median_time(lambda: load_kb(chain_text(n)), lambda s: s.chain(1))
        for n in CHAIN_SIZES
    }

    def negation_session(d):
        session = load_kb(load_text(d, rng))
        return session, session.parse("E{1} E{1} ~ r(?x, ?y)")

    sweeps["negation"] = {
        d: _median_time(lambda: negation_session(d), lambda sf: sf[0].eval_formula(sf[1]))
        for d in NEGATION_SIZES
    }
    return {
        name: {"seconds": {str(k): v for k, v in points.items()},
               "exponent": fit_exponent(list(points), list(points.values()))}
        for name, points in sweeps.items()
    }
