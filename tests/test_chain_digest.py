"""Pinned behaviour of forward chaining, answering and consolidation.

Seeded random-rule KBs cover budgets 0-3, cyclic rules, rules whose
antecedent never becomes known, known ground sentences and
conjunctions, negated consequents and a 30-rule chain.  For each KB
the digest takes the full trace, the memory dump, plain and negated
answers, the memory after consolidation and a second chain over the
consolidated memory.  Any change to rule order, atom ids, rendered
sentences or answers moves the digest; it must also not depend on
PYTHONHASHSEED.
"""

from __future__ import annotations

import hashlib
import random

from intenlog import load_kb
from intenlog.kb import dump_memory

KB_COUNT = 80
CHAIN_LENGTH = 30
DIGEST_SHA256 = "e60d1d9267e704a42256c99d17dab344019f81d960fd715324203351bb87b0ab"


def random_kb(seed: int) -> tuple[str, int, list[str]]:
    """A seeded KB text, its chaining budget and the questions to answer."""
    rng = random.Random(seed)
    unary = [f"p{i}" for i in range(rng.randint(2, 6))]
    nullary = [f"s{i}" for i in range(rng.randint(1, 3))]
    never = [f"q{i}" for i in range(rng.randint(0, 2))]  # no facts, never known
    particulars = ["a", "b", "c"][: rng.randint(1, 3)]
    lines = [f"predicate {p}/1" for p in unary + never]
    lines += [f"predicate {s}/0" for s in nullary]
    lines += [f"particular {c}" for c in particulars]
    lines += [f"assert {p}({c})" for p in unary for c in particulars if rng.random() < 0.5]
    lines += [f"assert {s}()" for s in nullary if rng.random() < 0.5]

    def consequent(body):
        return f"~ {body}" if rng.random() < 0.15 else body

    for _ in range(rng.randint(1, 8)):
        kind = rng.random()
        if kind < 0.5:
            left, right = rng.choice(unary), rng.choice(unary)
            lines.append(f"rule {left}(?x) => {consequent(f'{right}(?x)')}")
        elif kind < 0.65 and never:
            lines.append(f"rule {rng.choice(never)}(?x) => {rng.choice(unary)}(?x)")
        elif kind < 0.85:
            left, right = rng.choice(nullary), rng.choice(nullary)
            lines.append(f"rule {left}() => {consequent(f'{right}()')}")
        else:
            c = rng.choice(particulars)
            lines.append(f"rule {rng.choice(unary)}({c}) => {rng.choice(nullary)}()")
    if rng.random() < 0.4:  # a guaranteed cycle
        first, second = rng.sample(unary, 2)
        lines += [f"rule {first}(?x) => {second}(?x)", f"rule {second}(?x) => {first}(?x)"]
    for _ in range(rng.randint(1, 3)):
        kind = rng.random()
        if kind < 0.4:
            lines.append(f"know << {rng.choice(unary)}(?x) >>_{{x}}")
        elif kind < 0.6:
            lines.append(f"know << {rng.choice(nullary)}() >>")
        elif kind < 0.8:
            lines.append(f"know << {rng.choice(unary)}({rng.choice(particulars)}) >>")
        else:
            s, p, c = rng.choice(nullary), rng.choice(unary), rng.choice(particulars)
            lines.append(f"know << {s}() /\\{{}} {p}({c}) >>")
    questions = [f"{p}({c})" for p in unary + never for c in particulars]
    questions += [f"{s}()" for s in nullary]
    questions += [f"~ {q}" for q in questions]
    return "\n".join(lines) + "\n", seed % 4, questions


def chain_kb(n: int) -> tuple[str, int, list[str]]:
    lines = [f"predicate p{i}/1" for i in range(n + 1)] + ["particular a", "assert p0(a)"]
    lines += [f"rule p{i}(?x) => p{i + 1}(?x)" for i in range(n)]
    lines.append("know << p0(?x) >>_{x}")
    questions = [f"p{i}(a)" for i in range(n + 1)] + [f"~ p{n}(a)"]
    return "\n".join(lines) + "\n", 1, questions


def session_record(text: str, budget: int, questions: list[str]) -> str:
    session = load_kb(text)
    out = [f"chain {len(session.chain(budget))}", f"rechain {len(session.chain(budget))}"]
    out.append(dump_memory(session))
    out += [f"{q}: {session.answer(session.parse(q))}" for q in questions]
    out.append(f"consolidate {len(session.consolidate('t1'))}")
    out.append(dump_memory(session))
    out.append(f"chain {len(session.chain(budget))}")
    out += [f"{s.rule} {s.inputs} {s.output} {s.sentence}" for s in session.trace]
    return "\n".join(out) + "\n"


def corpus_digest() -> str:
    h = hashlib.sha256()
    for seed in range(KB_COUNT):
        h.update(session_record(*random_kb(seed)).encode())
    h.update(session_record(*chain_kb(CHAIN_LENGTH)).encode())
    return h.hexdigest()


def test_random_kbs_match_pinned_digest():
    assert corpus_digest() == DIGEST_SHA256


if __name__ == "__main__":
    print(corpus_digest())
