"""Seeded command lists for the three benchmark workloads.

Each workload is a fixed list of slots.  A slot has ``VARIANTS`` variants of
the same shape and size that differ only in names and constants, so a run's
cost hardly depends on the seed while its inputs do.  The seed picks one
variant per slot.  Every variant's stdout digest is pinned in
``digests.json`` (written by ``pin.py``), which is why the catalog is finite.

Every command carries an expectation computed here, without lagc:
wl traces from the plain-integer interpreter in ``lang.py``, closed-form
interleaving counts for ``co`` nests, invocation balance and final values
for method calls, and ``equiv`` verdicts that hold by construction.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

from lang import co_nest, free_vars, render_program, render_stmt, run_wl

VARIANTS = 8


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``args`` refers to ``files`` as ``{0}``, ``{1}``."""

    slot: str
    args: tuple
    files: tuple
    check: tuple
    family: str = ""
    size: int = 0

    @property
    def key(self) -> str:
        blob = json.dumps({"args": self.args, "files": self.files}, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:24]

    @property
    def expected_rc(self) -> int:
        return self.check[1] if self.check[0] == "exit" else 0


def _zero_store(stmt, methods=()) -> dict:
    names = []
    for _, formal, body in methods:
        names.extend(v for v in free_vars(body) if v != formal)
    names.extend(free_vars(stmt))
    return dict.fromkeys(names, 0)


def render_store(store: dict) -> str:
    return "{" + ", ".join(f"{k}={store[k]}" for k in sorted(store)) + "}"


# ---------------------------------------------------------------------------
# wl-sequential: one long trace per program


_NAMES = ["x", "n", "cnt", "i", "k", "ctr", "left", "t", "w", "z"]


def wl_traces(slot: str, stmt, family: str = "", size: int = 0) -> Command:
    """``traces --lang wl``, expected output rendered from the interpreter."""
    states = run_wl(stmt, _zero_store(stmt))
    expected = "1 trace\n\n" + " ~> ".join(render_store(s) for s in states) + "\n"
    return Command(slot, ("traces", "{0}", "--lang", "wl"), (render_stmt(stmt),),
                   ("wl", expected), family, size)


def countdown(rng, n: int):
    v = rng.choice(_NAMES)
    low = rng.randrange(0, 50)
    return ("seq", [("asg", v, n + low),
                    ("while", ("rel", ">=", v, low + 1), ("asg", v, ("-", v, 1)))])


def straight_line(rng, n: int):
    names = rng.sample(_NAMES, 6)
    body = []
    for i in range(n):
        target = names[i % len(names)]
        if rng.random() < 0.3:
            value = rng.randrange(-20, 100)
        else:
            value = (rng.choice("+-"), rng.choice(names), rng.randrange(1, 10))
        body.append(("asg", target, value))
    return ("seq", body)


def nested_sum(rng, n: int):
    outer, inner, acc = rng.sample(_NAMES, 3)
    step = rng.randrange(1, 5)
    return ("seq", [
        ("asg", outer, n), ("asg", acc, 0),
        ("while", ("rel", ">=", outer, 1), ("seq", [
            ("asg", inner, outer),
            ("while", ("rel", ">=", inner, 1), ("seq", [
                ("asg", acc, ("+", acc, ("*", inner, step))),
                ("asg", inner, ("-", inner, 1))])),
            ("asg", outer, ("-", outer, 1))]))])


def factorial(rng, n: int):
    x, y = rng.sample(_NAMES, 2)
    return ("seq", [("asg", x, n), ("asg", y, 1),
                    ("while", ("rel", ">=", x, 2),
                     ("seq", [("asg", y, ("*", y, x)), ("asg", x, ("-", x, 1))]))])


def random_wl(shape, rng):
    """A random terminating program: assignments, if pairs and counted loops.

    ``shape`` fixes the block sequence and sizes, ``rng`` the names,
    expressions and constants.  Every variant of a shape executes the same
    number of steps: an if pair tests a variable neither body assigns, so
    exactly one body runs, and loops count down a private counter.
    """
    names = rng.sample(_NAMES, 4)

    def expr(depth):
        if depth == 0 or rng.random() < 0.4:
            return rng.choice(names) if rng.random() < 0.6 else rng.randrange(0, 20)
        op = rng.choice("+-+-*")
        right = rng.randrange(1, 4) if op == "*" else expr(depth - 1)
        return (op, expr(depth - 1), right)

    def assigns(count, targets=names):
        return [("asg", rng.choice(targets), expr(2)) for _ in range(count)]

    body = []
    for b in range(shape.randrange(5, 9)):
        kind = shape.choice(["asg", "if", "loop"])
        size = shape.randrange(1, 4)
        if kind == "asg":
            body.extend(assigns(size))
        elif kind == "if":
            test = ("rel", rng.choice(["<=", ">=", "=="]), names[0], rng.randrange(-5, 30))
            body.append(("if", test, ("seq", assigns(size, names[1:]))))
            body.append(("if", ("not", test), ("seq", assigns(size, names[1:]))))
        else:
            counter = f"c{b}"
            loop = ("seq", assigns(size) + [("asg", counter, ("-", counter, 1))])
            body += [("asg", counter, shape.randrange(3, 9)),
                     ("while", ("rel", ">=", counter, 1), loop)]
    return ("seq", body)


def diverging(rng):
    cond = rng.choice([("true",), ("rel", "<=", 0, 1), ("not", ("rel", "<=", 1, 0)),
                       ("rel", "==", 2, 2)])
    stmt = ("while", cond, ("skip",))
    return Command("diverge", ("traces", "{0}", "--lang", "wl", "--max-rounds", "5"),
                   (render_stmt(stmt),), ("exit", 3))


def _wl_sequential():
    slots = []
    for n in (100, 200, 400):
        slots.append((f"countdown-{n}",
                      lambda rng, n=n: wl_traces(f"countdown-{n}", countdown(rng, n), "countdown", n)))
    for n in (50, 100, 125):
        slots.append((f"straight-{n}",
                      lambda rng, n=n: wl_traces(f"straight-{n}", straight_line(rng, n), "straight", n)))
    slots.append(("nested-12", lambda rng: wl_traces("nested-12", nested_sum(rng, 12))))
    slots.append(("factorial-25", lambda rng: wl_traces("factorial-25", factorial(rng, 25))))
    for i in range(16):
        slots.append((f"random-{i}", lambda rng, i=i: wl_traces(
            f"random-{i}", random_wl(random.Random(f"shape-{i}"), rng))))
    slots.append(("diverge", diverging))
    return slots


def long_straight_line(seed: int) -> Command:
    """A 600-statement program: a known crash (RecursionError) in the seed engine."""
    rng = random.Random(f"straight-600:{seed % VARIANTS}")
    return wl_traces("straight-600", straight_line(rng, 600), "straight", 600)


# ---------------------------------------------------------------------------
# ext-interleave: many short traces from co nests


def _values(rng, count: int) -> list:
    """Values that each differ from the one before (the first from 0)."""
    out, last = [], 0
    for _ in range(count):
        value = rng.choice([v for v in range(1, 60) if v != last])
        out.append(value)
        last = value
    return out


def interleave(slot: str, rng, sizes, fmt="text", scoped=(), guarded=(), outer_scope=False,
               family="", size=0) -> Command:
    """``co`` nest of ``len(sizes)`` branches, branch j making ``sizes[j]`` assignments.

    Every branch owns its variable and every assignment changes it, so each
    interleaving of visible steps gives a distinct trace.  A scoped branch
    declares its variable (one more visible step, under its fresh name); a
    guarded branch waits on a condition that always holds (a silent step).
    """
    names = rng.sample(["a", "b", "c", "d", "e", "f", "u", "v"], len(sizes))
    branches, steps = [], []
    for j, (name, count) in enumerate(zip(names, sizes)):
        values = _values(rng, count)
        body = ("seq", [("asg", name, v) for v in values])
        if j in scoped:
            fresh = f"${name}::Scope"
            branch_steps = [(fresh, 0)] + [(fresh, v) for v in values]
            body = ("scope", [name], body)
        else:
            branch_steps = [(name, v) for v in values]
        if j in guarded:
            body = ("guard", ("rel", "<=", "g", rng.randrange(0, 9)), body)
        branches.append(body)
        steps.append(branch_steps)
    main = co_nest(branches)
    prefix = []
    if outer_scope:
        main = ("scope", ["o"], main)
        prefix = [("$o::Scope", 0)]
    start = _zero_store(main)
    args = ("traces", "{0}") + (("--format", "json") if fmt == "json" else ())
    check = ("interleave", fmt, start, tuple(prefix), tuple(map(tuple, steps)))
    return Command(slot, args, (render_stmt(main),), check, family, size)


def _ext_interleave():
    specs = [
        # slot, sizes, format, scoped branches, guarded branches, outer scope, family
        ("k2-2x2", (2, 2), "text", (), (), False, True),
        ("k2-2x1", (2, 1), "text", (), (), False, False),
        ("k2-3x2-json", (3, 2), "json", (), (), False, False),
        ("k2-3x3-scope", (3, 3), "text", (1,), (0,), False, False),
        ("k2-2x2-json", (2, 2), "json", (), (), False, False),
        ("k2-3x3", (3, 3), "text", (), (), False, False),
        ("k2-4x3-scope", (4, 3), "text", (0,), (), False, False),
        ("k2-3x3-guard-json", (3, 3), "json", (), (1,), True, False),
        ("k3-1x1x1", (1, 1, 1), "text", (), (), False, True),
        ("k3-1x1x1-json", (1, 1, 1), "json", (), (), False, False),
        ("k3-2x1x1-guard", (2, 1, 1), "text", (), (0,), False, False),
        ("k3-2x2x1", (2, 2, 1), "text", (), (), False, True),
        ("k3-2x2x1-json", (2, 2, 1), "json", (), (), False, False),
        ("k3-2x1x1-scope-json", (2, 1, 1), "json", (0,), (), True, False),
        ("k3-2x2x2", (2, 2, 2), "text", (), (), False, True),
        ("k3-2x2x2-json", (2, 2, 2), "json", (), (), False, False),
        ("k3-2x2x1-scope", (2, 2, 1), "text", (2,), (), True, False),
        ("k3-2x2x1-guard-json", (2, 2, 1), "json", (), (1,), False, False),
        ("k3-3x2x2", (3, 2, 2), "text", (), (), False, True),
        ("k4-1x1x1x1", (1, 1, 1, 1), "text", (), (), False, True),
        ("k4-1x1x1x1-json", (1, 1, 1, 1), "json", (), (), False, False),
        ("k4-2x1x1x1-scope", (2, 1, 1, 1), "text", (3,), (1,), False, False),
        ("k4-2x2x1x1", (2, 2, 1, 1), "text", (), (), False, True),
        ("k4-2x2x1x1-json", (2, 2, 1, 1), "json", (), (), False, False),
        ("k4-2x2x2x1", (2, 2, 2, 1), "text", (), (), False, True),
    ]
    slots = []
    for slot, sizes, fmt, scoped, guarded, outer, in_family in specs:
        def build(rng, slot=slot, sizes=sizes, fmt=fmt, scoped=scoped, guarded=guarded,
                  outer=outer, in_family=in_family):
            traces = multinomial([n + (j in scoped) for j, n in enumerate(sizes)])
            return interleave(slot, rng, sizes, fmt, scoped, guarded, outer,
                              "interleave" if in_family else "", traces)
        slots.append((slot, build))
    return slots


def multinomial(counts) -> int:
    """(Σ nᵢ)! / ∏ nᵢ!, the number of interleavings of the branches."""
    total, out = 0, 1
    for n in counts:
        for i in range(1, n + 1):
            total += 1
            out = out * total // i
    return out


# ---------------------------------------------------------------------------
# ext-calls: methods, calls, inputs and guards; traces and equiv


def calls_traces(slot: str, methods, main, finals=None, family="", size=0) -> Command:
    """``traces`` on a program with calls.

    Expected: every reaction follows an unmatched invocation, every
    invocation is answered, and ``finals`` (variable -> value) holds at the
    end of every trace.
    """
    check = ("calls", dict(finals or {}))
    return Command(slot, ("traces", "{0}"), (render_program(methods, main),), check, family, size)


def equiv(slot: str, left, right, same: bool) -> Command:
    return Command(slot, ("equiv", "{0}", "{1}"), (render_program(*left), render_program(*right)),
                   ("equiv", same))


def _args(rng, count):
    return rng.sample(range(1, 40), count)


def calls_m(rng, m: int):
    """One method, m calls with distinct arguments."""
    method, formal, target = rng.choice([("foo", "p", "r"), ("put", "q", "s"), ("m", "a", "out")])
    body = ("asg", target, (rng.choice("+-"), formal, rng.randrange(0, 9)))
    main = ("seq", [("call", method, v) for v in _args(rng, m)])
    return [(method, formal, body)], main


def two_methods(rng, with_input=False):
    """f and g with one call each; their results are order independent."""
    a, b = _args(rng, 2)
    c1, c2 = rng.randrange(1, 9), rng.randrange(2, 5)
    methods = [("f", "p", ("asg", "r1", ("+", "p", c1))),
               ("g", "q", ("asg", "r2", ("*", "q", c2)))]
    main = [("call", "f", a), ("call", "g", b)]
    finals = {"r1": a + c1, "r2": b * c2}
    if with_input:
        main = [("input", "x"), ("call", "f", ("+", "x", a)), ("call", "g", b)]
    return methods, ("seq", main), finals


def three_calls_two_methods(rng):
    """f is called twice, so only g's result is order independent."""
    methods, (_, main), finals = two_methods(rng)
    again = ("call", "f", main[0][2] + rng.randrange(1, 9))
    del finals["r1"]
    return methods, ("seq", main + [again]), finals


def guarded_reaction(rng):
    """Main waits, behind a guard, for a reaction to set a flag."""
    value, extra = rng.randrange(1, 30), rng.randrange(1, 9)
    methods = [("set", "p", ("asg", "flag", "p"))]
    main = ("seq", [("call", "set", value),
                    ("guard", ("rel", ">=", "flag", 1), ("asg", "d", ("+", "flag", extra)))])
    return methods, main, {"flag": value, "d": value + extra}


def _ext_calls():
    slots = []
    for m in (1, 2, 3):
        slots.append((f"calls-{m}", lambda rng, m=m: calls_traces(
            f"calls-{m}", *calls_m(rng, m), family="calls", size=m)))
    for i in range(4):
        slots.append((f"calls-2-extra-{i}", lambda rng, i=i: calls_traces(
            f"calls-2-extra-{i}", *calls_m(rng, 2))))
    for i in range(3):
        slots.append((f"two-methods-{i}", lambda rng, i=i: calls_traces(
            f"two-methods-{i}", *two_methods(rng))))
    slots.append(("calls-3-two-methods", lambda rng: calls_traces(
        "calls-3-two-methods", *three_calls_two_methods(rng))))
    for i in range(3):
        slots.append((f"input-call-{i}", lambda rng, i=i: calls_traces(
            f"input-call-{i}", *two_methods(rng, with_input=True))))
    for i in range(4):
        slots.append((f"guard-react-{i}", lambda rng, i=i: calls_traces(
            f"guard-react-{i}", *guarded_reaction(rng))))

    def skip_prefix(rng):
        methods, main = calls_m(rng, 2)
        return equiv("equiv-skip", (methods, main), (methods, ("seq", [("skip",), main])), True)

    def method_order(rng):
        methods, main, _ = two_methods(rng)
        return equiv("equiv-order", (methods, main), (methods[::-1], main), True)

    def co_swap(rng):
        methods, main, _ = two_methods(rng)
        left, right = main[1]
        return equiv("equiv-co-swap", (methods, ("co", left, right)),
                     (methods, ("co", right, left)), True)

    def arg_changed(rng):
        methods, main = calls_m(rng, 2)
        first, second = main[1]
        changed = ("call", second[1], second[2] + 40)
        return equiv("equiv-arg", (methods, main), (methods, ("seq", [first, changed])), False)

    def body_changed(rng):
        methods, main, _ = two_methods(rng)
        (f, p, (_, target, (op, var, const))), g = methods
        other = [(f, p, ("asg", target, (op, var, const + 1))), g]
        return equiv("equiv-body", (methods, main), (other, main), False)

    def guard_vs_if(rng):
        methods, main, _ = guarded_reaction(rng)
        return equiv("equiv-if-true", (methods, main),
                     (methods, ("if", ("true",), main)), True)

    def three_calls(rng):
        methods, main = calls_m(rng, 3)
        return equiv("equiv-3-calls", (methods, main), (methods, ("seq", [("skip",), main])), True)

    for build in (skip_prefix, method_order, co_swap, arg_changed, body_changed, guard_vs_if,
                  three_calls):
        slots.append((build.__name__, build))
    return slots


WORKLOADS = {
    "wl-sequential": _wl_sequential,
    "ext-interleave": _ext_interleave,
    "ext-calls": _ext_calls,
}


def variant(workload: str, slot: str, build, v: int) -> Command:
    return build(random.Random(f"{workload}:{slot}:{v}"))


def commands(workload: str, seed: int) -> list:
    """The command list of one pass: one variant per slot, chosen by ``seed``."""
    pick = random.Random(seed)
    return [variant(workload, slot, build, pick.randrange(VARIANTS))
            for slot, build in WORKLOADS[workload]()]


def catalog(workload: str):
    """Every variant of every slot, for pinning digests."""
    for slot, build in WORKLOADS[workload]():
        for v in range(VARIANTS):
            yield variant(workload, slot, build, v)
