"""Independent output checks: parse lagc's output and test it against the
expectation a command carries.  Nothing here imports lagc.

A parsed trace is a list of atoms: ``("state", {name: int})`` or
``("event", kind, (arg, ...))``.
"""

from __future__ import annotations

import json
import re

from workloads import multinomial

_HEADER = re.compile(r"(\d+) traces?\n")
_EVENT = re.compile(r"Event\((\w+), \[(.*)\]\)")


def _state(text: str) -> dict:
    inner = text[1:-1]
    if not inner:
        return {}
    return {name: int(value) for name, _, value in
            (entry.partition("=") for entry in inner.split(", "))}


def _atom(text: str):
    if text.startswith("{"):
        return ("state", _state(text))
    match = _EVENT.fullmatch(text)
    if not match:
        raise ValueError(f"unreadable atom {text!r}")
    args = tuple(a for a in match.group(2).split(", ") if a)
    return ("event", match.group(1), args)


def parse_text(out: str) -> list:
    match = _HEADER.match(out)
    if not match:
        raise ValueError("missing trace-count header")
    lines = out[match.end():].split("\n")
    # Each trace is a blank line followed by the trace line; the text ends in a newline.
    if lines[-1] != "" or lines[0::2][:-1] != [""] * (len(lines) // 2):
        raise ValueError("trace blocks are not separated by blank lines")
    traces = [[_atom(a) for a in line.split(" ~> ")] for line in lines[1::2]]
    if len(traces) != int(match.group(1)):
        raise ValueError(f"header says {match.group(1)} traces, found {len(traces)}")
    return traces


def parse_json(out: str) -> list:
    traces = []
    for raw in json.loads(out)["traces"]:
        trace = []
        for atom in raw:
            if "state" in atom:
                trace.append(("state", {k: int(v) for k, v in atom["state"].items()}))
            else:
                event = atom["event"]
                trace.append(("event", event["kind"], tuple(event["args"])))
        traces.append(trace)
    return traces


def _freeze(trace) -> tuple:
    return tuple((a[0], tuple(sorted(a[1].items()))) if a[0] == "state" else a for a in trace)


def check_interleave(traces, start: dict, prefix, branches) -> str:
    """Every trace is an interleaving of the branches' visible steps, all distinct.

    A step is ``(variable, value)``; each is owned by one branch.  With the
    closed-form count (Σnᵢ)!/∏nᵢ! of distinct valid traces, the set is exact.
    """
    owner = {var: j for j, steps in enumerate(branches) for var, _ in steps}
    expected_count = multinomial(len(steps) for steps in branches)
    if len(traces) != expected_count:
        return f"expected {expected_count} traces, got {len(traces)}"
    if len({_freeze(t) for t in traces}) != len(traces):
        return "duplicate traces"
    for trace in traces:
        if any(a[0] != "state" for a in trace):
            return "unexpected event in an interleaving"
        states = [a[1] for a in trace]
        if states[0] != start:
            return f"first state {states[0]} is not {start}"
        changes = []
        for before, after in zip(states, states[1:]):
            diff = [(k, v) for k, v in after.items() if before.get(k) != v]
            if len(diff) != 1 or set(before) - set(after):
                return f"step {before} -> {after} is not one assignment"
            changes.append(diff[0])
        if changes[:len(prefix)] != list(prefix):
            return f"trace does not start with {prefix}"
        per_branch = [[] for _ in branches]
        for change in changes[len(prefix):]:
            if change[0] not in owner:
                return f"step {change} belongs to no branch"
            per_branch[owner[change[0]]].append(change)
        if per_branch != [list(steps) for steps in branches]:
            return "a branch's steps are out of order"
    return ""


def check_calls(traces, finals: dict) -> str:
    """Reactions follow unmatched invocations, every invocation is answered,
    and ``finals`` holds in the last state of every trace."""
    if not traces:
        return "no traces"
    if len({_freeze(t) for t in traces}) != len(traces):
        return "duplicate traces"
    for trace in traces:
        pending: dict = {}
        for atom in trace:
            if atom[0] != "event" or atom[1] == "inpEv":
                continue
            if atom[1] == "invEv":
                pending[atom[2]] = pending.get(atom[2], 0) + 1
            elif atom[1] == "invREv":
                if pending.get(atom[2], 0) < 1:
                    return f"reaction {atom[2]} without a pending invocation"
                pending[atom[2]] -= 1
            else:
                return f"unknown event kind {atom[1]}"
        if any(pending.values()):
            return f"unanswered invocations {pending}"
        last = trace[-1]
        if last[0] != "state":
            return "trace ends in an event"
        wrong = {k: v for k, v in finals.items() if last[1].get(k) != v}
        if wrong:
            return f"final values {wrong} differ from {finals}"
    return ""


def check(command, rc: int, out: str) -> str:
    """Empty string when the output meets the command's expectation, else why not."""
    if rc != command.expected_rc:
        return f"exit code {rc}, expected {command.expected_rc}"
    kind = command.check[0]
    try:
        if kind == "wl":
            return "" if out == command.check[1] else "trace differs from the interpreter"
        if kind == "exit":
            return "" if out == "" else "unexpected output"
        if kind == "equiv":
            want = "equivalent\n" if command.check[1] else "not equivalent\n"
            return "" if out == want else f"verdict {out.strip()!r}, expected {want.strip()!r}"
        if kind == "interleave":
            _, fmt, start, prefix, branches = command.check
            traces = parse_json(out) if fmt == "json" else parse_text(out)
            return check_interleave(traces, start, prefix, branches)
        if kind == "calls":
            return check_calls(parse_text(out), command.check[1])
    except (ValueError, KeyError) as exc:
        return f"unreadable output: {exc}"
    raise ValueError(f"unknown check {kind!r}")
