"""Outside-in tracing of lagc's layers, installed from the benchmark.

lagc's modules bind each other's functions with ``from .x import f``, so a
wrapper must replace the name in the namespace of each caller.  The callers
are ``lagc.cli``, ``lagc.compose`` and ``lagc.render``; every global there
that is one of the target functions gets the wrapper.  A function calling
itself inside its own module stays unwrapped, so counts are top-level calls.

Each call records a span (name, start, end, parent, command id) in flat
arrays kept in memory.  A span's self time is its duration minus the
durations of its direct children and minus the time the counting hooks
below spent on its children's results.
"""

from __future__ import annotations

import importlib
from array import array
from time import perf_counter

TARGETS = {
    "parser": ("parse_program",),
    "localeval": ("valuate",),
    "trace": ("semantic_chop", "invocation_wellformed", "harvest_params"),
    "concretize": ("min_conc_map_trace", "concretize_trace"),
    "state": ("vargen",),
    "syntax": ("canon_key",),
    "compose": ("compose_wl", "compose_ext", "successors_wl", "successors_ext",
                "successors1", "successors2", "basic_successors"),
    "render": ("sorted_traces", "render_traces"),
}
CALLERS = ("cli", "compose", "render")
ROOT_SPAN = "cli.main"
LAYERS = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)
COUNTS = ("compose.successor_calls", "compose.distinct_expanded", "localeval.returned",
          "localeval.kept", "trace.invocation_wellformed.accepted",
          "concretize.concretize_trace.atoms_in", "render.traces_out", "render.atoms_out")


class Tracer:
    def __init__(self):
        self.names = [ROOT_SPAN] + list(LAYERS)
        self.name_id = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("H")
        self.parent = array("l")
        self.command = array("l")
        self.start = array("d")
        self.end = array("d")
        self.hook_s = array("d")
        self.stack = [-1]
        self.cmd = -1
        self.counts = dict.fromkeys(COUNTS, 0)
        self._expanded = set()
        self._installed = []

    def reset(self):
        """Drop recorded spans and counts; installed wrappers keep working."""
        for column in (self.span_name, self.parent, self.command, self.start, self.end,
                       self.hook_s):
            del column[:]
        self.counts.update(dict.fromkeys(COUNTS, 0))

    def begin_command(self, cmd: int):
        self.cmd = cmd
        self._expanded = set()

    def end_command(self):
        self.counts["compose.distinct_expanded"] += len(self._expanded)
        self._expanded = set()

    # -- spans ---------------------------------------------------------------

    def wrap(self, name: str, fn, hook=None):
        nid = self.name_id[name]
        span_name, parent, command = self.span_name, self.parent, self.command
        start, end, hook_s, stack = self.start, self.end, self.hook_s, self.stack

        def traced(*args, **kwargs):
            i = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            command.append(self.cmd)
            end.append(0.0)
            hook_s.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(args, result)
                if stack[-1] >= 0:
                    hook_s[stack[-1]] += perf_counter() - end[i]
            return result

        return traced

    def install(self):
        """Rebind every target function in the caller modules to its wrapper."""
        hooks = self._hooks()
        callers = [importlib.import_module(f"lagc.{c}") for c in CALLERS]
        for mod, fns in TARGETS.items():
            module = importlib.import_module(f"lagc.{mod}")
            for fn in fns:
                original = getattr(module, fn, None)
                if original is None:
                    continue
                name = f"{mod}.{fn}"
                wrapper = self.wrap(name, original, hooks.get(name))
                for caller in callers:
                    for attr, value in list(vars(caller).items()):
                        if value is original:
                            setattr(caller, attr, wrapper)
                            self._installed.append((caller, attr, original))

    def uninstall(self):
        for caller, attr, original in reversed(self._installed):
            setattr(caller, attr, original)
        self._installed.clear()

    # -- counting hooks ----------------------------------------------------

    def _hooks(self) -> dict:
        counts = self.counts

        def expanded(config):
            counts["compose.successor_calls"] += 1
            self._expanded.add(hash(config))

        def successors_wl(args, result):
            expanded(args[0])
            counts["localeval.kept"] += len(result)

        def successors_ext(args, result):
            expanded(args[1])

        def basic_successors(args, result):
            counts["localeval.kept"] += len(result)

        def valuate(args, result):
            counts["localeval.returned"] += len(result)

        def invocation_wellformed(args, result):
            counts["trace.invocation_wellformed.accepted"] += bool(result)

        def concretize_trace(args, result):
            counts["concretize.concretize_trace.atoms_in"] += len(args[1])

        def render_traces(args, result):
            counts["render.traces_out"] += len(args[0])
            counts["render.atoms_out"] += sum(len(t) for t in args[0])

        hooks = {
            "compose.successors_wl": successors_wl,
            "compose.successors_ext": successors_ext,
            "compose.basic_successors": basic_successors,
            "localeval.valuate": valuate,
            "trace.invocation_wellformed": invocation_wellformed,
            "concretize.concretize_trace": concretize_trace,
            "render.render_traces": render_traces,
        }
        return hooks

    # -- aggregation -------------------------------------------------------

    def summary(self) -> dict:
        """Calls and self time per span name, plus the counters."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = dict.fromkeys(self.names, 0)
        self_s = dict.fromkeys(self.names, 0.0)
        total_root = 0.0
        for i in range(n):
            name = self.names[self.span_name[i]]
            duration = self.end[i] - self.start[i]
            calls[name] += 1
            self_s[name] += duration - child[i] - self.hook_s[i]
            if self.parent[i] < 0:
                total_root += duration
        return {"calls": calls, "self_s": self_s, "root_s": total_root,
                "hooks_s": sum(self.hook_s), "counts": dict(self.counts), "spans": n}

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as out:
            out.write("span\tname\tparent\tcommand\tstart\tend\n")
            for i in range(len(self.start)):
                out.write(f"{i}\t{self.names[self.span_name[i]]}\t{self.parent[i]}\t"
                          f"{self.command[i]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n")
