"""lagc benchmark: seeded CLI workloads driven through ``lagc.cli.main``.

Usage, from the repository root:

    python3 bench/run.py --workload wl-sequential --seed 1 --seconds 20 --trace 0

One process, one thread, a closed loop: each pass runs the workload's
command list in order, each command after the previous one finishes, and
passes repeat until ``--seconds`` have gone by (the pass under way is
finished).  Every command's exit code and stdout are checked against an
expectation computed without lagc (``workloads.py``, ``checks.py``) and
against the SHA-256 digest pinned for it in ``digests.json``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs an
untraced pass, two traced passes and another untraced pass, and reports
per-layer calls, self times and counters (see ``tracer.py``), the tracing
overhead, the scaling slopes of the size families and the known-defect
probe.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 2, with no
result printed, when lagc's sources are not next to the benchmark.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".run"
SETUPS = 9
REFERENCE_S = 0.003

sys.path.insert(0, str(HERE))

from checks import check  # noqa: E402
from tracer import LAYERS, ROOT_SPAN, Tracer  # noqa: E402
from workloads import WORKLOADS, commands, long_straight_line  # noqa: E402

DIGESTS = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))


def import_cli():
    """Import ``lagc.cli`` afresh from ``src/``, dropping earlier imports."""
    for name in [m for m in sys.modules if m == "lagc" or m.startswith("lagc.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    cli = importlib.import_module("lagc.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"lagc was imported from {cli.__file__}, not from {SRC}")
    return cli


def materialize(command, directory: Path, index: int) -> list:
    """Write the command's program files and return its argv."""
    paths = []
    for j, text in enumerate(command.files):
        path = directory / f"c{index:02d}_{j}.prog"
        path.write_text(text, encoding="utf-8")
        paths.append(str(path))
    return [arg.format(*paths) for arg in command.args]


def setup(workload: str, seed: int):
    """Import lagc and build the inputs; this is what ``setup_s`` times."""
    cli = import_cli()
    directory = WORK / f"{workload}-{seed}"
    directory.mkdir(parents=True, exist_ok=True)
    cmds = commands(workload, seed)
    argvs = [materialize(c, directory, i) for i, c in enumerate(cmds)]
    return cli, cmds, argvs


def execute(main, argv):
    """Run one CLI command in process: (exit code, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = main(argv)
        except Exception as exc:  # an uncaught error is a failed command, not a stop
            rc = type(exc).__name__
        seconds = time.perf_counter() - start
    return rc, out.getvalue(), seconds


class Ledger:
    """Counts attempted and failed commands and remembers why they failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def verify(self, command, rc, out: str, independent: bool):
        self.attempted += 1
        digest = hashlib.sha256(out.encode()).hexdigest()
        pinned = DIGESTS.get(command.key)
        why = ""
        if pinned is None:
            why = "no pinned digest"
        elif [rc, digest] != pinned:
            why = f"exit {rc} / digest {digest[:12]} differ from pinned {pinned[0]} / {pinned[1][:12]}"
        if not why and independent:
            why = check(command, rc, out)
        if why:
            self.failures.append(f"{command.slot}: {why}")


@dataclass(frozen=True)
class _Atom:
    state: tuple


@dataclass(frozen=True)
class _Config:
    trace: tuple
    left: int


def calibrate() -> float:
    """Time a fixed loop doing lagc's kind of work, without lagc.

    The VM's speed drifts by ±25% over seconds to minutes.  This loop grows
    tuples of frozen dataclasses, hashes them into sets (which rehashes the
    whole tuple, as composition does) and fills a dict, so the ratio of a
    command's time to the loop's time, measured right around the command,
    holds steady where the raw time does not.
    """
    start = time.perf_counter()
    for _ in range(2):
        seen = set()
        config = _Config((_Atom((("x", 0),)),), 60)
        while config.left:
            state = (("x", config.left), ("y", config.left & 7))
            config = _Config(config.trace + (_Atom(state),), config.left - 1)
            seen.add(config)
    table = {}
    for i in range(4000):
        key = (i, i & 255, "k")
        table[key] = hash(key)
    return time.perf_counter() - start


def reference(seconds: float, loops) -> float:
    """Scale a time to the speed at which the calibration loop takes ``REFERENCE_S``.

    ``loops`` are calibration times taken just before and just after; their
    median ignores one loop slowed by a stray interruption.
    """
    return seconds * REFERENCE_S / statistics.median(loops)


def run_pass(main, cmds, argvs, ledger: Ledger, independent: bool, tracer=None) -> tuple:
    """Run every command once: (raw seconds, reference seconds) per command."""
    raw, ref = [], []
    for i, (command, argv) in enumerate(zip(cmds, argvs)):
        gc.collect()
        loops = [calibrate(), calibrate()]
        if tracer is not None:
            tracer.begin_command(i)
        rc, out, seconds = execute(main, argv)
        if tracer is not None:
            tracer.end_command()
        loops += [calibrate(), calibrate()]
        raw.append(seconds)
        ref.append(reference(seconds, loops))
        ledger.verify(command, rc, out, independent)
    return raw, ref


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(cli, cmds, argvs, seconds: float, ledger: Ledger) -> dict:
    raw_passes, passes = [], []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        raw, ref = run_pass(cli.main, cmds, argvs, ledger, independent=not passes)
        raw_passes.append(raw)
        passes.append(ref)
    samples = [t for times in passes for t in times]
    raw_samples = [t for times in raw_passes for t in times]
    per_command = [statistics.median(times) for times in zip(*passes)]
    print(f"# {len(passes)} passes x {len(cmds)} commands = {len(samples)} samples; "
          f"raw cmd_s.p50 {statistics.median(raw_samples):.6f}, "
          f"raw cmd_s.p90 {statistics.quantiles(raw_samples, n=10)[8]:.6f}", flush=True)
    return {
        "cmd_s.p50": metric(statistics.median(samples), "s"),
        "cmd_s.p90": metric(statistics.quantiles(samples, n=10)[8], "s"),
        "cmds_per_s": metric(len(cmds) / sum(per_command), "1/s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def slope(points) -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(size) for size, _ in points]
    ys = [math.log(seconds) for _, seconds in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx if sxx else 0.0


FAMILIES = ("countdown", "straight", "interleave", "calls")


def per_layer(cli, cmds, argvs, ledger: Ledger, workload: str, seed: int) -> dict:
    _, untraced = run_pass(cli.main, cmds, argvs, ledger, independent=True)
    tracer = Tracer()
    main = tracer.wrap(ROOT_SPAN, cli.main)
    tracer.install()
    try:
        _, traced = run_pass(main, cmds, argvs, ledger, independent=False, tracer=tracer)
        first = tracer.summary()
        tracer.write_spans(WORK / f"spans-{workload}-{seed}.tsv")
        tracer.reset()
        _, traced_again = run_pass(main, cmds, argvs, ledger, independent=False, tracer=tracer)
        second = tracer.summary()
    finally:
        tracer.uninstall()
    _, untraced_again = run_pass(cli.main, cmds, argvs, ledger, independent=False)
    untraced_s = (sum(untraced) + sum(untraced_again)) / 2
    traced_s = (sum(traced) + sum(traced_again)) / 2
    families = {f: [] for f in FAMILIES}
    for command, a, b in zip(cmds, untraced, untraced_again):
        if command.family:
            families[command.family].append((command.size, (a + b) / 2))
    repeat = first["calls"] == second["calls"] and first["counts"] == second["counts"]
    if not repeat:
        print("# FAILED self-check: traced counts differ between two traced passes", flush=True)

    probe = long_straight_line(seed)
    argv = materialize(probe, WORK / f"{workload}-{seed}", 99)
    rc, out, _ = execute(cli.main, argv)
    probe_why = check(probe, rc, out)
    if probe_why:
        print(f"# known defect, straight-600: {probe_why}", flush=True)

    calls, self_s, counts = first["calls"], first["self_s"], first["counts"]
    root = first["root_s"]
    other = self_s[ROOT_SPAN]
    coverage = 1 - other / root if root else 0.0
    if coverage < 0.9:
        print(f"# warning: wrapped layers cover {coverage:.1%} of cli.main time", flush=True)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name in LAYERS:
        out[f"{name}.calls"] = metric(calls[name], "count")
        out[f"{name}.self_s"] = metric(self_s[name], "s")
    out["other.self_s"] = metric(other, "s")
    out["trace.coverage"] = metric(coverage, "ratio")
    out["trace.overhead_s"] = metric(traced_s - untraced_s, "s")
    out["trace.untraced_s"] = metric(untraced_s, "s")
    out["trace.counts_repeat"] = metric(int(repeat), "bool")
    out["trace.spans"] = metric(first["spans"], "count")
    out["machine.calibration_s"] = metric(statistics.median(calibrate() for _ in range(25)), "s")
    out["compose.expand_ratio"] = metric(
        ratio(counts["compose.distinct_expanded"], counts["compose.successor_calls"]), "ratio")
    out["localeval.kept_ratio"] = metric(
        ratio(counts["localeval.kept"], counts["localeval.returned"]), "ratio")
    out["trace.invocation_wellformed.accept_ratio"] = metric(
        ratio(counts["trace.invocation_wellformed.accepted"],
              calls["trace.invocation_wellformed"]), "ratio")
    out["concretize.concretize_trace.atoms_in"] = metric(
        counts["concretize.concretize_trace.atoms_in"], "count")
    out["render.traces_out"] = metric(counts["render.traces_out"], "count")
    out["render.atoms_out"] = metric(counts["render.atoms_out"], "count")
    for family, points in families.items():
        out[f"scaling.{family}.slope"] = metric(slope(points) if len(points) > 1 else 0.0,
                                                "ratio")
    out["probe.straight600.failed"] = metric(int(bool(probe_why)), "count")
    return out


def run_all(args) -> int:
    """Run every workload in a fresh process and print all metrics by name."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            print(f"{workload:15s} {name:45s} {value['value']:.6g} {value['unit']}", flush=True)
            combined["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(combined), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    setups = []
    try:
        for _ in range(SETUPS if args.trace == 0 else 1):
            loops = [calibrate(), calibrate()]
            start = time.perf_counter()
            cli, cmds, argvs = setup(args.workload, args.seed)
            seconds = time.perf_counter() - start
            setups.append(reference(seconds, loops + [calibrate(), calibrate()]))
    except ImportError as exc:
        print(f"error: cannot import lagc from {SRC}: {exc}", file=sys.stderr)
        return 2

    ledger = Ledger()
    if args.trace:
        metrics = per_layer(cli, cmds, argvs, ledger, args.workload, args.seed)
        repeat = metrics["trace.counts_repeat"]["value"] == 1
    else:
        repeat = True
        metrics = {"setup_s": metric(statistics.median(setups), "s")}
        metrics.update(measure(cli, cmds, argvs, args.seconds, ledger))
    for failure in ledger.failures:
        print(f"# FAILED {failure}", flush=True)
    result = {
        "correct": not ledger.failures and repeat,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
