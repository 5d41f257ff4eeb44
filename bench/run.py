"""Benchmark of the graphkt commands.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one thread, one closed-loop caller: the workload's commands
are sent to ``graphkt.cli.main(argv)`` in-process, each only after the
previous one returned, with stdout captured.  The command list repeats
until ``--seconds`` have passed (at least one full pass).  Every output is
checked against :mod:`oracle` the first time and must repeat byte for
byte afterwards; a command that exits nonzero or fails its check counts
in ``failed``.

With ``--trace 0`` the last stdout line reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` each command runs untraced and then
traced (see :mod:`tracer`) and it reports the per-layer metrics.  A
human-readable summary goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import corpus
import oracle
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 25
TAIL_BEYOND = 10  # samples above the reported tail latency


def import_graphkt():
    """Import graphkt afresh from this checkout's source tree."""
    for name in [n for n in sys.modules if n == "graphkt" or n.startswith("graphkt.")]:
        del sys.modules[name]
    cli = importlib.import_module("graphkt.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"graphkt imported from {cli.__file__}, not from {SRC}")
    return cli


def set_up(workload, seed, work):
    """Import graphkt afresh and generate the workload, SETUP_REPEATS
    times, then write its files into `work` once.  The write is not timed:
    rewriting the same 82 files varied from 9 to 60 ms between repeats on a
    2-CPU Linux container, and graphkt cannot change that cost.  Returns
    the CLI module, the commands and the median set-up time."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        cli = import_graphkt()
        commands, files = corpus.build(workload, seed, work)
        times.append(perf_counter() - start)
    corpus.write(files)
    return cli, commands, statistics.median(times)


class Caller:
    """Runs commands, times them and checks what they print."""

    def __init__(self, cli, commands):
        self.cli = cli
        self.commands = commands
        self.first_output = [None] * len(commands)  # (exit code, stdout, correct)
        self.attempted = 0
        self.failed = 0

    def call(self, index):
        command = self.commands[index]
        out = io.StringIO()
        code = None
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = self.cli.main(command.argv)
        except Exception:
            traceback.print_exc()
        elapsed = perf_counter() - start
        self.attempted += 1
        if not self._correct(index, code, out.getvalue()):
            self.failed += 1
        return elapsed

    def _correct(self, index, code, stdout):
        if self.first_output[index] is None:
            try:
                self.commands[index].check(code, stdout)
                correct = True
            except (oracle.Mismatch, ValueError, KeyError, TypeError) as exc:
                print(f"wrong output: {self.commands[index].label}: {exc!r}", file=sys.stderr)
                correct = False
            self.first_output[index] = (code, stdout, correct)
            return correct
        first_code, first_stdout, correct = self.first_output[index]
        if (code, stdout) != (first_code, first_stdout):
            print(f"output changed on repeat: {self.commands[index].label}", file=sys.stderr)
            return False
        return correct


def measure(caller, seconds):
    """Cycle through the commands until `seconds` have passed, finishing
    at least one pass and starting no command expected to end past the
    deadline.  Returns each command's latency samples."""
    samples = [[] for _ in caller.commands]
    deadline = perf_counter() + seconds
    for index in range(len(caller.commands)):
        samples[index].append(caller.call(index))
    index = 0
    while perf_counter() + statistics.median(samples[index]) <= deadline:
        samples[index].append(caller.call(index))
        index = (index + 1) % len(caller.commands)
    return samples


def end_to_end(caller, seconds, setup_s):
    samples = measure(caller, seconds)
    latency = sorted(statistics.median(s) for s in samples)
    if len(latency) > TAIL_BEYOND:
        pool, tail_index = latency, len(latency) - TAIL_BEYOND - 1
    else:  # no percentile has TAIL_BEYOND commands beyond it: slowest sample
        pool = sorted(x for s in samples for x in s)
        tail_index = len(pool) - 1
    wall = sum(latency)
    graphs = sum(c.graphs for c in caller.commands)
    values = {
        "setup_s": setup_s,
        "wall_s": wall,
        "latency_p50_s": statistics.median(latency),
        "latency_tail_s": pool[tail_index],
        "graphs_per_s": graphs / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = (
        f"commands per pass {len(samples)}, samples {sum(map(len, samples))}, "
        f"tail = sample {tail_index + 1} of {len(pool)} "
        f"(p{100 * (tail_index + 1) / len(pool):.0f})"
    )
    return values, notes


def per_layer(caller, seconds, names):
    """Run passes until `seconds` have passed (at least one), calling each
    command untraced and then traced.  Timings are medians over passes;
    counts come from the first pass and must repeat exactly.  The tracing
    overhead is the sum over commands of the median of (traced - untraced)
    over their adjacent pairs, so a drift in host speed between passes
    does not enter it."""
    tracer = Tracer()
    layers, gaps, pass_times = [], [[] for _ in caller.commands], []
    deadline = perf_counter() + seconds
    while not layers or perf_counter() + pass_times[-1] <= deadline:
        start = perf_counter()
        tracer.reset()
        for index, gap in enumerate(gaps):
            untraced = caller.call(index)
            tracer.install()
            try:
                gap.append(caller.call(index) - untraced)
            finally:
                tracer.uninstall()
        layers.append(tracer.summary())
        pass_times.append(perf_counter() - start)
    values = {}
    for name in names:
        span, _, quantity = name.rpartition(".")
        if span == "trace":
            values[name] = sum(statistics.median(gap) for gap in gaps)
        elif quantity in ("s", "self_s"):
            values[name] = statistics.median(layer[span][quantity] for layer in layers)
        else:
            counts = {int(layer[span][quantity]) for layer in layers}
            if len(counts) > 1:
                print(f"count {name} differs between traced passes: {counts}", file=sys.stderr)
                caller.failed += 1
            values[name] = int(layers[0][span][quantity])
    notes = f"traced passes {len(layers)}, spans in last pass {len(tracer.spans)}"
    return values, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        parser.error("run without -O: graphkt's assert-based theorem checks are part of the work")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(SRC))

    with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=ROOT) as work:
        cli, commands, setup_s = set_up(args.workload, args.seed, Path(work))
        caller = Caller(cli, commands)
        if args.trace:
            values, notes = per_layer(caller, args.seconds, [m["name"] for m in metrics])
        else:
            values, notes = end_to_end(caller, args.seconds, setup_s)

    print(f"{args.workload} seed {args.seed}: {notes}", file=sys.stderr)
    for m in metrics:
        print(f"  {m['name']} = {values[m['name']]} {m['unit']}", file=sys.stderr)
    print(f"  failed_frac = {caller.failed / caller.attempted} "
          f"({caller.failed} of {caller.attempted})", file=sys.stderr)
    print(json.dumps({
        "correct": caller.failed == 0,
        "attempted": caller.attempted,
        "failed": caller.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
