"""fuzzbit benchmark: three seeded workloads, closed loop, one process.

    python3 perfbench/run.py --workload sim-dense --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  One client calls `fuzzbit.cli.main` in-process, sending the next
request when the last one returns.  Requests come from a deck of seeded
inputs (see decks.py) that is replayed whole until `--seconds` have passed.
Every output is checked against an independent reference after the timed
loop.  `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
metrics from a traced run.  The last line of standard output is one JSON
object; the lines before it are the same figures for people to read.
`--workload all` runs each workload in turn in its own process.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from operator import add, mul
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import decks  # noqa: E402
import reference as ref  # noqa: E402
import tracing  # noqa: E402
from hostspeed import REFERENCE_NS, HostSpeed  # noqa: E402

SETUP_REPEATS = 7
IMPORT_CHECK = "import sys; sys.path.insert(0, sys.argv[1]); import fuzzbit.cli"
END_TO_END = (
    ("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"))
PER_LAYER = tracing.layer_metrics(decks.VERIFY_STANDARD_CASES)


def set_up(workload: str, seed: int, directory: Path, speed: HostSpeed | None):
    """Import the CLI in a fresh interpreter and generate the inputs, several times.

    Returns the deck and each repetition's time, at reference host speed
    and unscaled.  Every repetition must produce byte-identical inputs.
    Writing the files is left out of the time: it is the benchmark's own
    I/O, and on the machine named in README.md it spread 37 % from one
    repetition to the next.
    """
    times, raw_times, digests = [], [], set()
    for _ in range(SETUP_REPEATS):
        spent = speed.spent_ns if speed else 0
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_CHECK, str(SRC)], check=True)
        deck = decks.build(workload, seed)
        end = time.perf_counter()
        busy = end - start - ((speed.spent_ns - spent) / 1e9 if speed else 0)
        times.append(busy * (speed.scale(start, end) if speed else 1.0))
        raw_times.append(busy)
        digests.add(deck.digest())
    if len(digests) != 1:
        raise RuntimeError("input generation is not deterministic")
    deck.write(directory)
    return deck, times, raw_times


def run_op(cli, argv: list, speed: HostSpeed | None):
    """One request; returns its time in ns, less any host-speed sampling, and its output."""
    out, err = io.StringIO(), io.StringIO()
    spent = speed.spent_ns if speed else 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter_ns()
        try:
            code = cli.main(argv)
        except Exception as exc:  # the CLI must never raise; the op counts as failed
            code = f"raised {exc!r}"
        end = time.perf_counter_ns()
    return end - start - ((speed.spent_ns - spent) if speed else 0), (code, out.getvalue(),
                                                                       err.getvalue())


class Loop:
    """Replays the deck; remembers the first cycle's outputs and later differences."""

    def __init__(self, cli, argvs: list, speed: HostSpeed | None = None):
        self.cli, self.argvs, self.speed = cli, argvs, speed
        self.cycles: list = []  # (start s, end s, [latency ns per op])
        self.first: list | None = None
        self.differs = [0] * len(argvs)

    def cycle(self, tracer: tracing.Tracer | None = None) -> float:
        """Run the deck once; returns its busy time in seconds."""
        start = time.perf_counter()
        outputs, latencies = [], []
        for i, argv in enumerate(self.argvs):
            if tracer is not None:
                tracer.request = i
            ns, output = run_op(self.cli, argv, self.speed)
            latencies.append(ns)
            outputs.append(output)
        self.cycles.append((start, time.perf_counter(), latencies))
        if self.first is None:
            self.first = outputs
        else:
            for i, (got, want) in enumerate(zip(outputs, self.first)):
                self.differs[i] += got != want
        return sum(latencies) / 1e9

    def latencies_ms(self, scaled: bool) -> list:
        """Each cycle's per-op latencies in ms, at reference host speed or unscaled."""
        cycles = []
        for start, end, latencies in self.cycles:
            scale = self.speed.scale(start, end) if scaled else 1.0
            cycles.append([ns / 1e6 * scale for ns in latencies])
        return cycles

    def failures(self, deck: decks.Deck) -> tuple[int, list]:
        """Failed ops over all cycles, and a reason for each op that failed."""
        failed, reasons = 0, []
        for op, output, differs in zip(deck.ops, self.first, self.differs):
            reason = op.check(*output) if isinstance(output[0], int) else output[0]
            if reason is not None:
                failed += len(self.cycles)
                reasons.append(f"{' '.join(map(str, op.argv))}: {reason}")
            elif differs:
                failed += differs
                reasons.append(f"{' '.join(map(str, op.argv))}: output changed between cycles")
        return failed, reasons


def tail(latencies_ms: list, percentile: float) -> tuple[float, int]:
    """(value, ops beyond it): the interpolated percentile of the ops' latencies."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    rank = (n - 1) * percentile / 100
    lo = int(rank)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo), n - 1 - lo


def timing(cycles_ms: list, ops: int, percentile: float) -> tuple[dict, int]:
    """Rate and latencies of a run's cycles, and how many ops lie beyond the tail.

    Every cycle runs the same deck, so an op's latency is its median over
    the cycles, and the percentiles are taken over the deck's ops: they read
    the same deck positions however many cycles a run makes.
    """
    busy_s = sum(map(sum, cycles_ms)) / 1e3
    per_op = [statistics.median(times) for times in zip(*cycles_ms)]
    tail_ms, beyond = tail(per_op, percentile)
    return {"ops_per_s": ops / busy_s, "op_p50_ms": statistics.median(per_op),
            "op_tail_ms": tail_ms}, beyond


def scalar_costs(deck: decks.Deck, seed: int) -> dict:
    """ns per call of the scalar operations, on operands from the workload's states."""
    from fuzzbit.algebra import UnitScalar, oplus, wedge

    pools = {model: list(values) for model, values in deck.scalars.items()}
    for program in deck.programs:
        pools.setdefault(program.model, []).extend(ref.simulate(program)[-1])
    rng = random.Random(f"scalars/{seed}")

    def pairs(values, convert=lambda x: x):
        return [(convert(rng.choice(values)), convert(rng.choice(values))) for _ in range(500)]

    unit = pairs(pools["fuzzy"], UnitScalar)
    rational = pairs(pools.get("stochastic") or pools["fuzzy"])
    cases = {"oplus": (oplus, unit), "wedge": (wedge, unit), "fraction_add": (add, rational),
             "fraction_mul": (mul, rational), "complex_mul": (mul, pairs(pools["quantum"]))}
    costs = {}
    for name, (fn, operands) in cases.items():
        batches = []
        for _ in range(7):
            start = time.perf_counter_ns()
            for _ in range(20):
                for x, y in operands:
                    fn(x, y)
            batches.append((time.perf_counter_ns() - start) / (20 * len(operands)))
        costs[name] = statistics.median(batches)
    return costs


def layer_values(aggs: list, cycle_times: list, untraced_s: float, hit_ratio: float,
                 costs: dict, deck: decks.Deck) -> dict:
    stats = aggs[0]["stats"]
    cycles = len(aggs)
    self_s = {}
    for agg in aggs:
        for name, (_, ns, _) in agg["stats"].items():
            self_s[name] = self_s.get(name, 0.0) + ns / 1e9 / cycles
    steps = aggs[0]["steps"]
    values = {}
    for name, _, _ in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = stats.get(base, (0,))[0]
        elif field == "self_s":
            values[name] = self_s.get(base, 0.0)
        elif field in ("scalar_ops", "cases") and base != "work":
            values[name] = stats.get(base, (0, 0, 0))[2]
    values.update({f"algebra.{op}.ns_per_call": costs[op] for op in tracing.ALGEBRA_OPS})
    values.update({
        "models.builtin_gate.hit_ratio": hit_ratio,
        "circuit.gate_checks_per_step": aggs[0]["gate_checks"] / steps if steps else 0.0,
        "circuit.lifted_entries_per_step": aggs[0]["lifted"] / steps if steps else 0.0,
        "trace.overhead_ratio": statistics.mean(cycle_times) / untraced_s,
        "work.ops": len(deck.ops) * deck.laws_per_op,
        "work.entries": sum(op.entries for op in deck.ops),
        "work.cases": sum(op.cases for op in deck.ops),
    })
    return {name: values[name] for name, _, _ in PER_LAYER}


def run_traced(loop: Loop, seconds: int, builtin_gate) -> dict:
    """One untraced cycle, then traced cycles until `seconds` have passed."""
    untraced_s = loop.cycle()
    tracer = tracing.Tracer()
    tracer.install()
    aggs, cycle_times, first_spans, hit_ratio = [], [], None, 0.0
    try:
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or not aggs:
            builtin_gate.cache_clear()  # so that every traced cycle does the same work
            cycle_times.append(loop.cycle(tracer))
            if not aggs:
                info = builtin_gate.cache_info()
                lookups = info.hits + info.misses
                hit_ratio = info.hits / lookups if lookups else 0.0
            spans = tracer.take()
            aggs.append(tracing.aggregate(spans))
            first_spans = first_spans or spans
    finally:
        tracer.uninstall()
    return {"aggs": aggs, "cycle_times": cycle_times, "untraced_s": untraced_s,
            "hit_ratio": hit_ratio, "first_spans": first_spans}


def traced_report(run: dict, deck: decks.Deck, workload: str, seed: int,
                  report: list) -> tuple[dict, bool]:
    """Per-layer values, and whether the exact counts repeated in every cycle."""
    aggs = run["aggs"]
    first_counts = tracing.exact_counts(aggs[0])
    exact_ok = all(tracing.exact_counts(a) == first_counts for a in aggs[1:])
    if not exact_ok:
        report.append("ERROR: exact work counts differ between traced cycles")
    spans_path = HERE / "out" / f"spans-{workload}-seed{seed}.jsonl"
    tracing.write_spans(spans_path, run["first_spans"])
    report.append(f"spans of the first traced cycle: {spans_path.relative_to(ROOT)}")
    for group, by_name in sorted(tracing.self_by_group(
            run["first_spans"], lambda request: deck.ops[request].kind).items()):
        total = sum(by_name.values())
        top = sorted(by_name.items(), key=lambda item: -item[1])[:3]
        report.append(f"self time of {group} requests: " + ", ".join(
            f"{name} {ns / total:.0%}" for name, ns in top))
    report.append(f"traced cycles {len(aggs)} after one untraced; values are per cycle")
    values = layer_values(aggs, run["cycle_times"], run["untraced_s"], run["hit_ratio"],
                          scalar_costs(deck, seed), deck)
    return values, exact_ok


def end_to_end_values(loop: Loop, deck: decks.Deck, workload: str, ops: int,
                      setup: tuple[list, list], speed: HostSpeed,
                      report: list) -> dict:
    """The end-to-end metrics at reference host speed.  The report also gets
    them unscaled, and the rates of state-vector entries and law cases."""
    percentile = decks.TAIL_PERCENTILE[workload]
    values, beyond = timing(loop.latencies_ms(scaled=True), ops, percentile)
    raw, _ = timing(loop.latencies_ms(scaled=False), ops, percentile)
    values["setup_s"], raw["setup_s"] = map(statistics.median, setup)
    values["peak_rss_mb"] = raw["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    ratios = [REFERENCE_NS / ns for _, ns in speed.samples]
    report.append(f"times are at reference host speed; kernel speed ratio median "
                  f"{statistics.median(ratios):.3f}, range {min(ratios):.3f}-"
                  f"{max(ratios):.3f}, {len(ratios)} samples")
    report.append("unscaled: " + ", ".join(f"{name} {raw[name]:.6g}" for name, _ in END_TO_END))
    report.append(f"op_tail_ms is p{percentile:g} over the {len(deck.ops)} requests' median "
                  f"latencies; {beyond} requests, {beyond * len(loop.cycles)} samples beyond it")
    report.append("setup_s samples " + " ".join(f"{t:.4f}" for t in setup[0]))
    for name, per_deck in (("entries_per_s", sum(op.entries for op in deck.ops)),
                           ("cases_per_s", sum(op.cases for op in deck.ops))):
        if per_deck:  # ops_per_s times a deck constant, so not a metric of its own
            rate = values["ops_per_s"] * per_deck * len(loop.cycles) / ops
            report.append(f"{name} {rate:.6g} 1/s ({per_deck} per deck)")
    return {name: values[name] for name, _ in END_TO_END}


def measure(workload: str, seed: int, seconds: int, traced: bool, workdir: Path) -> int:
    speed = None if traced else HostSpeed()
    with speed or contextlib.nullcontext():
        directory = workdir / "inputs"
        deck, *setup = set_up(workload, seed, directory, speed)
        sys.path.insert(0, str(SRC))
        import fuzzbit.cli as cli
        from fuzzbit.models import builtin_gate

        loop = Loop(cli, [deck.argv(op, directory) for op in deck.ops], speed)
        start = time.perf_counter()
        if traced:
            traced_run = run_traced(loop, seconds, builtin_gate)
        else:
            while time.perf_counter() - start < seconds or not loop.cycles:
                loop.cycle()
        wall_s = time.perf_counter() - start

    failed_ops, reasons = loop.failures(deck)
    requests = len(loop.cycles) * len(deck.ops)
    ops = requests * deck.laws_per_op
    failed = failed_ops * deck.laws_per_op
    report = [f"workload {workload} seed {seed} seconds {seconds} trace {int(traced)}",
              f"inputs sha256:{deck.digest()} ({len(deck.files)} files, "
              f"{len(deck.ops)} requests per cycle)",
              f"cycles {len(loop.cycles)} requests {requests} ops {ops} wall_s {wall_s:.3f}",
              f"failed_ratio {failed / ops:.6g} ({failed}/{ops})"]
    report += [f"FAILED {reason}" for reason in reasons[:20]]
    if traced:
        values, exact_ok = traced_report(traced_run, deck, workload, seed, report)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        values = end_to_end_values(loop, deck, workload, ops, setup, speed, report)
        exact_ok = True
        units = dict(END_TO_END)
    correct = failed == 0 and exact_ok
    for name, value in values.items():
        report.append(f"{name} {value if isinstance(value, int) else f'{value:.6g}'} "
                      f"{units[name]}")
    print("\n".join(report))
    print(json.dumps({"correct": correct, "attempted": ops, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in values.items()}}))
    return 0  # a wrong output is reported through "correct", not the exit code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=decks.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fuzzbit" / "cli.py").is_file():
        print(f"error: no fuzzbit sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", w, "--seed",
                                 str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for w in decks.WORKLOADS]
        return max(codes)
    workdir = HERE / ".work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        return measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
