"""Time to a checked verdict, per workload.

    python3 perfbench/run.py --workload pt-chain --seed 0 --seconds 20 --trace 0

Run from the repository root. The workload's inputs are generated from
``--seed``; passes over them run back to back (a closed loop, one instance
after another) until the next pass would end after ``--seconds``, with at
least one pass. Every verdict is checked against the workload's referee and
every witness is replayed. The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines before it
print every metric by name and unit. The exit code is 1 when any instance
failed.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs every
instance twice, once untraced and once with the layer spans of ``spans.py``
installed, alternating which goes first, and reports the per-layer metrics:
self times and counts per pass (means over the passes), plus the tracing
overhead, traced minus untraced wall time. The spans are written to
``.perfbench/trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 10

PER_LAYER_COUNTS = (
    "separability.candidate_pairs",
    "separability.anchors",
    "automata.dfa_states",
    "automata.min_states",
    "oracles.probes",
    "oracles.inconclusive_probes",
)


def import_program():
    """Put the checkout's ``src`` first on the path and insist that ``ptsep``
    comes from there, so a run never measures some other installed copy."""
    sys.path.insert(0, str(ROOT / "src"))
    import ptsep

    where = Path(ptsep.__file__).resolve().parent
    if where != ROOT / "src" / "ptsep":
        raise SystemExit(f"ptsep was imported from {where}, not from this checkout")


@dataclass
class Pass:
    wall: float = 0.0
    times: list[float] = field(default_factory=list)
    failed: int = 0
    conclusive: int = 0

    def add(self, workload, i: int, inp) -> None:
        """Run one instance to a checked verdict and record it."""
        t0 = time.perf_counter()
        try:
            problem, conclusive = workload.check(inp, workload.params)
        except Exception:
            problem, conclusive = traceback.format_exc(), False
        self.times.append(time.perf_counter() - t0)
        self.conclusive += conclusive
        if problem is not None:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAILED {workload.name} instance {i}: {problem}", file=sys.stderr)


def run_pass(workload, inputs) -> Pass:
    out = Pass()
    start = time.perf_counter()
    for i, inp in enumerate(inputs):
        out.add(workload, i, inp)
    out.wall = time.perf_counter() - start
    return out


def paired_pass(workload, inputs, tracer) -> tuple[Pass, Pass]:
    """Each instance once untraced and once traced, alternating which runs
    first, so that a machine that slows down during the run does not show up
    as tracing overhead. Wall times are the sums of the instance times."""
    untraced, traced = Pass(), Pass()
    for i, inp in enumerate(inputs):
        tracer.instance = i
        for on in ((False, True) if i % 2 == 0 else (True, False)):
            if on:
                with tracer:
                    traced.add(workload, i, inp)
            else:
                untraced.add(workload, i, inp)
    untraced.wall, traced.wall = sum(untraced.times), sum(traced.times)
    return untraced, traced


def measure(step, seconds: float) -> list:
    """Repeat ``step`` until the next repetition would end after ``seconds``;
    at least once."""
    results, walls = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(step())
        walls.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return results


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that leaves at least ten
    samples beyond it. Below twenty samples that percentile says little (the
    ladders have sixteen or six instances), so it is the maximum."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def setup_samples(args, repeats: int) -> list[float]:
    """Times from process start until the inputs are ready (interpreter
    start, imports, input generation), one per fresh process. Each child
    reports its own time against the system-wide monotonic clock, so the wait
    for the child to exit is not counted."""
    samples = []
    for _ in range(repeats):
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only", repr(time.monotonic())]
        out = subprocess.run(cmd, check=True, cwd=ROOT, timeout=120, capture_output=True, text=True)
        samples.append(float(out.stdout))
    return samples


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, n_inputs: int, passes: list[Pass], setup: list[float]) -> dict:
    tails = [tail(p.times) for p in passes]
    print(
        f"instance_ms.tail is p{tails[0][1]:.2f} of {n_inputs} instances per pass,"
        f" median over {len(passes)} pass(es)"
    )
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "wall_s": metric(statistics.median(p.wall for p in passes), "s"),
        "instance_ms.p50": metric(1000 * statistics.median(statistics.median(p.times) for p in passes), "ms"),
        "instance_ms.tail": metric(1000 * statistics.median(t[0] for t in tails), "ms"),
        "conclusive_share": metric(passes[0].conclusive / n_inputs, "share"),
    }


def per_layer(args, workload, inputs) -> tuple[dict, list[Pass]]:
    from spans import CALLER_SPANS, SPANS, Tracer

    tracer = Tracer()
    pairs = measure(lambda: paired_pass(workload, inputs, tracer), args.seconds)
    if tracer.missing:
        print("trace: missing wrapped names (their spans are absent): " + ", ".join(tracer.missing))
    n = len(pairs)
    selfs = {k: v / n for k, v in tracer.self_times().items()}
    counts = {k: v / n for k, v in tracer.counts.items()}
    untraced_wall = statistics.fmean(u.wall for u, _ in pairs)
    traced_wall = statistics.fmean(t.wall for _, t in pairs)
    spanned = sum(selfs.values())
    layer_names = dict.fromkeys([*SPANS.values(), *CALLER_SPANS.values()])
    out = {f"{name}_s": metric(selfs.get(name, 0.0), "s") for name in layer_names}
    out.update({name: metric(counts.get(name, 0.0), "count") for name in PER_LAYER_COUNTS})
    bp_pairs = counts.get("separability.pairs", 0.0)
    probes = counts.get("oracles.probes", 0.0)
    out["separability.reachable_pair_ratio"] = metric(
        counts.get("separability.reachable_pairs", 0.0) / bp_pairs if bp_pairs else 0.0, "ratio"
    )
    out["oracles.probe_yield"] = metric(
        (probes - counts.get("oracles.inconclusive_probes", 0.0)) / probes if probes else 0.0, "ratio"
    )
    out["trace.wall_s"] = metric(traced_wall, "s")
    out["trace.overhead_s"] = metric(traced_wall - untraced_wall, "s")
    out["trace.count_s"] = metric(selfs.get("trace.count", 0.0), "s")
    out["trace.unspanned_s"] = metric(traced_wall - spanned, "s")
    layers = spanned - selfs.get("trace.count", 0.0)
    print(
        f"trace: {n} paired pass(es) of {len(inputs)} instances; layer self times add up to"
        f" {layers:.4f} s; traced wall {traced_wall:.4f} s minus overhead"
        f" {traced_wall - untraced_wall:.4f} s = untraced wall {untraced_wall:.4f} s"
    )
    path = ROOT / ".perfbench" / f"trace-{workload.name}-seed{args.seed}.json"
    tracer.write(path)
    print(f"trace: spans written to {path.relative_to(ROOT)}")
    return out, [p for pair in pairs for p in pair]


def main(argv=None) -> int:
    import_program()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None, help="default: the acceptance suite's seed")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", type=float, metavar="START", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.seed is None:
        args.seed = workload.default_seed

    inputs = workload.inputs(args.seed)
    if args.setup_only is not None:
        print(time.monotonic() - args.setup_only)
        return 0

    if args.trace:
        metrics, passes = per_layer(args, workload, inputs)
    else:
        # Half the set-up samples before the timed passes and half after, so
        # that their median does not hang on the machine's speed during one
        # burst of a few seconds.
        setup = setup_samples(args, SETUP_REPEATS // 2)
        passes = measure(lambda: run_pass(workload, inputs), args.seconds)
        setup += setup_samples(args, SETUP_REPEATS - len(setup))
        metrics = end_to_end(workload, len(inputs), passes, setup)
        # Reported but not gated: on pair-crosscheck one pair in several
        # seeds' corpora runs an unbudgeted separator search that lifts the
        # peak by 70%.
        print(f"peak_rss_mb = {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MB")
    attempted = sum(len(p.times) for p in passes)
    failed = sum(p.failed for p in passes)
    print(
        f"{workload.name} seed {args.seed}: {len(passes)} pass(es) of {len(inputs)} instances;"
        f" conclusive {passes[0].conclusive}/{len(inputs)}; failed_share {failed / attempted:.4f}"
    )
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
