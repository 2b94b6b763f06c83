"""Seeded end-to-end and per-layer benchmark of the lettergraphs CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One process imports the package from src/,
generates the workload's instance files from the seed (set-up, repeated
three times), then calls lettergraphs.cli.main once per operation, file in
and file out, in passes over the workload's fixed operation list (a closed
loop with one client) until the next pass would end after --seconds; an
untraced run then fills the window with the operations that still fit.
Every answer is checked afterwards by checks.py.  Times are reported in
calibrated seconds (see calibrate).  With --trace 0 the last
stdout line carries the end-to-end metrics; with --trace 1 untraced and
traced passes alternate and it carries the per-layer metrics, self times
measured by tracing.py.  The lines before it are a readable report.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
# Far above the slowest operation kept (about 5 s), so only a hang trips it.
OP_CAP_S = 60.0
# No operation starts later than this after launch, so a run ends in time.
RUN_LIMIT_S = 100.0
# Nominal time of one calibrate() call: a calibrated second is a wall second
# scaled by CALIBRATION_REF_S over the calibration time measured around it.
CALIBRATION_REF_S = 0.060
# Within a pass the kernel runs before an operation when it last ran at
# least this long ago, and once more at the end.
CALIBRATION_EVERY_S = 1.0

END_TO_END = {"setup_s": "s", "throughput_ops_s": "1/s", "peak_rss_mb": "MB"}
# Printed with every run but reported in the traced run only: each is one
# operation's time, which moves with the machine's speed more than the
# bounds allow.
LATENCY = {"latency_p50_ms": "ms", "latency_p90_ms": "ms"}
TOTALS = ("decode_s", "retrieve_word_s", "verify_s", "nd_s", "sym_lettericity_s",
          "retrieve_decoder_s", "retrieve_decoder_all_s", "retrieve_coloring_s")
SELF_TIMES = (
    "documents.parse_instance", "documents.dump_json", "cli.main", "graphs.Graph.init",
    "letters.decode", "word_retrieval.retrieve_word", "diversity.twin_partition",
    "diversity.symmetric_witness", "decoder_retrieval.build_formula",
    "decoder_retrieval.forced_pair_word", "decoder_retrieval.pair_subinstance",
    "decoder_retrieval.cascade_word", "decoder_retrieval.block_subinstance",
    "decoder_retrieval.verify_decoder", "twosat.solve_2sat",
    "coloring_retrieval.find_isomorphism", "oracles.enumerate_decoders",
)
CALL_COUNTS = ("graphs.Graph.init", "decoder_retrieval.classify_pair",
               "decoder_retrieval.verify_decoder")
PER_LAYER = {
    **LATENCY,
    **{f"{label}.self_s": "s" for label in SELF_TIMES},
    **{f"{label}.calls": "count" for label in CALL_COUNTS},
    "decoder_retrieval.verify_decoder.pass_ratio": "ratio",
    "twosat.solve_2sat.clauses": "count",
    "twosat.solve_2sat.variables": "count",
    "trace.overhead_ratio": "ratio",
    **{name: "s" for name in TOTALS},
    "inputs.palindromic_share": "ratio",
    "inputs.infeasible_share": "ratio",
    "inputs.twin_share": "ratio",
    "known_defect_failures": "count",
    "wall_throughput_ops_s": "1/s",
    "calibration_ms": "ms",
}


def calibrate() -> float:
    """Wall seconds of a fixed pure-Python kernel that never calls lettergraphs.

    The shared host's speed drifts by up to a third within a minute, and the
    kernel's time drifts with it, so timed steps are scaled by the kernel's
    time measured around them.  Its two halves take about equal time and
    mirror the program's two kinds of work: the first builds a few megabytes
    of dicts, tuples and strings and round-trips them through JSON, as the
    documents and graph builders do; the second refines vertex labels of a
    fixed 400-vertex graph by sorted neighbour signatures, as the search
    solvers do.  Either half alone tracked one of the workloads less well.
    """
    start = time.perf_counter()
    table = {}
    for i in range(15000):
        table[(i * 7919) % 1000003] = (i, str(i))
    rows = [table[key] for key in sorted(table, reverse=True)]
    json.loads(json.dumps(rows))
    n = 400
    neighbours = [[] for _ in range(n)]
    for i in range(n):
        for d in range(1, 5):
            j = (i * i + d * 97) % n
            if j != i:
                neighbours[i].append(j)
                neighbours[j].append(i)
    labels = [len(vs) for vs in neighbours]
    for _ in range(36):
        signatures = [(labels[i], tuple(sorted(labels[j] for j in neighbours[i])))
                      for i in range(n)]
        relabel = {sig: k for k, sig in enumerate(sorted(set(signatures)))}
        labels = [relabel[sig] for sig in signatures]
    return time.perf_counter() - start


def calibrated(step) -> tuple[float, float]:
    """Run step(); return its wall seconds and its calibration scale."""
    before = calibrate()
    start = time.perf_counter()
    step()
    seconds = time.perf_counter() - start
    return seconds, 2 * CALIBRATION_REF_S / (before + calibrate())


class Calibration:
    """Kernel times of one pass, taken between its operations."""

    def __init__(self):
        self.times = [calibrate()]
        self.last = time.perf_counter()

    def sample(self, force: bool = False) -> None:
        if force or time.perf_counter() - self.last >= CALIBRATION_EVERY_S:
            self.times.append(calibrate())
            self.last = time.perf_counter()

    def scale(self) -> float:
        return CALIBRATION_REF_S / statistics.mean(self.times)


class OpTimeout(Exception):
    """Raised in the main thread when an operation exceeds OP_CAP_S."""


def _alarm(signum, frame):
    raise OpTimeout(f"over the {OP_CAP_S:.0f} s per-operation cap")


@dataclass
class Sample:
    op: object
    seconds: float
    code: Optional[int]
    error: Optional[str]
    out: Path
    scale: float = 1.0
    failure: Optional[str] = None

    @property
    def calibrated_s(self) -> float:
        return self.seconds * self.scale


def import_package():
    """Import lettergraphs from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import lettergraphs
    if src.resolve() not in Path(lettergraphs.__file__).resolve().parents:
        raise ImportError(f"lettergraphs resolved to {lettergraphs.__file__}, outside {src}")


def set_up(name: str, seed: int, workload, work: Path) -> tuple[float, dict[str, str]]:
    """Generate, serialize and write every instance file.

    Returns the calibrated seconds it took and the file texts.
    """
    from lettergraphs import serialize_instance
    from workloads import instance_rng

    texts = {}

    def generate():
        for spec in workload.specs:
            text = serialize_instance(spec.build(instance_rng(name, seed, spec.key)))
            (work / f"{spec.key}.json").write_text(text, encoding="utf-8")
            texts[spec.key] = text

    seconds, scale = calibrated(generate)
    return seconds * scale, texts


def run_op(op, work: Path, out: Path, deadline: float) -> Sample:
    from lettergraphs import cli

    if time.perf_counter() > deadline:
        return Sample(op, 0.0, None, "not started: run time limit reached", out)
    argv = [op.argv[0], str(work / f"{op.instance}.json"), "-o", str(out), *op.argv[1:]]
    gc.collect()
    code = error = None
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
    try:
        code = cli.main(argv)
    except (Exception, SystemExit) as exc:
        error = f"{type(exc).__name__}: {str(exc)[:200]}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return Sample(op, time.perf_counter() - start, code, error, out)


def run_pass(ops, work: Path, number: int, deadline: float, tracer=None,
             until: float = math.inf, estimate=None) -> list[Sample]:
    """Run the operations once each, in order; times are scaled by the pass's calibration.

    With estimate, an operation that estimate(op) seconds from now would end
    after until is skipped.
    """
    samples = []
    calibration = Calibration()
    for i, op in enumerate(ops):
        if estimate is not None and time.perf_counter() + estimate(op) > until:
            continue
        if tracer is not None:
            tracer.op = i
        calibration.sample()
        samples.append(run_op(op, work, work / f"out-{number}-{i}.json", deadline))
    calibration.sample(force=True)
    for s in samples:
        s.scale = calibration.scale()
    return samples


def check(sample: Sample, facts) -> Optional[str]:
    """Why the sample failed, or None when its answer checks out."""
    from checks import CheckFailed, check_answer

    if sample.error is not None:
        return sample.error
    if sample.code != sample.op.expected:
        return f"exit code {sample.code}, expected {sample.op.expected}"
    try:
        answer = json.loads(sample.out.read_text(encoding="utf-8"))
        check_answer(sample.op.argv[0], facts[sample.op.instance], answer, sample.op.expected)
    except CheckFailed as exc:
        return f"wrong answer: {exc}"
    except (OSError, ValueError, KeyError, TypeError, AttributeError, IndexError) as exc:
        return f"unreadable answer: {type(exc).__name__}: {exc}"
    return None


def op_medians(timed: list[Sample], ops, seconds) -> list[float]:
    """Each operation's median time, seconds(sample) being a sample's time."""
    return [statistics.median(seconds(s) for s in timed if s.op is op) for op in ops]


def throughput(timed: list[Sample], ops, seconds) -> float:
    """Correct answers per second of a pass that runs each operation in its median time.

    Operations run a different number of times when the last pass is
    partial, so the rate is taken over medians, not over all samples.
    """
    correct = sum(statistics.mean(not s.failure for s in timed if s.op is op) for op in ops)
    return correct / (sum(op_medians(timed, ops, seconds)) or math.inf)


def instance_properties(workload, facts) -> dict[str, dict]:
    expected = {op.instance: op.expected for op in (*workload.ops, *workload.probes)}
    props = {}
    for spec in workload.specs:
        f = facts[spec.key]
        props[spec.key] = {
            "family": spec.family,
            "n": f.n,
            "k": len(f.alphabet) if f.alphabet is not None else None,
            "edges": len(f.edges),
            "neighborhood_diversity": f.twin_classes(),
            "palindromic_word": None if f.word is None else f.word == f.word[::-1],
            "expected_exit": expected[spec.key],
        }
    return props


def layer_metrics(traced_passes, untraced_passes, props, workload, probe_failures, totals,
                  host):
    def med(values):
        return statistics.median(values) if values else 0.0

    tables, counts, samples = zip(*traced_passes)
    metrics = {}
    for label in SELF_TIMES:
        metrics[f"{label}.self_s"] = med([t.get(label, [0, 0, 0.0])[2] for t in tables])
    for label in CALL_COUNTS:
        metrics[f"{label}.calls"] = med([t.get(label, [0])[0] for t in tables])
    verify = "decoder_retrieval.verify_decoder"
    metrics[f"{verify}.pass_ratio"] = med(
        [c[f"{verify}.passed"] / t[verify][0] for t, c, _ in traced_passes if verify in t])
    for what in ("clauses", "variables"):
        metrics[f"twosat.solve_2sat.{what}"] = med([c[f"twosat.solve_2sat.{what}"] for c in counts])
    untraced = med([sum(s.calibrated_s for s in p) for p in untraced_passes])
    traced = med([sum(s.calibrated_s for s in p) for p in samples])
    metrics["trace.overhead_ratio"] = traced / untraced - 1 if untraced else 0.0
    metrics |= totals
    ops = workload.ops
    metrics["inputs.palindromic_share"] = sum(
        bool(props[op.instance]["palindromic_word"]) for op in ops) / len(ops)
    metrics["inputs.infeasible_share"] = sum(op.expected == 1 for op in ops) / len(ops)
    metrics["inputs.twin_share"] = 1 - (
        sum(props[op.instance]["neighborhood_diversity"] for op in ops)
        / sum(props[op.instance]["n"] for op in ops))
    metrics["known_defect_failures"] = probe_failures
    return metrics | host


def write_trace(path: Path, info: dict, tracer, props, untraced_passes, traced_passes) -> None:
    label_ids = {label: i for i, label in enumerate(sorted({s[0] for s in tracer.spans}))}
    document = {
        **info,
        "instances": props,
        "untraced_pass_op_seconds": [{s.op.name: s.seconds for s in p} for p in untraced_passes],
        "untraced_pass_op_scales": [{s.op.name: s.scale for s in p} for p in untraced_passes],
        "traced_pass_layers": [{label: {"calls": r[0], "total_s": r[1], "self_s": r[2]}
                                for label, r in sorted(t.items())} for t, _, _ in traced_passes],
        "traced_pass_counts": [dict(c) for _, c, _ in traced_passes],
        "span_labels": sorted(label_ids, key=label_ids.get),
        "span_fields": ["label", "start_us", "duration_us", "parent", "op"],
        "spans": [[label_ids[label], round(start * 1e6), round((end - start) * 1e6), parent, op]
                  for label, start, end, parent, op in tracer.spans],
    }
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
        json.dump(document, handle, separators=(",", ":"))


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    launched = time.perf_counter()
    try:
        import_s, scale = calibrated(import_package)
    except ImportError as exc:
        print(f"cannot import lettergraphs from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import_s *= scale

    from checks import Facts
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    out_dir = ROOT / "perfbench" / "out"
    work = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    signal.signal(signal.SIGALRM, _alarm)
    try:
        setup_times, texts = [], None
        for _ in range(SETUP_REPEATS):
            seconds, again = set_up(args.workload, args.seed, workload, work)
            if texts is not None and again != texts:
                raise RuntimeError("the same seed generated different instance files")
            setup_times.append(seconds)
            texts = again
        facts = {key: Facts(json.loads(text)) for key, text in texts.items()}
        del texts

        deadline = launched + RUN_LIMIT_S
        tracer = Tracer() if args.trace else None
        untraced_passes, traced_passes, samples, last_pass = [], [], [], []
        timed_start = time.perf_counter()
        while True:
            batch = run_pass(workload.ops, work, len(untraced_passes) + len(traced_passes),
                             deadline)
            untraced_passes.append(batch)
            samples += batch
            if tracer is not None:
                first, before = len(tracer.spans), tracer.counts.copy()
                tracer.install()
                try:
                    batch = run_pass(workload.ops, work, len(untraced_passes) + len(traced_passes),
                                     deadline, tracer)
                finally:
                    tracer.uninstall()
                traced_passes.append((tracer.table(first), tracer.counts - before, batch))
                samples += batch
            elapsed = time.perf_counter() - timed_start
            if elapsed / len(untraced_passes) * (len(untraced_passes) + 1) > args.seconds:
                break
        if tracer is None:
            # Fill the rest of the window with the operations that still fit.
            wall = dict(zip(workload.ops, op_medians(samples, workload.ops, lambda s: s.seconds)))
            last_pass = run_pass(workload.ops, work, len(untraced_passes), deadline,
                                 until=timed_start + args.seconds, estimate=wall.get)
            samples += last_pass

        timed_end = time.perf_counter()
        probes = [run_op(op, work, work / f"probe-{i}.json", deadline)
                  for i, op in enumerate(workload.probes)]
        for s in samples + probes:
            s.failure = check(s, facts)
        checked_end = time.perf_counter()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    timed = [s for p in untraced_passes for s in p] + last_pass
    # Percentiles are taken over each operation's median, so that they do
    # not shift with the number of passes that fitted into --seconds.
    medians = op_medians(timed, workload.ops, lambda s: s.calibrated_s)
    totals = dict.fromkeys(TOTALS, 0.0)
    for op, median in zip(workload.ops, medians):
        totals[op.total] += median
    failed = [s for s in samples if s.failure]
    probe_failures = sum(1 for s in probes if s.failure)
    end_to_end = {
        "setup_s": import_s + statistics.median(setup_times),
        "throughput_ops_s": throughput(timed, workload.ops, lambda s: s.calibrated_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    latency = {
        "latency_p50_ms": statistics.median(medians) * 1000,
        "latency_p90_ms": statistics.quantiles(medians, n=10, method="inclusive")[8] * 1000,
    }
    load = os.getloadavg()
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": [round(x, 2) for x in load],
    }

    print(f"workload {args.workload}  seed {args.seed}  python {info['python']}  "
          f"nproc {info['nproc']}  load average {' '.join(f'{x:.2f}' for x in load)}")
    calibration_ms = [CALIBRATION_REF_S / p[0].scale * 1000 for p in (*untraced_passes, last_pass)
                      if p]
    host = {
        "wall_throughput_ops_s": throughput(timed, workload.ops, lambda s: s.seconds),
        "calibration_ms": statistics.median(calibration_ms),
    }
    print(f"calibration kernel {host['calibration_ms']:.1f} ms, median of pass means "
          f"({min(calibration_ms):.1f}-{max(calibration_ms):.1f}; nominal "
          f"{CALIBRATION_REF_S * 1000:.0f} ms); times below are calibrated seconds; "
          f"wall throughput {host['wall_throughput_ops_s']:.4f} 1/s")
    print(f"set-up: import {import_s:.3f} s, instance files "
          + ", ".join(f"{t:.3f}" for t in setup_times) + " s")
    print(f"phases: set-up {timed_start - launched:.1f} s, passes {timed_end - timed_start:.1f} s, "
          f"probes and checks {checked_end - timed_end:.1f} s")
    print(f"timed passes {len(untraced_passes)} untraced"
          + (f", {len(traced_passes)} traced" if tracer else "")
          + (f", 1 partial of {len(last_pass)} operations" if last_pass else "")
          + f"; latency percentiles over the medians of {len(medians)} operations"
          f" ({len(timed)} timed cli.main calls)")
    for name, value in (end_to_end | latency).items():
        print(f"  {name:<24} {value:12.4f} {(END_TO_END | LATENCY)[name]}")
    print(f"  {'failed_ratio':<24} {len(failed) / len(samples):12.4f} ratio "
          f"({len(failed)} of {len(samples)} operations)")
    if probes:
        all_failed, all_ops = len(failed) + probe_failures, len(samples) + len(probes)
        print(f"  {'failed_ratio_with_probes':<24} {all_failed / all_ops:12.4f} ratio "
              f"({all_failed} of {all_ops}, counting the known-defect probes)")
    for name, value in totals.items():
        if value:
            print(f"  {name:<24} {value:12.4f} s (sum of operation medians)")
    for op, median in zip(workload.ops, medians):
        print(f"    {op.name:<44} {median * 1000:10.1f} ms  x{sum(s.op is op for s in timed)}")
    for s in failed:
        print(f"  FAILED {s.op.name}: {s.failure}")
    for s in probes:
        print(f"  known-defect probe {s.op.name}: "
              + (f"FAILED after {s.seconds:.2f} s ({s.failure})" if s.failure
                 else f"passed in {s.seconds:.2f} s"))

    if tracer is not None:
        props = instance_properties(workload, facts)
        metrics = latency | layer_metrics(traced_passes, untraced_passes, props, workload,
                                          probe_failures, totals, host)
        units = PER_LAYER
        info["absent"] = tracer.absent + [label for label in (*SELF_TIMES, *CALL_COUNTS)
                                          if label not in tracer.labels]
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json.gz"
        write_trace(trace_path, info, tracer, props, untraced_passes, traced_passes)
        print(f"trace: {len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}")
        if info["absent"]:
            print("  absent, reported as 0: " + ", ".join(info["absent"]))
        for name, value in metrics.items():
            print(f"  {name:<48} {value:14.6f} {units[name]}")
    else:
        metrics, units = end_to_end, END_TO_END
        samples_path = out_dir / f"samples-{args.workload}-seed{args.seed}.json"
        samples_path.write_text(json.dumps({
            **info,
            "sample_fields": ["op", "pass", "wall_s", "scale", "failure"],
            "samples": [[s.op.name, number, s.seconds, s.scale, s.failure]
                        for number, p in enumerate((*untraced_passes, last_pass)) for s in p],
        }), encoding="utf-8")
        print(f"samples written to {samples_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
