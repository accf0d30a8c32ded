#!/usr/bin/env python3
"""superweyl benchmark: one closed-loop, single-process client.

Run from the repository root:

    python3 bench/run.py --workload {words,box,cli} --seed N --seconds S --trace {0,1}

The library is imported from ``src/`` of the same checkout and called in
process; the client sends its next op only when the previous one returned,
and starts no threads.  A run repeats one seeded round of ops until the
time spent inside ops reaches ``--seconds`` and at least ``MIN_SAMPLES``
ops are done, always finishing the round, so every run holds whole rounds
of the same mix.  Before each op every ``lru_cache`` of the library is
cleared, so no op is answered by a cache an earlier identical op filled:
each op pays what a fresh CLI call pays.  Outputs are checked outside the
timed region.  Peak memory is read in a fresh process that runs one round
without checks, so the checker's own memory is not in it.

The reference machine's speed drifts over seconds to minutes (measured
figures in README.md), so every time in the end-to-end metrics is corrected
for machine speed.  About every 0.05 s of op time the client times a fixed
reference kernel that shares no code with the library (``speed.py``); each
op's time is scaled by ``REFERENCE_S`` over the kernel time around it.  A
change to the library moves the corrected times in full.  The raw times are
printed on the summary line.

With ``--trace 0`` the last line reports the end-to-end metrics.  With
``--trace 1`` it reports the per-layer metrics of ``tracing.py``: untraced
and traced rounds alternate, layer numbers are per traced round, and
``trace.overhead`` is traced over untraced op time.  The spans go to
``.bench_out/spans-<workload>.jsonl``.  ``--smoke`` shrinks every input so
the whole harness runs in seconds (see ``test_smoke.py``).

The last line is one JSON object: correct, attempted, failed, metrics.
``failed`` counts ops with a wrong output, a wrong exit code or an
unexpected exception.  ``correct`` is false when any failure is not one of
the known library defects the workloads mark, failing in that defect's own
way; those fail on purpose until the library is fixed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from speed import Speedometer, reference_kernel, reference_time
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = {"words": "words", "box": "box", "cli": "replay"}
SETUP_PROBES = 6
# A fixed tail level, so that faster code (more rounds per run) is compared
# at the same percentile; MIN_SAMPLES ops leave at least ten beyond it.
TAIL_PERCENTILE = 99.0
MIN_SAMPLES = 1000


def import_library():
    """Import superweyl from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "superweyl" / "__init__.py").is_file():
        raise SystemExit(f"error: no superweyl sources under {src}")
    sys.path.insert(0, str(src))
    import superweyl
    import superweyl.cli  # noqa: F401  (not imported by the package itself)

    if Path(superweyl.__file__).resolve().parent != (src / "superweyl").resolve():
        raise SystemExit(f"error: imported superweyl from {superweyl.__file__}")
    return superweyl


def cached_functions(package):
    """Every lru_cache-wrapped function the library's modules hold."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if name == package.__name__ or name.startswith(package.__name__ + "."):
            for value in vars(mod).values():
                if hasattr(value, "cache_clear") and hasattr(value, "cache_info"):
                    found[id(value)] = value
    return list(found.values())


def setup(workload: str, seed: int, workdir: Path, smoke: bool):
    """Import the library, then generate the seeded inputs and load them."""
    package = import_library()
    module = importlib.import_module(WORKLOADS[workload])
    rng = random.Random(seed)
    ops = module.build(rng, workdir, smoke)
    rng.shuffle(ops)
    return package, ops


def timed_setup(args, workdir: Path):
    """Setup, then (raw seconds, reference kernel seconds right after it)."""
    start = time.perf_counter()
    package, ops = setup(args.workload, args.seed, workdir, args.smoke)
    elapsed = time.perf_counter() - start
    reference_kernel()  # warm-up: a fresh interpreter runs it slower once
    return package, ops, (elapsed, statistics.median(reference_time() for _ in range(3)))


def probe(args, rss_round: bool) -> list[float]:
    """A fresh interpreter that runs the setup and, with ``rss_round``, one
    unchecked round: [setup seconds, kernel seconds, peak RSS in MB]."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--probe"]
    cmd += (["--rss-round"] if rss_round else []) + (["--smoke"] if args.smoke else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SystemExit(f"error: probe failed: {proc.stderr.strip()}")
    return [float(v) for v in proc.stdout.split()[-3:]]


def run_probe(args, workdir: Path) -> list[float]:
    package, ops, (raw, ref) = timed_setup(args, workdir)
    if args.rss_round:
        run_round(ops, None, cached_functions(package))
    return [raw, ref, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]


class Gate:
    """Correctness of every op output, judged outside the timed region."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, dict] = {}
        self._verified: dict[int, object] = {}

    def judge(self, index: int, op, out, error) -> None:
        self.attempted += 1
        if error is not None:
            ok, reason = False, f"{type(error).__name__}: {str(error)[:120]}"
        elif index in self._verified:
            ok, reason = out == self._verified[index], "output changed between rounds"
        else:
            try:
                ok, reason = bool(op.check(out)), "wrong output"
            except Exception as exc:  # an output the check cannot read is wrong
                ok, reason = False, f"wrong output ({type(exc).__name__}: {exc})"
            if ok:
                self._verified[index] = out
        if not ok:
            self.failed += 1
            known = bool(op.known_defect) and op.defect_seen(out, error)
            entry = self.failures.setdefault(
                op.label, {"reason": reason, "known_defect": known, "count": 0})
            if not known:
                entry.update(reason=reason, known_defect=False)
            entry["count"] += 1

    @property
    def correct(self) -> bool:
        """True when every failure is a known defect failing in its own way."""
        return all(f["known_defect"] for f in self.failures.values())


def run_round(ops, gate: Gate | None, caches, tracer=None, meter=None):
    """Run every op once; return (per-op seconds, box points decided).
    Without a gate the outputs are dropped unchecked."""
    latencies = []
    points = 0
    for index, op in enumerate(ops):
        for cached in caches:
            cached.cache_clear()
        start = time.perf_counter()
        try:
            out = tracer.run_op(op.run) if tracer else op.run()
            error = None
        except Exception as exc:  # an unexpected exception is a failed op
            out, error = None, exc
        latencies.append(time.perf_counter() - start)
        if tracer:
            tracer.read_cache()
        if meter:
            meter.after_op(latencies[-1])
        points += op.points
        if gate:
            gate.judge(index, op, out, error)
    return latencies, points


def tail(samples) -> float:
    """Latency at TAIL_PERCENTILE (nearest rank)."""
    ordered = sorted(samples)
    return ordered[math.ceil(TAIL_PERCENTILE / 100 * len(ordered)) - 1]


def timing_metrics(latencies, ops_per_round: int, points: int) -> dict:
    """Throughput, median, tail and points per second of whole rounds."""
    rounds = [latencies[i:i + ops_per_round] for i in range(0, len(latencies), ops_per_round)]
    return {
        "ops_per_s": statistics.median(ops_per_round / sum(r) for r in rounds),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail(latencies) * 1e3,
        "points_per_s": points / sum(latencies),
    }


def measure(ops, seconds: float, caches):
    gate = Gate()
    meter = Speedometer()
    raw, points = [], 0
    while sum(raw) < seconds or len(raw) < MIN_SAMPLES:
        lat, pts = run_round(ops, gate, caches, meter=meter)
        raw += lat
        points += pts
    meter.sample()
    timing = timing_metrics(meter.scale(raw), len(ops), points)
    metrics = {
        "ops_per_s": (timing["ops_per_s"], "1/s"),
        "op_p50_ms": (timing["op_p50_ms"], "ms"),
        "op_tail_ms": (timing["op_tail_ms"], "ms"),
    }
    extra = {
        "rounds": len(raw) // len(ops),
        "ops_per_round": len(ops),
        "tail_percentile": TAIL_PERCENTILE,
        "tail_samples": len(raw),
        "tail_beyond": len(raw) - math.ceil(TAIL_PERCENTILE / 100 * len(raw)),
        "fail_frac": gate.failed / gate.attempted,
        "points_per_s": timing["points_per_s"],
        "speed_factor": meter.median_factor(),
        "raw": timing_metrics(raw, len(ops), points),
    }
    return gate, metrics, extra


def measure_traced(package, ops, seconds: float, caches, spans_path: Path, header: dict):
    gate = Gate()
    tracer = Tracer(package)
    plain, traced = [], []
    while sum(plain) + sum(traced) < seconds:
        plain.append(sum(run_round(ops, gate, caches)[0]))
        tracer.install()
        try:
            traced.append(sum(run_round(ops, gate, caches, tracer)[0]))
        finally:
            tracer.uninstall()
        tracer.keep_spans = False
    metrics = tracer.layer_metrics(len(traced))
    metrics["trace.overhead"] = (statistics.median(traced) / statistics.median(plain), "ratio")
    tracer.write_spans(spans_path, {**header, "traced_rounds": len(traced)})
    extra = {"traced_rounds": len(traced), "plain_rounds": len(plain),
             "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT))}
    return gate, metrics, extra


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--rss-round", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT))
    try:
        if args.probe:
            print(*run_probe(args, workdir))
            return 0
        package, ops, own_setup = timed_setup(args, workdir)
        setup_samples = [own_setup]
        if not args.trace:
            probes = [probe(args, rss_round=i == 0) for i in range(SETUP_PROBES)]
            setup_samples += [(raw, ref) for raw, ref, _ in probes]
        caches = cached_functions(package)
        if args.trace:
            header = {"workload": args.workload, "seed": args.seed}
            spans_path = ROOT / ".bench_out" / f"spans-{args.workload}.jsonl"
            gate, metrics, extra = measure_traced(
                package, ops, args.seconds, caches, spans_path, header)
        else:
            gate, metrics, extra = measure(ops, args.seconds, caches)
            metrics["setup_s"] = (
                statistics.median(Speedometer.correct(t, ref) for t, ref in setup_samples), "s")
            metrics["peak_rss_mb"] = (probes[0][2], "MB")
            extra["raw"]["setup_s"] = statistics.median(t for t, _ in setup_samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        **extra,
        "setup_samples_s": [t for t, _ in setup_samples],
        "failures": gate.failures,
    }
    print(json.dumps(summary))
    print(json.dumps({
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
