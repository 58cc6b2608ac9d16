"""Run one workload in a fresh interpreter; run.py starts this file.

Protocol: once set-up is done the worker prints `READY <stolen_s> <factor>`
on stdout, where stolen_s is the time its speed sampler took during set-up
and factor the speed factor over set-up (see speed.py); run.py times set-up
from the launch to this line.  Then it writes its results as JSON to the
--result file.  With --setup-only it exits after READY.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
OP_TIMEOUT_S = 120.0
# op_p90_ms needs at least ten operations above it
MIN_OPS = 100
# a traced pass's root spans may cover a little less than the op times
# run_pass measures around them, never more
ROOT_SPAN_TOLERANCE = 0.01


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout()


class PassResult:
    def __init__(self):
        # perf_counter (start, end) of each op that succeeded
        self.timed: list[tuple[float, float]] = []
        self.failures: list[str] = []
        self.attempted = 0

    @property
    def wall_s(self) -> float:
        return sum(end - start for start, end in self.timed)

    def run(self, op, op_id: int, tracer=None) -> None:
        """Time one operation, and record it or its failure.  Only the call
        is timed: its inputs are made before the timer starts, and its
        result is checked after the timer stops."""
        self.attempted += 1
        if not op.own_timeout:
            signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        try:
            args = op.inputs()
            start = time.perf_counter()
            if tracer is None:
                result = op.run(*args)
            else:
                result = tracer.run_op(op_id, op.name, lambda: op.run(*args))
            end = time.perf_counter()
        except OpTimeout:
            self.failures.append(f"{op.name}: timed out after {OP_TIMEOUT_S} s")
            return
        except Exception as err:  # any raise, a cap hit included, is a failed op
            self.failures.append(f"{op.name}: {type(err).__name__}: {err}")
            return
        finally:
            if not op.own_timeout:
                signal.setitimer(signal.ITIMER_REAL, 0)
        reason = op.check(result)
        if reason is not None:
            self.failures.append(reason)
            return
        self.timed.append((start, end))


def run_pass(ops, tracer=None) -> PassResult:
    """One pass over the operation list."""
    res = PassResult()
    gc.collect()  # every pass starts from the same heap state
    for index, op in enumerate(ops):
        res.run(op, index + 1, tracer)
    return res


def environment() -> dict:
    import platform
    from importlib import metadata

    from ufdlab.caps import current_caps

    caps = current_caps()
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "caps": {"degree": caps.degree, "terms": caps.terms},
        "UFDLAB_CAPS": os.environ.get("UFDLAB_CAPS"),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "numpy": version("numpy"),
        "jsonschema": version("jsonschema"),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
    }


def timed_run(workload, seconds: float, sampler) -> dict:
    """Passes until the next one would end after `seconds` and at least
    MIN_OPS operations are timed.  Each op time is reported as measured and
    at reference speed, from the sampler's samples around it."""
    def op_ms(start, end):
        return (end - start - sampler.stolen(start, end)) * 1000.0

    passes = []
    start = time.monotonic()
    timed = 0
    while True:
        begin = time.monotonic()
        passes.append(run_pass(workload.ops))
        end = time.monotonic()
        timed += len(passes[-1].timed)
        if not passes[-1].timed:
            break  # every op failed; more passes would not change that
        if timed >= MIN_OPS and end - start + (end - begin) > seconds:
            break
    failures = list(workload.setup_failures)
    for p in passes:
        failures += p.failures
    failures += workload.post_check()
    return {
        "attempted": sum(p.attempted for p in passes),
        "failed": len(failures),
        "failures": failures[:20],
        "pass_op_ms": [[op_ms(a, b) * sampler.factor(a, b) for a, b in p.timed]
                       for p in passes],
        "pass_raw_ms": [[op_ms(a, b) for a, b in p.timed] for p in passes],
    }


def root_span_errors(res: PassResult, t) -> list[str]:
    """The root spans of a traced pass against the op times run_pass took
    around them: a tracer that lost or double-counted time fails this.
    (A pass with a failed op is already counted as failing.)"""
    if res.failures:
        return []
    measured, covered = res.wall_s, t.root_seconds()
    if not measured * (1 - ROOT_SPAN_TOLERANCE) <= covered <= measured:
        return [f"root spans cover {covered:.6f} s, the ops took {measured:.6f} s"]
    return []


def traced_run(workload, setup, args, reference: dict) -> dict:
    """Two traced passes, each after a traced set-up on fresh inputs from the
    same seed; their exact counts must agree.  The first pass alternates
    with an untraced pass over the untraced set-up's operations, op by op,
    so the two are timed close together for the tracing overhead."""
    import tracer as tracing

    failures = list(workload.setup_failures)
    claim_ids = sorted(reference["suite"])
    t = tracing.Tracer()
    t.install()
    passes = []
    try:
        for rep in range(2):
            t.reset()
            fresh = t.run_op(0, "setup", lambda: setup(args.seed, reference))
            if rep == 0:
                untraced, res = PassResult(), PassResult()
                gc.collect()
                for index, (plain, op) in enumerate(zip(workload.ops, fresh.ops)):
                    t.uninstall()
                    untraced.run(plain, index + 1)
                    t.install()
                    res.run(op, index + 1, t)
                failures += untraced.failures
            else:
                res = run_pass(fresh.ops, tracer=t)
            failures += fresh.setup_failures + res.failures
            failures += t.self_time_errors()[:5]
            failures += root_span_errors(res, t)
            failures += t.missing_layers(args.workload, claim_ids)
            passes.append((res, t.exact_counts(), tracing.layer_metrics(t, claim_ids)))
            if rep == 0:
                OUT_DIR.mkdir(exist_ok=True)
                t.write_spans(OUT_DIR / f"trace-{args.workload}.jsonl")
    finally:
        t.uninstall()
    (first, counts_a, metrics), (second, counts_b, _) = passes
    if counts_a != counts_b:
        diff = sorted(k for k in set(counts_a) | set(counts_b)
                      if counts_a.get(k) != counts_b.get(k))
        failures.append(f"traced passes disagree on counts: {diff[:10]}")
    return {
        "attempted": untraced.attempted + first.attempted + second.attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "metrics": metrics,
        "counts": counts_a,
        "untraced_wall_s": untraced.wall_s,
        "traced_wall_s": first.wall_s,
    }


def main(argv=None) -> int:
    sampler = speed.Sampler()
    sampler.start()
    try:
        return run(sampler, argv)
    finally:
        sampler.stop()  # a SIGPROF after the handler is gone would kill the process


def run(sampler, argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--result", type=Path)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import ufdlab

    if Path(ufdlab.__file__).resolve().parent != SRC / "ufdlab":
        print(f"worker: ufdlab imported from {ufdlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    with open(HERE / "reference.json") as fh:
        reference = json.load(fh)
    setup = workloads.SETUPS[args.workload]
    workload = setup(args.seed, reference)
    ready = time.perf_counter()
    print(f"READY {sampler.stolen(until=ready)!r} {sampler.factor(until=ready)!r}", flush=True)
    if args.setup_only:
        return 0

    signal.signal(signal.SIGALRM, _on_alarm)
    if args.trace:
        sampler.stop()  # traced times are reported as measured
        result = traced_run(workload, setup, args, reference)
    else:
        result = timed_run(workload, args.seconds, sampler)
        sampler.stop()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment()
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
