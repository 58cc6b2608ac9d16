"""ufdlab benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload suite|gb|reduce|rewrite \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the library is imported from the
checkout's src/.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones of BENCHMARK.json, with --trace 1 the per-layer ones.

Load is one single-threaded process at a time, a closed loop with one
client: set-up samples, CLI launches and the workload worker run in turn.
Each of them samples its own speed (speed.py), and end-to-end times are
reported at reference speed; the times as measured are printed beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import MIN_OPS
from workloads import digest, report_digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKER = HERE / "worker.py"
SPEED = HERE / "speed.py"
WORKLOADS = ("suite", "gb", "reduce", "rewrite")

SETUP_SAMPLES = 5  # fresh interpreters set up per run
LIST_SAMPLES = 7  # launches of `claim list` per run
RUN_ALL_SAMPLES = 3  # launches of `claim run-all` per run
IMPORTTIME_SAMPLES = 3
RUN_BUDGET_S = 170.0  # the whole run, after which it gives up without a result
TIMES = ("setup_s", "wall_s", "op_p50_ms", "op_p90_ms", "op_geomean_ms", "cold_start_s",
         "run_all_s")


class BenchError(Exception):
    """The run cannot produce a result (not a wrong answer: that is counted)."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("UFDLAB_CAPS", None)  # default caps
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"  # set iteration order, hence work, repeats
    return env


class Child:
    """A child process timed from just before its launch."""

    def __init__(self, argv, deadline: float, stdout=subprocess.DEVNULL, stderr=None):
        self.deadline = deadline
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, text=True,
                                     env=child_env(), cwd=ROOT)

    def _left(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("run budget exhausted")
        return left

    def read_line(self) -> tuple[str, float]:
        """The child's next stdout line and the seconds from launch to it."""
        ready, _, _ = select.select([self.proc.stdout], [], [], self._left())
        if not ready:
            raise BenchError("run budget exhausted")
        line = self.proc.stdout.readline()
        return line, time.perf_counter() - self.start

    def wait(self) -> tuple[int, float]:
        """Exit code and the seconds from launch to exit."""
        code = self.proc.wait(timeout=self._left())
        took = time.perf_counter() - self.start
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        return code, took

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait()


def supervise(child: Child, read_line: bool) -> tuple[str, int, float]:
    """(first stdout line or "", exit code, seconds to that line, or to the
    exit without read_line); kills the child if anything goes wrong."""
    try:
        line, took = child.read_line() if read_line else ("", 0.0)
        code, exited = child.wait()
    except BaseException:
        child.kill()
        raise
    return line, code, took if read_line else exited


def worker_argv(args, *extra) -> list[str]:
    return [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]


def ready_line(line: str) -> tuple[float, float]:
    """(sampler seconds, speed factor) from the worker's READY line."""
    word, stolen, factor = line.split()
    if word != "READY":
        raise BenchError(f"worker said {line!r}")
    return float(stolen), float(factor)


def setup_sample(args, deadline) -> tuple[float, float]:
    """(seconds at reference speed, seconds as measured) from launch to READY."""
    child = Child(worker_argv(args, "--setup-only"), deadline, stdout=subprocess.PIPE)
    line, code, took = supervise(child, read_line=True)
    if code != 0:
        raise BenchError(f"set-up sample failed (exit {code})")
    stolen, factor = ready_line(line)
    return (took - stolen) * factor, took


def run_worker(args, deadline) -> dict:
    result_path = OUT_DIR / f"result-{args.workload}-trace{args.trace}.json"
    result_path.unlink(missing_ok=True)
    child = Child(worker_argv(args, "--result", str(result_path)), deadline,
                  stdout=subprocess.PIPE)
    line, code, _ = supervise(child, read_line=True)
    if code != 0:
        raise BenchError(f"worker failed (exit {code})")
    ready_line(line)
    with open(result_path) as fh:
        return json.load(fh)


def run_cli(argv, deadline, out_name: str) -> tuple[float, float, int, str]:
    """Launch `python -m ufdlab.cli ARGV` under speed.py's sampler:
    (seconds at reference speed, as measured, exit code, stdout)."""
    out_path = OUT_DIR / out_name
    report = OUT_DIR / f"{out_name}.speed"
    report.unlink(missing_ok=True)
    with open(out_path, "w") as out:
        child = Child([sys.executable, str(SPEED), str(report), "-m", "ufdlab.cli", *argv],
                      deadline, stdout=out, stderr=subprocess.DEVNULL)
        _, code, took = supervise(child, read_line=False)
    stolen, factor = map(float, report.read_text().split())
    return (took - stolen) * factor, took, code, out_path.read_text()


def check_claim_list(code: int, stdout: str, reference) -> str | None:
    listed = {line.split()[0] for line in stdout.splitlines() if line.strip()}
    if code != 0 or listed != set(reference["suite"]):
        return f"claim list: exit {code}, {len(listed)} claims listed"
    return None


def check_run_all(code: int, stdout: str, reference) -> str | None:
    if code != 0:
        return f"run-all: exit {code}"
    got = {doc["claim_id"]: report_digest(doc) for doc in json.loads(stdout)}
    if got != reference["suite"]:
        return "run-all: reports differ from the reference"
    return None


def summary(setups, colds, run_alls, passes, rss) -> dict:
    ops = [ms for pass_ms in passes for ms in pass_ms]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(sum(p) / 1000.0 for p in passes), "s"),
        "op_p50_ms": (statistics.median(ops), "ms"),
        # end_to_end requires >= MIN_OPS operations, so >= 10 lie above it
        "op_p90_ms": (statistics.quantiles(ops, n=10)[8], "ms"),
        "op_geomean_ms": (statistics.geometric_mean(ops), "ms"),
        "cold_start_s": (statistics.median(colds), "s"),
        "run_all_s": (statistics.median(run_alls), "s"),
        "peak_rss_mb": (rss, "MB"),
    }


def end_to_end(args, reference, deadline):
    norm = {"setup_s": [], "cold_start_s": [], "run_all_s": []}
    raw = {name: [] for name in norm}
    cli_failures = []

    def record(name, scaled, took):
        norm[name].append(scaled)
        raw[name].append(took)

    # Byte-compile first, so the first launch of a fresh checkout is not
    # the only one that pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC), str(HERE)],
                   check=True, stdout=subprocess.DEVNULL, env=child_env(), cwd=ROOT,
                   timeout=deadline - time.monotonic())
    # interleaved, so a slow minute of the machine does not fall on one metric
    for i in range(max(SETUP_SAMPLES, LIST_SAMPLES, RUN_ALL_SAMPLES)):
        if i < SETUP_SAMPLES:
            record("setup_s", *setup_sample(args, deadline))
        if i < LIST_SAMPLES:
            scaled, took, code, out = run_cli(["claim", "list"], deadline, "claim-list.txt")
            record("cold_start_s", scaled, took)
            cli_failures.append(check_claim_list(code, out, reference))
        if i < RUN_ALL_SAMPLES:
            scaled, took, code, out = run_cli(["claim", "run-all", "--suite", "acceptance"],
                                              deadline, "run-all.json")
            record("run_all_s", scaled, took)
            cli_failures.append(check_run_all(code, out, reference))
    result = run_worker(args, deadline)
    cli_failures = [f for f in cli_failures if f]

    ops = sum(len(p) for p in result["pass_op_ms"])
    if ops < MIN_OPS:
        raise BenchError(f"only {ops} operations succeeded: {result['failures'][:3]}")
    rss = result["peak_rss_mb"]
    metrics = summary(norm["setup_s"], norm["cold_start_s"], norm["run_all_s"],
                      result["pass_op_ms"], rss)
    measured = summary(raw["setup_s"], raw["cold_start_s"], raw["run_all_s"],
                       result["pass_raw_ms"], rss)
    attempted = result["attempted"] + LIST_SAMPLES + RUN_ALL_SAMPLES
    failed = result["failed"] + len(cli_failures)
    info = {"passes": len(result["pass_op_ms"]), "ops": ops, "env": result["env"]}
    return metrics, measured, attempted, failed, cli_failures + result["failures"], info


def import_times(deadline) -> dict:
    """Cumulative import times of ufdlab.cli, numpy and jsonschema from
    `-X importtime` in fresh interpreters (median of several)."""
    wanted = {"ufdlab.cli": "cli.import.ms", "numpy": "cli.import.numpy.ms",
              "jsonschema": "cli.import.jsonschema.ms"}
    samples = {name: [] for name in wanted.values()}
    for _ in range(IMPORTTIME_SAMPLES):
        left = deadline - time.monotonic()
        if left <= 0:
            raise BenchError("run budget exhausted")
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ufdlab.cli"],
                              capture_output=True, text=True, env=child_env(), cwd=ROOT,
                              timeout=left)
        if done.returncode != 0:
            raise BenchError("importing ufdlab.cli failed")
        seen = {}
        for line in done.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in wanted:
                seen.setdefault(parts[2].strip(), int(parts[1]) / 1000.0)
        for module, metric in wanted.items():
            samples[metric].append(seen.get(module, 0.0))
    return {metric: (statistics.median(v), "ms") for metric, v in samples.items()}


def per_layer(args, deadline):
    metrics = import_times(deadline)
    result = run_worker(args, deadline)
    metrics.update({k: tuple(v) for k, v in result["metrics"].items()})
    # traced minus untraced wall of the same operations, run alternately, as measured
    metrics["trace.overhead_s"] = (result["traced_wall_s"] - result["untraced_wall_s"], "s")
    info = {"untraced_wall_s": result["untraced_wall_s"],
            "traced_wall_s": result["traced_wall_s"],
            "counts_digest": digest(json.dumps(result["counts"], sort_keys=True)),
            "env": result["env"]}
    return metrics, None, result["attempted"], result["failed"], result["failures"], info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ufdlab" / "__init__.py").is_file():
        print(f"run.py: no ufdlab sources under {SRC}", file=sys.stderr)
        return 2
    with open(HERE / "reference.json") as fh:
        reference = json.load(fh)
    OUT_DIR.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        if args.trace:
            metrics, measured, attempted, failed, failures, info = per_layer(args, deadline)
        else:
            metrics, measured, attempted, failed, failures, info = end_to_end(
                args, reference, deadline)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as err:
        print(f"run.py: {args.workload} seed {args.seed}: {err}", file=sys.stderr)
        return 1

    for name, (value, unit) in metrics.items():
        line = f"{args.workload:8} {name:42} {value:14.6f} {unit}"
        if measured and name in TIMES:
            line += f"  (as measured: {measured[name][0]:.6f} {unit})"
        print(line)
    print(f"{args.workload:8} {'fail_ratio':42} {failed / attempted:14.6f} "
          f"({failed} of {attempted} operations)")
    print(json.dumps({"workload": args.workload, "seed": args.seed, **info}))
    for reason in failures:
        print(f"FAILED: {reason}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
