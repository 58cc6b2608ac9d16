"""Write perfbench/reference.json: the expected outputs the benchmark checks.

    python3 perfbench/capture_reference.py

Run it only when the library's output is meant to change.  A performance
change must leave every digest as it is: reports are deterministic apart
from elapsed_ms, and reduced Groebner bases are canonical.

Pool instances whose basis takes longer than POOL_ADMIT_S here, or that hit a
size cap, get no digest and are never drawn; this bounds the run time of the
gb workload, whose one pass already holds cyclic-5.  The build time recorded
for each admitted instance is the least of POOL_TIMINGS runs at reference
speed (speed.py): the workloads stratify their draws by it, and single
timings on a noisy machine put ideals of quite different cost in one
stratum.
"""

from __future__ import annotations

import json
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import instances  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

POOL_ADMIT_S = 0.4
POOL_TIMINGS = 3


class _Slow(Exception):
    pass


def _raise_slow(signum, frame):
    raise _Slow()


def capture_suite() -> dict:
    from ufdlab import claims, cli

    schema = claims.report_schema()
    out = {}
    for cid in claims.suite_claims("acceptance"):
        doc = cli._checked_json(claims.run_claim(cid), schema)
        if doc["status"] != "verified":
            raise SystemExit(f"{cid} is {doc['status']}; refusing to record it")
        out[cid] = workloads.report_digest(doc)
    return out


def capture_fixed() -> dict:
    from ufdlab import groebner

    out = {}
    for name, fld_name, (names, texts) in workloads.FIXED_GB:
        _, gens = workloads.parse_all(fld_name, names, texts)
        out[workloads.fixed_key(name, fld_name)] = workloads.basis_digest(
            groebner.buchberger(gens))
    return out


def capture_rewrite() -> dict:
    from ufdlab import counterexample as cx

    return {
        "expand_z0": workloads.digest(str(cx.expand_z0(workloads.EXPAND_DEPTH))),
        "expand_z0_bprime": workloads.digest(str(cx.expand_z0_bprime(workloads.EXPAND_DEPTH))),
    }


def capture_pool() -> tuple[list, list]:
    """Digest and build time (ms at reference speed) per pool instance."""
    from ufdlab import groebner
    from ufdlab.errors import CapExceeded

    signal.signal(signal.SIGALRM, _raise_slow)
    sampler = speed.Sampler()
    sampler.start()
    digests, runs = [], []
    try:
        for k in range(instances.POOL_SIZE):
            fld_name, names, texts = instances.pool_ideal(k)
            _, gens = workloads.parse_all(fld_name, names, texts)
            signal.setitimer(signal.ITIMER_REAL, POOL_ADMIT_S)
            try:
                basis = groebner.buchberger(gens)
            except (_Slow, CapExceeded) as err:
                print(f"pool {k}: excluded ({type(err).__name__})", file=sys.stderr)
                digests.append(None)
                runs.append([])
                continue
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            digests.append(workloads.basis_digest(basis))
            spans = []
            for _ in range(POOL_TIMINGS):
                _, gens = workloads.parse_all(fld_name, names, texts)
                start = time.perf_counter()
                groebner.buchberger(gens)
                spans.append((start, time.perf_counter()))
            runs.append(spans)
    finally:
        sampler.stop()
    build_ms = [
        round(min((b - a - sampler.stolen(a, b)) * sampler.factor(a, b) for a, b in spans)
              * 1000, 2) if spans else None
        for spans in runs]
    return digests, build_ms


def main() -> int:
    start = time.perf_counter()
    pool, pool_ms = capture_pool()
    reference = {
        "suite": capture_suite(),
        "fixed": capture_fixed(),
        "rewrite": capture_rewrite(),
        "pool": pool,
        "pool_ms": pool_ms,
    }
    with open(HERE / "reference.json", "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    excluded = sum(d is None for d in reference["pool"])
    print(f"wrote reference.json in {time.perf_counter() - start:.1f} s; "
          f"{excluded} of {instances.POOL_SIZE} pool instances excluded", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
