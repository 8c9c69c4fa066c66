"""Benchmark of the thompsonf CLI: seeded requests in a closed loop.

    python3 perfbench/run.py --workload words --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ./src.  One
client in this one process sends each request as an in-process
`thompsonf.cli.main(argv)` call with stdout captured, and sends the next only
when the last has returned.  Every output is checked by an independent oracle
outside the timed region.  The workloads are defined in workloads.py.

With --trace 0 the run first times a fresh interpreter doing the workload's
first request (set-up time), then sends requests for --seconds seconds and at
least MIN_REQUESTS requests, and reports the end-to-end metrics.

End-to-end times are normalised for the host's speed.  On a shared host the
speed of the same code can swing by a factor of two within a minute, which
would swamp any change to the program.  So a fixed pure-Python reference loop
is timed between consecutive requests, and each request's wall time is
scaled by REFERENCE_S / (the shorter of the two reference times around it):
the figures are milliseconds at the speed at which the reference loop takes
REFERENCE_S.  The unscaled wall-time figures are printed and saved as well.

With --trace 1 it replays a fixed batch of the workload's requests once with
every layer traced and once untraced, reports per-layer counts and self
times plus a scaling series, and writes the spans to perfbench/out/.  The
batch is fixed, so counts repeat exactly for a given seed.  Self times are
wall time; the tracing overhead ratio compares host-speed-scaled times.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_REQUESTS = 100
# A run stops sending requests after this long even if it has fewer than
# MIN_REQUESTS, so that it ends within its time limit on a slow commit.
HARD_STOP_S = 120
SETUP_RUNS = 7
SETUP_TIMEOUT_S = 60
# The determinism digest covers the warm-up request and the next DIGEST_REQUESTS.
DIGEST_REQUESTS = 100
# Nominal duration of reference_loop, to which end-to-end times are scaled.
REFERENCE_S = 1e-3
SETUP_CODE = "import sys; sys.path.insert(0, sys.argv[1]); from thompsonf import cli; sys.exit(cli.main(sys.argv[2:]))"


def reference_loop() -> float:
    """Seconds taken by a fixed piece of pure-Python work: Fraction arithmetic
    and dict and str operations, the mix thompsonf's own code runs."""
    t0 = perf_counter()
    x = Fraction(0)
    for i in range(1, 100):
        x += Fraction(i, i + 1) * 3
    names = {}
    for i in range(1000):
        names[str(i)] = i
    return perf_counter() - t0


def call(cli, argv) -> tuple[int, str, float]:
    """One request: exit status, captured stdout and wall seconds."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(list(argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        rc = -1
        err.write(traceback.format_exc())
    elapsed = perf_counter() - t0
    if rc != 0:
        print(f"request {' '.join(argv)[:120]} exited {rc}: {err.getvalue().strip()[-500:]}", file=sys.stderr)
    return rc, out.getvalue(), elapsed


class Client:
    """Sends requests one at a time, timing the reference loop after each."""

    def __init__(self, cli) -> None:
        self.cli = cli
        self.reference = reference_loop()

    def send(self, request) -> tuple[int, str, float, float]:
        """Exit status, stdout, wall seconds, and wall seconds scaled to the host's speed."""
        rc, out, elapsed = call(self.cli, request.argv)
        after = reference_loop()
        scaled = elapsed * REFERENCE_S / min(self.reference, after)
        self.reference = after
        return rc, out, elapsed, scaled


def check(request, rc: int, out: str) -> bool:
    try:
        problem = request.check(rc, out)
    except Exception as exc:  # a malformed output can trip an oracle's parsing
        problem = f"oracle raised {exc!r}"
    if problem is not None:
        print(f"FAILED {' '.join(request.argv)[:120]}: {problem}", file=sys.stderr)
    return problem is None


def digest_update(digest, index: int, argv, rc: int, out: str) -> None:
    digest.update(f"{index}\t{' '.join(argv)}\t{rc}\n{out}".encode())


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(len(sorted_values) * q) - 1)]


def run_end_to_end(cli, workload, seed: int, seconds: int) -> dict:
    first = workload.request(seed, 0)
    rc, first_out, _ = call(cli, first.argv)
    correct = check(first, rc, first_out)
    digest = hashlib.sha256()
    digest_update(digest, 0, first.argv, rc, first_out)
    for _ in range(20):
        reference_loop()

    setup, setup_raw = [], []
    for _ in range(SETUP_RUNS):
        before = reference_loop()
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), *first.argv],
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
        )
        elapsed = perf_counter() - t0
        setup_raw.append(elapsed)
        setup.append(elapsed * REFERENCE_S / min(before, reference_loop()))
        if proc.returncode != rc or proc.stdout != first_out:
            print(f"set-up run differs from the in-process run: {proc.stderr.strip()[-500:]}", file=sys.stderr)
            correct = False

    latencies: list[float] = []
    raw: list[float] = []
    missed: list[bool] = []
    start = perf_counter()
    client = Client(cli)
    index = 1
    while True:
        request = workload.request(seed, index)
        rc, out, elapsed, scaled = client.send(request)
        missed.append(not check(request, rc, out))
        raw.append(elapsed)
        latencies.append(scaled)
        if index <= DIGEST_REQUESTS:
            digest_update(digest, index, request.argv, rc, out)
        wall = perf_counter() - start
        # Whole schedules only, so every run holds the same mix of request sizes.
        cycle_done = (index + 1) % len(workload.schedule) == 0
        if wall >= HARD_STOP_S or (wall >= seconds and index >= MIN_REQUESTS and cycle_done):
            break
        index += 1

    failed = sum(missed)
    # A failed request misses every latency target: it ranks as lasting the whole run.
    ranked = sorted(wall if miss else x for x, miss in zip(latencies, missed))
    ranked_raw = sorted(raw)
    unscaled = {
        "throughput_rps": len(raw) / sum(raw),
        "latency_p50_ms": nearest_rank(ranked_raw, 0.5) * 1e3,
        "latency_p90_ms": nearest_rank(ranked_raw, 0.9) * 1e3,
        "setup_s": statistics.median(setup_raw),
    }
    print(f"unscaled wall times: {json.dumps(unscaled)}")
    return {
        "correct": correct,
        "attempted": len(latencies),
        "failed": failed,
        "digest": digest.hexdigest() if index > DIGEST_REQUESTS else None,
        "unscaled": unscaled,
        "metrics": {
            "throughput_rps": (len(latencies) - failed) / sum(latencies),
            "latency_p50_ms": nearest_rank(ranked, 0.5) * 1e3,
            "latency_p90_ms": nearest_rank(ranked, 0.9) * 1e3,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
    }


def replay(cli, batch) -> tuple[list[str], float, float, int]:
    """Send a fixed batch: outputs, wall seconds, host-speed-scaled seconds, failures."""
    outs, wall, scaled, failed = [], 0.0, 0.0, 0
    client = Client(cli)
    for request in batch:
        rc, out, elapsed, scaled_elapsed = client.send(request)
        wall += elapsed
        scaled += scaled_elapsed
        outs.append(out)
        failed += not check(request, rc, out)
    return outs, wall, scaled, failed


def run_traced(cli, package, workload, seed: int) -> dict:
    import scaling
    import tracing

    first = workload.request(seed, 0)
    rc, out, _ = call(cli, first.argv)
    correct = check(first, rc, out)
    batch = [workload.request(seed, i) for i in range(1, workload.trace_batch + 1)]

    tracer = tracing.Tracer()
    with tracing.installed(tracer, package):
        traced_out, traced_s, traced_scaled, traced_failed = replay(cli, batch)
    untraced_out, _, untraced_scaled, untraced_failed = replay(cli, batch)
    if traced_out != untraced_out:
        print("traced and untraced outputs differ", file=sys.stderr)
        correct = False

    profile = tracing.Profile(tracer)
    remainder_s = traced_s - profile.root_ns / 1e9
    print(
        f"trace: {len(tracer.span_name)} spans; self times {profile.total_self_ns / 1e9:.6f} s"
        f" + untraced remainder {remainder_s:.6f} s = traced wall {traced_s:.6f} s"
    )
    if profile.total_self_ns != profile.root_ns or profile.min_self_ns < 0 or remainder_s < 0:
        print("trace: span times do not nest", file=sys.stderr)
        correct = False
    metrics = tracing.layer_metrics(profile)
    metrics["trace.overhead_ratio"] = traced_scaled / untraced_scaled
    metrics.update(scaling.scaling_metrics(seed))
    OUT.mkdir(exist_ok=True)
    tracer.write(str(OUT / f"trace-{workload.name}.json"))
    failed = traced_failed + untraced_failed
    return {"correct": correct, "attempted": 2 * len(batch), "failed": failed, "metrics": metrics}


def git_commit() -> str:
    """The checked-out commit, read from .git without running git; "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")
    if not (SRC / "thompsonf" / "cli.py").is_file():
        print(f"error: no thompsonf package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    sys.path.insert(0, str(SRC))
    import thompsonf
    from thompsonf import cli
    from workloads import WORKLOADS

    if Path(thompsonf.__file__).resolve().parent != SRC / "thompsonf":
        print(f"error: imported thompsonf from {thompsonf.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    t0 = perf_counter()
    if args.trace:
        result = run_traced(cli, thompsonf, workload, args.seed)
        declared = spec["per_layer"]
    else:
        result = run_end_to_end(cli, workload, args.seed, args.seconds)
        declared = spec["end_to_end"]
        stored = json.loads((HERE / "digests.json").read_text())
        expected = stored["sha256"].get(workload.name) if args.seed == stored["seed"] else None
        verdict = "no stored digest for this seed"
        if expected is not None:
            verdict = "matches the stored digest" if result["digest"] == expected else f"DIFFERS from stored {expected}"
            result["correct"] = result["correct"] and result["digest"] == expected
        print(f"stdout digest of requests 0..{DIGEST_REQUESTS}: {result['digest']} ({verdict})")
    wall = perf_counter() - t0

    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in declared}:
        print(f"error: metrics {sorted(set(metrics) ^ {m['name'] for m in declared})} do not match BENCHMARK.json", file=sys.stderr)
        return 1
    attempted, failed = result["attempted"], result["failed"]
    print(f"{workload.name} seed={args.seed}: {attempted} requests, {failed} failed, failed_ratio {failed / attempted}")
    for m in declared:
        print(f"  {m['name']} = {metrics[m['name']]} {m['unit']}")
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "requests": attempted,
        "wall_s": wall,
        "python": platform.python_version(),
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
    }
    print("record " + json.dumps(record))
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"run-{workload.name}-trace{args.trace}.json", "w") as fh:
        json.dump({"record": record, **result}, fh, indent=1)
    print(
        json.dumps(
            {
                "correct": bool(result["correct"]) and failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
