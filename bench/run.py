"""fracbk benchmark driver.

    python3 bench/run.py --workload {cli,bounds} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The driver spawns the workload's worker
(bench/worker.py) with the checkout's src/ on PYTHONPATH, measures set-up,
collects per-request latencies and check results, and prints every metric by
name and unit.  The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones from a traced run (see bench/README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import WORKLOADS, request_count
from tracing import PER_LAYER, parse_importtime

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
BUDGET_S = 170.0
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_rps": "1/s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def _spawn(cmd: list[str], env: dict, deadline: float) -> tuple[float | None, str]:
    """Run cmd to completion; return (seconds from spawn to its READY line,
    stdout).  The child gets its own process group, which is killed if the
    deadline passes."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, bufsize=0,
                            start_new_session=True)
    out, ready = b"", None
    try:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise BenchError(f"timed out: {' '.join(cmd)}")
            if not select.select([proc.stdout], [], [], remaining)[0]:
                continue
            chunk = os.read(proc.stdout.fileno(), 1 << 16)
            if not chunk:
                break
            out += chunk
            if ready is None and b"READY\n" in out:
                ready = time.perf_counter() - t0
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"exit code {proc.returncode}: {' '.join(cmd)}")
    return ready, out.decode()


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the highest percentile
    that still has TAIL_BEYOND samples above it; the maximum when there are
    too few samples."""
    s = sorted(latencies)
    n = len(s)
    if n <= TAIL_BEYOND:
        return 100.0, s[-1], 0
    return 100.0 * (n - TAIL_BEYOND) / n, s[n - TAIL_BEYOND - 1], TAIL_BEYOND


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def _env_settings(env: dict) -> dict:
    names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMPY_MADVISE_HUGEPAGE")
    return {name: env.get(name, "unset") for name in names}


def run(args) -> int:
    if not (ROOT / "src" / "fracbk" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'fracbk'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # numpy asks for transparent huge pages on large arrays; whether the host
    # grants them (and stalls to compact memory first) depends on the host's
    # free memory, not on fracbk, and made peak_rss_mb jump by 7 MB between
    # identical runs.
    env.setdefault("NUMPY_MADVISE_HUGEPAGE", "0")
    # OpenBLAS threads spin on the idle core between calls, so one request in
    # flight kept both cores of a 2-vCPU machine busy and its timings moved
    # with any load on the second core.
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    py = sys.executable
    count = request_count(args.workload, args.seconds)
    worker = [py, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
              "--seed", str(args.seed), "--count", str(count), "--trace", str(args.trace)]
    if args.workload == "cli":
        probe = [py, "-c", "import fracbk.cli; print('READY', flush=True)"]
    else:
        probe = worker + ["--setup-only"]

    # Set-up is measured SETUP_REPEATS times; for the in-process workload
    # the worker that then runs the requests is the last of them.
    setups = []
    if not args.trace:
        probes = SETUP_REPEATS if args.workload == "cli" else SETUP_REPEATS - 1
        setups = [_spawn(probe, env, deadline)[0] for _ in range(probes)]
    ready, out = _spawn(worker, env, deadline)
    if not args.trace and args.workload != "cli":
        setups.append(ready)
    result = json.loads(out.strip().splitlines()[-1])

    lat = result["latencies"]
    attempted = len(lat)
    failed_requests = {f["request"] for f in result["failures"]}
    wrong = [f for f in result["failures"] if f["kind"] == "wrong"]
    print(f"fracbk benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} requests={attempted} (closed loop, 1 client)")

    if args.trace:
        imports = [parse_importtime(_importtime(py, env, deadline)) for _ in range(IMPORTTIME_REPEATS)]
        metrics = dict(result["layers"])
        for name in imports[0]:
            metrics[name] = statistics.median(imp[name] for imp in imports)
        metrics["trace.overhead_ms"] = 1000.0 * (sum(lat) - sum(result["untraced"])) / attempted
        table = {name: (metrics[name], unit) for name, unit in PER_LAYER.items()}
        notes = {"import.numpy_ms": f"median of {IMPORTTIME_REPEATS} runs of -X importtime",
                 "trace.overhead_ms": "per request: traced minus untraced pass"}
    else:
        pct, tail_s, beyond = tail(lat)
        metrics = {
            "setup_s": statistics.median(setups),
            "latency_p50_ms": 1000.0 * statistics.median(lat),
            "latency_tail_ms": 1000.0 * tail_s,
            "throughput_rps": attempted / sum(lat),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        table = {name: (metrics[name], unit) for name, unit in END_TO_END.items()}
        notes = {
            "setup_s": f"median of {len(setups)}: " + ", ".join(f"{s:.4f}" for s in setups),
            "latency_tail_ms": f"p{pct:.1f}: {beyond} of {attempted} samples beyond it",
            "peak_rss_mb": "largest child process" if args.workload == "cli" else "worker process",
        }
    error_rate = len(failed_requests) / attempted
    for name, (value, unit) in table.items():
        print(f"  {name:34s} {value:14.6f} {unit:11s} {notes.get(name, '')}")
    print(f"  {'error_rate':34s} {error_rate:14.6f} {'ratio':11s} "
          f"{len(failed_requests)} of {attempted} requests failed; failed checks: {len(wrong)} "
          f"wrong output, {len(result['failures']) - len(wrong)} bound below the actual error")
    for failure in result["failures"][:10]:
        print(f"  failure: request {failure['request']} [{failure['kind']}] {failure['message']}")
    context = dict(result["context"], nproc=os.cpu_count(), env=_env_settings(env),
                   seed=args.seed, src_lines=_src_lines())
    print("context (informational): " + json.dumps(context, sort_keys=True))
    for name, sha in sorted(result.get("digests", {}).items()):
        print(f"digest (informational): {name} sha256={sha}")
    if args.trace:
        print(f"spans: {ROOT / '.bench_work'}/spans-{args.workload}-{args.seed}.csv.gz")
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": len(failed_requests),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in table.items()},
    }))
    return 0


def _importtime(py: str, env: dict, deadline: float) -> str:
    proc = subprocess.run([py, "-X", "importtime", "-c", "import fracbk"], cwd=ROOT, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise BenchError("python -X importtime -c 'import fracbk' failed")
    return proc.stderr


def main() -> int:
    parser = argparse.ArgumentParser(description="fracbk benchmark driver")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        return run(args)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
