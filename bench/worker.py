"""Benchmark worker: runs one workload's requests in a closed loop.

    python bench/worker.py --workload W --seed S --count N --trace 0|1 [--setup-only]

Started by run.py with src/ on PYTHONPATH.  One client, one request in
flight.  The in-process workload (bounds) imports fracbk, runs the fixed
warm-up requests and prints READY; the cli workload spawns one
``python -m fracbk.cli`` per request and only imports fracbk afterwards, to
check the outputs.  The last stdout line is one JSON object with the
per-request latencies, the failures and the peak resident memory.

With --trace 1 every request runs twice, untraced and traced, so the
difference is the tracing overhead; the per-layer metrics and the checks
come from the traced runs.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

from inputs import WORKLOADS, make_requests, warmup_requests

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".bench_work"
CLI_TIMEOUT_S = 60


def _execute(req: dict):
    """One in-process request; returns the output that checks.py inspects."""
    import numpy as np

    import fracbk as fb

    def params(p):
        return fb.OperatorParams(int(p[0]), float(p[1]), float(p[2]), float(p[3]), int(p[4]))

    op = req["op"]
    f = fb.get_function(req["fn"])
    if op == "bounds_uni":
        p = params(req["p"])
        table = fb.error_table(p, f, np.linspace(0.0, 1.0, req["nz"]))
        return [(z, approx, err, fb.bound_t2(p, f, z), fb.bound_kfunctional(p, f, z, req["C"]))
                for z, _exact, approx, err in table.rows]
    if op == "bounds_biv":
        bp = fb.BivariateParams(params(req["px"]), params(req["py"]))
        ki = fb.biv_kernel_integrals(bp, f)
        out = []
        for z, y in req["points"]:
            approx = fb.apply_biv_kernel(ki, z, y)
            err = abs(float(fb.evaluate(f, z, y)) - approx)
            out.append((z, y, approx, err, fb.bound_partial(bp, f, z, y),
                        fb.bound_complete(bp, f, z, y)))
        return out
    raise ValueError(f"unknown request op {op!r}")


def _run_pass(requests, run_one, checker=None, paired=False):
    """Time each request; check its output outside the timed region.

    run_one(i, req, traced) runs request i.  With paired=True each request
    runs twice, untraced and traced, in an order that alternates from one
    request to the next so that neither side is favoured by warm caches, and
    only the traced output is checked.  Returns (latencies, failures,
    untraced latencies)."""
    latencies, failures, untraced = [], [], []
    for i, req in enumerate(requests):
        sides = ((False, True) if i % 2 == 0 else (True, False)) if paired else (False,)
        for traced in sides:
            t0 = time.perf_counter()
            try:
                out, error = run_one(i, req, traced), None
            except Exception as exc:  # a failed request is counted, not fatal
                out, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            if paired and not traced:
                untraced.append(elapsed)
                continue
            latencies.append(elapsed)
            if checker is not None:
                found = [("wrong", error)] if error else checker.check(req, out)
                failures.extend({"request": i, "kind": k, "message": m} for k, m in found)
    return latencies, failures, untraced


def _context() -> dict:
    import numpy
    import scipy

    import fracbk

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "fracbk_all": len(fracbk.__all__)}


def _peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def _require_checkout_fracbk() -> None:
    import fracbk

    if Path(fracbk.__file__).resolve().parent != ROOT / "src" / "fracbk":
        sys.exit(f"worker: fracbk was imported from {fracbk.__file__}, not from {ROOT / 'src'}")


def run_in_process(args) -> dict:
    from checks import Checker
    from tracing import Tracer, aggregate

    _require_checkout_fracbk()
    for req in warmup_requests(args.workload):
        _execute(req)
    print("READY", flush=True)
    if args.setup_only:
        return {}
    requests = make_requests(args.workload, args.seed, args.count)
    checker = Checker()
    tracer = Tracer()

    def run_one(i, req, traced):
        if not traced:
            return _execute(req)
        tracer.request_id = i
        tracer.install()
        try:
            return _execute(req)
        finally:
            tracer.restore()

    result = {"context": _context()}
    latencies, failures, untraced = _run_pass(requests, run_one, checker, paired=bool(args.trace))
    result.update(latencies=latencies, failures=failures)
    if args.trace:
        tracer.write_csv(WORK_DIR / f"spans-{args.workload}-{args.seed}.csv.gz")
        result.update(untraced=untraced, layers=aggregate(tracer))
    else:
        result["peak_rss_mb"] = _peak_rss_mb(resource.RUSAGE_SELF)
    return result


def run_cli(args) -> dict:
    from tracing import Tracer, aggregate

    out_dir = WORK_DIR / "cli"
    out_dir.mkdir(parents=True, exist_ok=True)
    requests = make_requests("cli", args.seed, args.count)
    outputs: dict[int, tuple[int, str]] = {}

    def call(i, req, traced):
        out_path = out_dir / f"out-{i}.csv"
        if traced:
            cmd = [sys.executable, str(BENCH_DIR / "cli_shim.py"), str(out_dir / f"spans-{i}.json")]
        else:
            cmd = [sys.executable, "-m", "fracbk.cli"]
        proc = subprocess.run([*cmd, *req["argv"], "--out", str(out_path)], cwd=ROOT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=CLI_TIMEOUT_S)
        if traced or not args.trace:
            outputs[i] = (proc.returncode, out_path.read_text() if out_path.exists() else "")
        out_path.unlink(missing_ok=True)
        if proc.returncode != 0:
            print(proc.stderr.decode(errors="replace"), file=sys.stderr)

    print("READY", flush=True)
    latencies, _, untraced = _run_pass(requests, call, paired=bool(args.trace))
    result = {}
    if not args.trace:
        result["peak_rss_mb"] = _peak_rss_mb(resource.RUSAGE_CHILDREN)

    from checks import Checker, digest, reference_name

    _require_checkout_fracbk()
    checker = Checker()
    failures, digests = [], {}
    for i, req in enumerate(requests):
        out = outputs.get(i, (None, ""))  # None: the call timed out
        found = checker.check_cli(req, out)
        failures.extend({"request": i, "kind": k, "message": m} for k, m in found)
        if req["kind"] == "preset" and out[0] == 0:
            digests.setdefault(reference_name(req["argv"]), digest(out[1]))
    result.update(latencies=latencies, failures=failures, digests=digests, context=_context())
    if args.trace:
        tracer = Tracer()
        for i in range(len(requests)):
            spans_path = out_dir / f"spans-{i}.json"
            if spans_path.exists():
                tracer.extend(json.loads(spans_path.read_text()), i)
                spans_path.unlink()
        tracer.write_csv(WORK_DIR / f"spans-cli-{args.seed}.csv.gz")
        result.update(untraced=untraced, layers=aggregate(tracer))
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    WORK_DIR.mkdir(exist_ok=True)
    if args.workload == "cli":
        result = run_cli(args)
    else:
        result = run_in_process(args)
    if result:
        print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
