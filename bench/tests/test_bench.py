"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_smoke_every_metric_printed_with_name_and_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] and f" {m['unit']} " in line for line in lines)
    assert any(line.split()[:1] == ["error_rate"] for line in lines)
    assert any(line.startswith("context (informational): ") for line in lines)


def _sample_requests():
    return inputs.make_requests("bounds", 5, 8)


def _wrapped_names():
    """Every (namespace, name) binding a wrapped target, with its object."""
    found = []
    for modname, attr, _hook in tracing.TARGETS:
        home = sys.modules[modname]
        owner_name, _, leaf = attr.rpartition(".")
        if owner_name:
            owner = getattr(home, owner_name)
            found.append((owner, leaf, vars(owner)[leaf]))
            continue
        original = vars(home)[leaf]
        for name, mod in sys.modules.items():
            if name == "fracbk" or name.startswith("fracbk."):
                found += [(mod, n, v) for n, v in vars(mod).items() if v is original]
    return found


def test_wrappers_keep_outputs_and_are_restored():
    import fracbk.cli  # noqa: F401  (every module the wrappers reach)

    reqs = _sample_requests()
    plain = [worker._execute(r) for r in reqs]
    before = _wrapped_names()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(getattr(ns, name) is not obj for ns, name, obj in before)
        traced = [worker._execute(r) for r in reqs]
    finally:
        tracer.restore()
    assert traced == plain
    assert all(getattr(ns, name) is obj for ns, name, obj in before)
    layers = tracing.aggregate(tracer)
    for name in ("basis.row_calls", "operator_uni.kernel_evals", "operator_biv.kernel_evals",
                 "operator_biv.moduli_cells", "error_analysis.moduli_shifts",
                 "error_analysis.table_ms"):
        assert layers[name] > 0, name


def test_wrapped_function_is_seen_through_every_namespace():
    import fracbk.error_analysis as ea

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert ea.kernel_integrals is sys.modules["fracbk.operator_uni"].kernel_integrals
        assert ea.kernel_integrals is sys.modules["fracbk"].kernel_integrals
    finally:
        tracer.restore()


def test_self_time_excludes_children():
    t = tracing.Tracer()
    for layer, parent, start, end in ((5, -1, 0, 100), (3, 0, 10, 40), (3, 0, 50, 70)):
        t.layer.append(layer)
        t.request.append(0)
        t.parent.append(parent)
        t.start.append(start * 1_000_000)
        t.end.append(end * 1_000_000)
        t.count_a.append(7)
        t.count_b.append(0)
    layers = tracing.aggregate(t)
    assert tracing.SPAN_NAMES[5] == "operator_uni.apply_kernel"
    assert layers["operator_uni.apply_ms"] == pytest.approx(50.0)
    assert layers["basis.row_calls"] == 2 and layers["basis.row_weights"] == 14
    assert layers["basis.row_ms"] == pytest.approx(50.0)


def test_parse_importtime_takes_outermost_package_entries():
    sample = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:       500 |        600 |     numpy",
        "import time:        50 |         50 |       scipy",
        "import time:        30 |         80 |     scipy.special",
        "import time:        40 |         40 |     scipy.linalg",
        "import time:        10 |        730 |   fracbk.basis",
        "import time:        20 |        750 | fracbk",
    ])
    assert tracing.parse_importtime(sample) == {
        "import.numpy_ms": 0.6, "import.scipy_ms": 0.12, "import.fracbk_ms": 0.75}


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([float(i) for i in range(1, 51)]) == (80.0, 40.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (100.0, 3.0, 0)


def test_same_seed_same_inputs_other_seed_other_inputs():
    for workload in inputs.WORKLOADS:
        assert inputs.make_requests(workload, 7, 20) == inputs.make_requests(workload, 7, 20)
        assert inputs.make_requests(workload, 7, 20) != inputs.make_requests(workload, 8, 20)


def test_cli_mix_does_not_depend_on_the_seed():
    def mix(seed):
        return [(r["kind"], " ".join(r["argv"]) if r["kind"] == "preset" else None,
                 r["argv"][-1] if r["kind"] == "biv-eval" else None)
                for r in inputs.make_requests("cli", seed, 80)]

    assert mix(1) == mix(2) == mix(99)


def test_generated_functions_parse():
    import fracbk

    for workload in inputs.WORKLOADS:
        for seed in range(30):
            for req in inputs.make_requests(workload, seed, 70):
                if req["fn"] is not None:
                    fracbk.get_function(req["fn"])


def test_checker_flags_wrong_values_and_low_bounds():
    import fracbk

    c = checks.Checker()
    params = fracbk.OperatorParams(40, 2.0, 4.0, 0.9, 3)
    zs = [0.0, 0.3, 1.0]
    quad = {"fn": "0.5 + 1.0*z + -2.0*z^2", "quad": [0.5, 1.0, -2.0]}
    approx = [fracbk.apply(params, fracbk.get_function(quad["fn"]), z) for z in zs]
    assert c._uni_values(quad, params, zs, approx) == []
    assert c._uni_values(quad, params, zs, [a + 1e-6 for a in approx]) != []
    root = {"fn": "sqrt(z)", "quad": None}
    approx = [fracbk.apply(params, fracbk.get_function("sqrt(z)"), z) for z in zs]
    assert c._uni_values(root, params, zs, approx) == []
    assert c._uni_values(root, params, [0.5], [1.5]) != []
    low = {"op": "bounds_uni", "p": [40, 2.0, 4.0, 0.9, 3], "nz": 3, "C": 1.0, "fn": "f1", "quad": None}
    r0 = fracbk.apply(params, fracbk.get_function("f1"), 0.0)
    assert [k for k, _ in c.check(low, [(0.0, r0, 1e-3, 0.0, 1.0)])] == ["bound"]
    assert [k for k, _ in c.check(low, [(0.0, r0 + 10.0, 1e-3, 1.0, 1.0)])] == ["wrong"]
    assert [k for k, _ in c.check_cli({"kind": "preset", "argv": ["table", "1"]}, (2, ""))] == ["wrong"]


def test_checker_compares_bounds_approximations():
    """On bounds requests the operator values themselves are checked, not
    only the bounds: against the closed forms for quadratics and against
    the range of f otherwise."""
    c = checks.Checker()
    for req in inputs.make_requests("bounds", 11, 40):
        out = worker._execute(req)
        assert [k for k, _ in c.check(req, out) if k == "wrong"] == [], req
        col = 1 if req["op"] == "bounds_uni" else 2
        # A small shift leaves a closed form; only a large one leaves the range of f.
        shift = 1e-6 if req["quad"] else 10.0
        bad = [tuple(v + shift if k == col else v for k, v in enumerate(r)) for r in out]
        assert "wrong" in [k for k, _ in c.check(req, bad)], req


def test_wrong_approximation_on_bounds_makes_run_incorrect(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    for name, line in (("operator_uni.py", "    return float(basis_row(ki.params, z).weights @ ki.values)"),
                       ("operator_biv.py", "    return float(bz @ ki.values @ by)")):
        path = tmp_path / "src" / "fracbk" / name
        text = path.read_text()
        assert line in text
        path.write_text(text.replace(line, line + " + 10.0"))
    proc = _bench("--workload", "bounds", "--seed", "4", "--seconds", "2.4", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == inputs.request_count("bounds", 2.4)


def test_wrong_reference_counts_in_error_rate(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    for ref in (tmp_path / "bench" / "reference").glob("*.csv"):
        lines = ref.read_text().splitlines()
        header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        cells = lines[header + 1].split(",")
        cells[-1] = repr(float(cells[-1]) + 1.0)
        lines[header + 1] = ",".join(cells)
        ref.write_text("\n".join(lines) + "\n")
    seed = 3
    kinds = [r["kind"] for r in inputs.make_requests("cli", seed, len(inputs.PRESETS) + 12)]
    count = max(3, kinds.index("preset") + 1)
    seconds = count * inputs.NOMINAL_S["cli"]
    assert inputs.request_count("cli", seconds) == count
    proc = _bench("--workload", "cli", "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    presets = sum(r["kind"] == "preset" for r in inputs.make_requests("cli", seed, count))
    assert result["correct"] is False
    assert result["failed"] == presets
    rate = next(line for line in proc.stdout.splitlines() if line.split()[:1] == ["error_rate"])
    assert float(rate.split()[1]) == pytest.approx(presets / count)


def test_fails_without_a_checkout(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "bounds", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
