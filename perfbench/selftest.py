"""Self-tests of the benchmark: span arithmetic, rebinding, gates and seeds.

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

The gates and seeds are exercised at small sizes, so the whole file runs in
a few seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

from mobiuslat.fibpoly import fib_poly, sparse_sets  # noqa: E402


def mu(n: int) -> int:
    return fib_poly(n - 2).eval(-1)


class FakeClock:
    def __init__(self, *readings):
        self.readings = list(readings)

    def __call__(self):
        return self.readings.pop(0)


def test_self_time_subtracts_direct_children_only():
    # job [0, 10] holds a [1, 6], which holds b [2, 4]; then b [7, 8] alone
    t = Tracer(clock=FakeClock(0, 1, 2, 4, 6, 7, 8, 10))
    t.enter("job")
    t.enter("a")
    t.enter("b")
    assert t.exit() == 2
    assert t.exit() == 5
    t.enter("b")
    t.exit()
    assert t.exit() == 10
    snap = t.snapshot()["spans"]
    assert snap == {"job": [1, 4], "a": [1, 3], "b": [2, 3]}
    assert sum(self_s for _, self_s in snap.values()) == 10


def test_recursive_span_counts_each_second_once():
    # f [0, 4] calls f [1, 3]: self times add up to 4, not to 4 + 2
    t = Tracer(clock=FakeClock(0, 1, 3, 4))
    t.enter("f")
    t.enter("f")
    t.exit()
    t.exit()
    assert t.snapshot()["spans"] == {"f": [2, 4]}


def test_open_span_refuses_snapshot():
    t = Tracer(clock=FakeClock(0))
    t.enter("job")
    try:
        t.snapshot()
    except RuntimeError:
        return
    raise AssertionError("snapshot with an open span")


def test_rebinding_reaches_names_imported_elsewhere():
    # families calls enumerate_avoiders through its own namespace
    code = (
        "import sys; sys.path[:0] = [sys.argv[1]]\n"
        "import json, spans, mobiuslat.families as f\n"
        "t = spans.Tracer(); spans.instrument(t)\n"
        "f.build_family('A', 5); calls = dict(t.calls); f.verify_structure(3)\n"
        "print(json.dumps([calls, t.snapshot()]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(HERE)],
        env=run.child_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    calls, snap = json.loads(proc.stdout)
    assert calls["permutation.enumerate_avoiders"] == 1
    assert snap["spans"]["permutation.contains_pattern"][0] > 0
    assert snap["counts"]["permutation.avoiders_out"] > 0
    assert snap["counts"]["poset.elements_built"] > 0


def test_lattice_gate_fails_on_a_wrong_value():
    out = workloads.lattice_job("B", 5, seed=0)
    assert not [c for c, ok in workloads.lattice_gate(dict(out), mu=mu(5)) if not ok]
    failed = [c for c, ok in workloads.lattice_gate(dict(out), mu=mu(5) + 1) if not ok]
    assert len(failed) == 4
    failed = [c for c, ok in workloads.lattice_gate(dict(out, exit=1), mu=mu(5)) if not ok]
    assert failed == ["exit 0"]


def test_lattice_gate_fails_on_unreadable_output():
    checks = workloads.lattice_gate({"exit": 0, "stdout": "garbled\n"}, mu=1)
    assert len(checks) == 5 and sum(ok for _, ok in checks) == 1


def test_verify_gate_fails_on_a_wrong_count_or_exit():
    out = workloads.verify_job(3, seed=0)
    claims = len(json.loads(out["stdout"])["claims"])
    assert all(ok for _, ok in workloads.verify_gate(dict(out), claims=claims))
    assert not all(ok for _, ok in workloads.verify_gate(dict(out), claims=claims + 1))
    assert not all(ok for _, ok in workloads.verify_gate(dict(out, exit=1), claims=claims))
    lost = workloads.verify_gate(dict(out, stdout=""), claims=claims)
    assert len(lost) == claims + 3 and sum(ok for _, ok in lost) == 1


def test_nbb_orders_gate_fails_on_a_wrong_value():
    out = workloads.nbb_orders_job(8, 3, seed=1)
    bases = len(sparse_sets(6))
    checks = workloads.nbb_orders_gate(out, mu=mu(8), bases=bases)
    assert len(checks) == 3 + 2 * 3 and all(ok for _, ok in checks)
    wrong_mu = workloads.nbb_orders_gate(out, mu=mu(8) + 1, bases=bases)
    assert sum(not ok for _, ok in wrong_mu) == 1 + 3
    wrong_bases = workloads.nbb_orders_gate(out, mu=mu(8), bases=bases + 1)
    assert [c for c, ok in wrong_bases if not ok] == [f"{bases + 1} canonical bases"]
    bad_order = workloads.nbb_orders_gate(dict(out, mu=[mu(8), 5, mu(8)]), mu=mu(8), bases=bases)
    assert sum(not ok for _, ok in bad_order) == 2


def test_second_seed_changes_orders_not_results():
    one = workloads.nbb_orders_job(8, 4, seed=1)
    two = workloads.nbb_orders_job(8, 4, seed=2)
    assert one["orders"] != two["orders"]
    assert one["mu"] == two["mu"] == [mu(8)] * 4
    passes = []
    for seed in (1, 2):
        out = workloads.verify_job(4, seed=seed)
        workloads.verify_gate(out, claims=0)
        passes.append(out["passed"])
        assert json.loads(out["stdout"])["seed"] == seed
    assert passes[0] == passes[1] > 0


def test_names_agree_with_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    empty = {"trace": {"spans": {}, "counts": {}}, "job_s": 1.0, "stdout_bytes": 0}
    reported = run.layer_metrics([empty], [{"job_s": 1.0}])
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in reported.items()
    }


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-8", "--seed", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
