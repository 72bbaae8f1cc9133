"""Smoke test of the benchmark: every workload at toy size, untraced and
traced, so the benchmark cannot rot unnoticed.

    python3 -m pytest bench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

sys.path.insert(0, str(BENCH))
import common  # noqa: E402
import spec  # noqa: E402


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_at_toy_size(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.2",
                     "--trace", str(trace), "--toy")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        assert "op_s_tail" in proc.stdout and "failed_frac" in proc.stdout


def test_workloads_match_spec():
    assert WORKLOADS == list(spec.WORKLOADS)


@pytest.mark.parametrize("toy", [False, True])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_pool_op_has_a_reference(workload, toy):
    refs = common.load_reference()
    keys = [op["key"] for ops in spec.pool(workload, toy).values() for op in ops]
    assert len(set(keys)) == len(keys)
    assert [k for k in keys if k not in refs] == []


def test_plan_is_a_function_of_the_seed():
    for workload in WORKLOADS:
        assert spec.plan(workload, 5) == spec.plan(workload, 5)
        assert spec.plan(workload, 5) != spec.plan(workload, 6)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in BENCHMARK["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_known_defect_forgives_only_its_float_drift():
    import run

    def report(l=2.0, l_star=2.0, ratio=1.0, certified=True):
        return json.dumps({"certified": certified, "l": l, "l_star": l_star, "ratio": ratio})

    shifted = {"key": "shifted", "known_defect": True}
    plain = {"key": "plain", "known_defect": False}
    outcomes = run.Outcomes({op["key"]: common.summarize(0, report()) for op in (shifted, plain)})
    cases = [
        (shifted, 0, report(), None),
        (shifted, 0, report(l_star=2.5, ratio=0.8), True),
        (shifted, 0, report(l=2.5, ratio=1.25), False),
        (shifted, 0, report(certified=False), False),
        (shifted, 5, report(), False),
        (shifted, None, "", False),
        (plain, 0, report(l_star=2.5, ratio=0.8), False),
    ]
    for op, code, stdout, want in cases:
        before = len(outcomes.failed)
        outcomes.record(op, 0.1, code, stdout, "boom")
        got = outcomes.failed[-1][2] if len(outcomes.failed) > before else None
        assert got is want, (op, code, stdout)


def test_scale_divides_out_the_host_speed():
    import hostspeed

    walls = [1.0, 2.0, 3.0]
    # the host ran at half speed throughout
    assert hostspeed.scale(walls, [2.0] * 4) == pytest.approx([0.5, 1.0, 1.5])
    # one disturbed measurement is outvoted by its neighbours
    assert hostspeed.scale(walls, [1.0, 1.0, 5.0, 1.0]) == pytest.approx(walls)
    assert 0.2 < hostspeed.slowness() < 20
