"""Tests of the benchmark itself: determinism, oracles, tracing and the contract."""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

PROGRAM = run.Program()


def first_batches(workload: str, seed: int, count: int):
    return list(itertools.islice(inputs.batches(workload, seed), count))


def run_batches(batches, trace: bool = False):
    return run.run_workload(PROGRAM, iter(batches), seconds=float("inf"), trace=trace, max_batches=len(batches))


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    assert first_batches(workload, 5, 2) == first_batches(workload, 5, 2)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_different_seeds_give_different_inputs(workload):
    one = {op.args for batch in first_batches(workload, 1, 2) for op in batch}
    two = {op.args for batch in first_batches(workload, 2, 2) for op in batch}
    assert one.isdisjoint(two)


@pytest.mark.parametrize("workload", ["deep-algebra", "coproduct"])
def test_no_argv_repeats_within_a_run(workload):
    argv = [op.args for batch in first_batches(workload, 3, 20) for op in batch]
    assert len(argv) == len(set(argv))


def test_same_seed_gives_same_digest_and_argv():
    batches = first_batches("coproduct", 7, 1)
    a, b = run_batches(batches), run_batches(first_batches("coproduct", 7, 1))
    assert a.argv == b.argv
    assert a.digest.hexdigest() == b.digest.hexdigest()
    assert a.attempted == len(batches[0]) and not a.failures


def test_traced_and_untraced_runs_give_the_same_digest():
    batches = first_batches("coproduct", 4, 2)
    plain = run_batches(batches)
    traced = run_batches(batches, trace=True)
    assert len(traced.traced_walls) == 1
    assert plain.digest.hexdigest() == traced.digest.hexdigest()
    assert not plain.failures and not traced.failures
    layers = traced.layers
    assert layers["bialgebra.delta"][0] > 0 and layers["tensors.canonical"][0] > 0
    assert layers["monoids.window"][0] == 0


def _bindings():
    """Every attribute of every package module and of every class defined in one."""
    seen = {}
    for name, module in PROGRAM.modules.items():
        for attr, value in vars(module).items():
            seen[(name, attr)] = value
            if isinstance(value, type) and value.__module__.startswith("cuntzsum"):
                for cattr, cvalue in vars(value).items():
                    seen[(name, attr, cattr)] = cvalue
    return seen


def test_wrappers_cover_from_imports_and_are_gone_afterwards():
    before = _bindings()
    tracer = Tracer(PROGRAM.modules)
    assert tracer.missing == []
    mods = PROGRAM.modules
    with tracer.installed():
        for module, name in (("exprs", "canonical_form"), ("bialgebra", "equals"), ("__init__", "delta_H"),
                             ("cli", "delta"), ("suites", "prime_factorize")):
            assert hasattr(getattr(mods[module], name), "__wrapped__"), (module, name)
        scalar = mods["scalars"].Scalar
        assert hasattr(vars(scalar)["__radd__"], "__wrapped__")
        assert mods["classify"].delta is mods["bialgebra"].delta
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_a_mutation_counts_as_failed_ops():
    with PROGRAM.mutations.enabled("one-is-prime"):
        result = run_batches(first_batches("suite-default", 0, 1))
    assert result.attempted == 1 and len(result.failures) == 1
    assert "factorization" in result.failures[0] and "order-structure" in result.failures[0]


def test_a_planted_wrong_verdict_counts_as_a_failed_op():
    batch = first_batches("coproduct", 9, 1)[0]
    index = next(i for i, op in enumerate(batch) if op.kind == "coassoc")
    batch[index] = batch[index]._replace(expect=("stdout", 0, "false\n"))
    result = run_batches([batch])
    assert result.attempted == len(batch)
    assert len(result.failures) == 1 and result.failures[0].startswith("coassoc")


def test_pair_oracle_rejects_a_missing_divisor_pair():
    op = next(op for op in first_batches("coproduct", 2, 1)[0] if op.expect[0] == "pairs")
    done = run.run_op(PROGRAM, op)
    assert done.error is None and inputs.check(op, done.rc, done.text) is None
    machine = op.expect[1]
    dropped = "\n".join(done.text.splitlines()[1:]) + "\n" if machine else done.text.split(" + ", 1)[1]
    assert inputs.check(op, done.rc, dropped) is not None


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert tuple(run.SUITE_NAMES) == PROGRAM.suites.SUITE_NAMES


def test_without_the_package_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "coproduct", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
