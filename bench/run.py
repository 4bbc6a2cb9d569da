"""Benchmark of the cuntzsum package, driven from outside it.

    python3 bench/run.py --workload coproduct --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seconds 10

Each workload is a closed loop: one caller in one process, no threads,
each op starting when the previous one has returned.  CLI ops call
``cuntzsum.cli.main(argv)`` in process with stdout captured; the suite
workload calls ``run_property_suite``.  The program sees only the
generated argv strings or `SuiteConfig`; the seed stays here.

The run imports the package from ``src/`` next to this directory and
generates its first seeded batch of ops (see ``inputs.py``); that is the
set-up.  It then runs whole batches, generating each next batch outside
the timed region, until ``--seconds`` have passed.  After each batch,
every op is checked by an oracle that does not use the package; an op
that raises, exits or prints wrongly, or overruns its cap counts as
failed and the run goes on.

Times are taken with `probe.SpeedProbe` running, which removes the
slowdown other tenants of a shared host cause: each reported duration is
the raw one scaled to a fixed reference speed (see ``probe.py``).  The
summary lines also print the raw medians.

With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics; with ``--trace 1`` the run alternates untraced and
traced batches and reports the per-layer metrics of `tracer.TARGETS`,
per traced batch, and writes the spans under ``bench/out/``.  The exit
code is 0 when every op passed, 1 when one failed, 2 when the package
cannot be loaded (then no result is printed).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import itertools
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from probe import SpeedProbe  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402

MODULES = ("cli", "exprs", "algebra", "tensors", "bialgebra", "monoids", "classify", "scalars", "suites", "mutations")
SETUP_REPS = 9
# Per-op wall-clock caps, far above the slowest op on the dense engine
# (about 1.2 s for a CLI op and 7 s for a suite run).
CLI_CAP_S = 20.0
SUITE_CAP_S = 60.0

SUITE_NAMES = (
    "rewriting-termination", "relation-laws", "star-algebra-laws", "oracle-agreement",
    "canonical-idempotence", "coassociativity", "counit-laws", "hom-property",
    "non-cocommutativity", "restricted-vs-full-coproduct", "wcs-axiom", "factorization",
    "generated-submonoids-factorial", "prime-set-lattice", "complement-duality",
    "free-monoid-duality", "order-structure", "classifier-soundness",
    "decomposition-exactness", "quotient-morphism", "order-anti-isomorphism",
    "window-counterexample", "parser-roundtrip",
)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    """Per-layer metrics are given per batch: one suite pass, or one fixed set of CLI ops."""
    units = {}
    for metric in TARGETS:
        if metric == "scalars":
            units["scalars.ops"] = "count/batch"
            units["scalars.self_s"] = "s/batch"
        else:
            units[f"{metric}.calls"] = "count/batch"
            units[f"{metric}.self_s"] = "s/batch"
    for name in SUITE_NAMES:
        units[f"suites.{name}_s"] = "s/batch"
    units["trace.overhead_s"] = "s/batch"
    return units


class PackageMissing(Exception):
    pass


class Program:
    """The package's modules, imported from ``<root>/src``."""

    def __init__(self):
        src = str(ROOT / "src")
        if src not in sys.path:
            sys.path.insert(0, src)
        try:
            self.modules = {name: importlib.import_module(f"cuntzsum.{name}") for name in MODULES}
            self.modules["__init__"] = importlib.import_module("cuntzsum")
        except ImportError as exc:
            raise PackageMissing(f"cannot import cuntzsum from {src}: {exc}") from exc
        found = Path(self.modules["__init__"].__file__).resolve()
        if Path(src).resolve() not in found.parents:
            raise PackageMissing(f"cuntzsum was imported from {found}, not from {src}")
        self.cli = self.modules["cli"]
        self.suites = self.modules["suites"]
        self.mutations = self.modules["mutations"]


def _raw(t0: float, t1: float) -> float:
    return t1 - t0


def measure_setup(workload: str, seed: int, normalize):
    """Median seconds of (fresh import of the package + the first batch).

    Returns (median, program, batch stream) from the last repetition.  Any cuntzsum
    modules loaded before the call are put back afterwards, so the caller's
    references stay valid.
    """
    saved = {k: v for k, v in sys.modules.items() if k == "cuntzsum" or k.startswith("cuntzsum.")}
    times = []
    program = stream = None
    for _ in range(SETUP_REPS):
        for name in [k for k in sys.modules if k == "cuntzsum" or k.startswith("cuntzsum.")]:
            del sys.modules[name]
        t0 = time.perf_counter()
        program = Program()
        stream = inputs.batches(workload, seed)
        first = next(stream)
        times.append(normalize(t0, time.perf_counter()))
    if saved:
        sys.modules.update(saved)
    return statistics.median(times), program, itertools.chain([first], stream)


class OpTimeout(BaseException):
    """Raised by the alarm inside an op that overran its cap.

    A BaseException, so that no ``except Exception`` in the program can
    swallow it.
    """


def _on_alarm(signum, frame):
    raise OpTimeout


class Outcome(NamedTuple):
    """What one op did; ``error`` says why it did not return."""

    t0: float
    t1: float
    rc: int | None
    text: str
    report: object
    error: str | None
    stderr: str


def run_op(program: Program, op: inputs.Op) -> Outcome:
    """Run one op under its cap; the oracle is applied later, outside the timed batch."""
    out, err = io.StringIO(), io.StringIO()
    rc, report, error = None, None, None
    cap = SUITE_CAP_S if op.kind == "suite" else CLI_CAP_S
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, cap)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if op.kind == "suite":
                config = program.suites.SuiteConfig(seed=op.args[0])
                report = program.suites.run_property_suite(config)
                rc = 0
            else:
                rc = program.cli.main(list(op.args))
    except OpTimeout:
        error = f"overran its {cap:g} s cap"
    except Exception as exc:  # the run goes on; the op counts as failed
        error = f"raised {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    t1 = time.perf_counter()
    text = inputs.suite_output(report) if report is not None else out.getvalue()
    return Outcome(t0, t1, rc, text, report, error, err.getvalue())


class Run:
    """Everything one run measured."""

    def __init__(self):
        self.batch_walls: list[float] = []
        self.traced_walls: list[float] = []
        self.op_ms: list[float] = []
        self.raw_batch_walls: list[float] = []
        self.raw_op_ms: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.suite_checks = 0
        self.suite_seconds: dict[str, list[float]] = {}
        self.layers: dict[str, list] = {}
        self.digest = hashlib.sha256()
        self.argv: list = []
        self.tracer: Tracer | None = None
        self.elapsed = 0.0


def run_workload(program: Program, stream, seconds: float, trace: bool = False,
                 max_batches: int | None = None, normalize=_raw) -> Run:
    """Run whole batches from the stream until `seconds` have passed.

    With ``trace`` the batches alternate untraced and traced, starting
    untraced, and at least one of each runs.  ``max_batches`` bounds the
    count regardless of time.  ``normalize(t0, t1)`` turns an interval
    into the reported duration.
    """
    run = Run()
    tracer = Tracer(program.modules) if trace else None
    run.tracer = tracer
    start = time.perf_counter()
    for index, batch in enumerate(itertools.islice(stream, max_batches)):
        enough_time = time.perf_counter() - start >= seconds
        need_pair = trace and len(run.traced_walls) == 0
        if index and enough_time and not need_pair:
            break
        traced = trace and index % 2 == 1
        results = []
        t0 = time.perf_counter()
        with (tracer.installed() if traced else contextlib.nullcontext()):
            for op in batch:
                op_id = run.attempted + len(results)
                with (tracer.span(f"op.{op.kind}", op_id) if traced else contextlib.nullcontext()):
                    results.append(run_op(program, op))
        t1 = time.perf_counter()
        wall = normalize(t0, t1)
        (run.traced_walls if traced else run.batch_walls).append(wall)
        if traced:
            for metric, (calls, self_s) in tracer.take_stats().items():
                total = run.layers.setdefault(metric, [0, 0.0])
                total[0] += calls
                total[1] += self_s * wall / (t1 - t0)
        else:
            run.raw_batch_walls.append(t1 - t0)
        for op, done in zip(batch, results):
            run.attempted += 1
            run.argv.append(op.args)
            run.digest.update(done.text.encode("utf-8"))
            if not traced:
                run.op_ms.append(normalize(done.t0, done.t1) * 1000.0)
                run.raw_op_ms.append((done.t1 - done.t0) * 1000.0)
            failure = done.error or inputs.check(op, done.rc, done.text, done.report)
            if failure:
                stderr = f"; stderr {done.stderr[:120]!r}" if done.stderr else ""
                run.failures.append(f"{op.kind} {str(op.args)[:100]}: {failure}{stderr}")
            if done.report is not None:
                run.suite_checks += sum(r.checks for r in done.report.results)
                if not traced:
                    scale = normalize(done.t0, done.t1) / (done.t1 - done.t0)
                    for r in done.report.results:
                        run.suite_seconds.setdefault(r.name, []).append(r.seconds * scale)
    run.elapsed = time.perf_counter() - start
    return run


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1)]


def end_to_end_metrics(run: Run, setup_s: float) -> dict[str, float]:
    busy = sum(run.batch_walls)
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(run.batch_walls),
        "ops_per_s": len(run.op_ms) / busy,
        "op_p50_ms": statistics.median_high(run.op_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(run: Run) -> dict[str, float]:
    traced = len(run.traced_walls)
    out = {}
    for metric, (calls, self_s) in run.layers.items():
        if metric == "scalars":
            out["scalars.ops"] = calls / traced
            out["scalars.self_s"] = self_s / traced
        else:
            out[f"{metric}.calls"] = calls / traced
            out[f"{metric}.self_s"] = self_s / traced
    for name in SUITE_NAMES:
        times = run.suite_seconds.get(name)
        out[f"suites.{name}_s"] = statistics.median(times) if times else 0.0
    out["trace.overhead_s"] = statistics.median(run.traced_walls) - statistics.median(run.batch_walls)
    return out


def summary_lines(workload: str, seed: int, run: Run, metrics: dict, units: dict) -> list[str]:
    """Human-readable report: every metric with its unit, then the extras."""
    failed = len(run.failures)
    lines = [f"# {workload} seed={seed}: {len(run.batch_walls)} untraced + {len(run.traced_walls)} traced batches, "
             f"{run.attempted} ops, {failed} failed, {run.elapsed:.2f} s"]
    for name, value in metrics.items():
        lines.append(f"{name:<44} {value:>14.6g} {units[name]}")
    lines.append(f"{'error_rate':<44} {failed / run.attempted:>14.6g} failed/attempted")
    samples = len(run.op_ms)
    p95 = percentile(run.op_ms, 0.95)
    above = sum(1 for v in run.op_ms if v > p95)
    if above >= 10:
        lines.append(f"{'op_p95_ms':<44} {p95:>14.6g} ms ({samples} samples, {above} above)")
    else:
        lines.append(f"{'op_p95_ms':<44} {'n/a':>14} ({samples} samples, {above} above p95; needs 10)")
    if run.suite_checks:
        busy = sum(run.batch_walls) + sum(run.traced_walls)
        lines.append(f"{'checks_per_s':<44} {run.suite_checks / busy:>14.6g} 1/s")
    lines.append(f"{'raw wall_s (as measured, not scaled)':<44} {statistics.median(run.raw_batch_walls):>14.6g} s")
    lines.append(f"{'raw op_p50_ms (as measured, not scaled)':<44} {statistics.median(run.raw_op_ms):>14.6g} ms")
    lines.append(f"digest sha256:{run.digest.hexdigest()} over {run.attempted} ops")
    for failure in run.failures[:10]:
        lines.append(f"FAILED {failure}")
    return lines


def run_one(workload: str, seed: int, seconds: int, trace: bool) -> int:
    with SpeedProbe() as probe:
        probe.sample()
        try:
            setup_s, program, stream = measure_setup(workload, seed, normalize=probe.normalize)
        except PackageMissing as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        run = run_workload(program, stream, seconds, trace, normalize=probe.normalize)
    if trace:
        metrics = per_layer_metrics(run)
        units = per_layer_units()
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        run.tracer.write_spans(
            out_dir / f"trace-{workload}-seed{seed}.jsonl",
            {"workload": workload, "seed": seed, "clock": "perf_counter seconds"},
        )
        if run.tracer.missing:
            print(f"warning: trace targets not found: {', '.join(run.tracer.missing)}", file=sys.stderr)
    else:
        metrics = end_to_end_metrics(run, setup_s)
        units = END_TO_END
    for line in summary_lines(workload, seed, run, metrics, units):
        print(line)
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not run.failures else 1


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Every workload, each in its own process so peak RSS stays its own."""
    results, status = {}, 0
    for workload in inputs.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode == 2 or not lines:
            return 2
        results[workload] = json.loads(lines[-1])
        status = max(status, proc.returncode)
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
