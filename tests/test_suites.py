import array
import multiprocessing
import os
import re
import subprocess
import sys
import threading
import time
from dataclasses import replace
from itertools import product as iproduct
from pathlib import Path

import pytest

from cuntzsum import SuiteConfig, run_property_suite
from cuntzsum import mutations, suites
from cuntzsum.algebra import AlgebraElement, generator, unit
from cuntzsum.errors import InputError
from cuntzsum.monoids import MAX_BOUND
from cuntzsum.suites import (
    MAX_SUITE_COMPONENT,
    MAX_SUITE_SAMPLES,
    MAX_SUITE_WORD_LEN,
    SUITE_NAMES,
    _suite_complement_duality,
    _suite_rewriting_termination,
    _word_products,
)

SMALL = SuiteConfig(seed=7, bound=120, max_component=8, max_word_len=2, sample_count=12)


@pytest.fixture(autouse=True)
def _clean_mutations():
    mutations.disable_all()
    yield
    mutations.disable_all()


# Golden suite report at SMALL: the check count of every suite, and under
# each mutation switch, the failure count and first witness of each red
# suite plus the check total.  A change that moves any of these changes
# the suite report and has to say why.
SMALL_CHECKS = [
    ("rewriting-termination", 16683),
    ("relation-laws", 186),
    ("star-algebra-laws", 101),
    ("oracle-agreement", 40),
    ("canonical-idempotence", 80),
    ("coassociativity", 48),
    ("counit-laws", 50),
    ("hom-property", 70),
    ("non-cocommutativity", 2),
    ("restricted-vs-full-coproduct", 25),
    ("wcs-axiom", 114),
    ("factorization", 10002),
    ("generated-submonoids-factorial", 60),
    ("prime-set-lattice", 120),
    ("complement-duality", 100),
    ("free-monoid-duality", 15),
    ("order-structure", 34),
    ("classifier-soundness", 50),
    ("decomposition-exactness", 48),
    ("quotient-morphism", 40),
    ("order-anti-isomorphism", 15),
    ("window-counterexample", 3),
    ("parser-roundtrip", 186),
]

SMALL_MUTANT_REPORTS = {
    mutations.DROP_DIVISOR_PAIR: (28072, [
        ("hom-property", 1, "coproduct of the unit wrong in component 4"),
        ("restricted-vs-full-coproduct", 3, "full coproduct of s(4,1) is not the three-term sum"),
        ("window-counterexample", 1, "coproduct of s(4,1) lost its middle component pair"),
    ]),
    mutations.SKIP_DELTA_CHECK: (28072, [
        ("rewriting-termination", 2986, "rewrite and product paths disagree on ((1, True), (2, False))"),
        ("relation-laws", 70, "rewrite of s(2,1)^* s(2,2) wrong"),
    ]),
    mutations.ONE_IS_PRIME: (28075, [
        ("factorization", 1, "the unit 1 is reported prime"),
        ("order-structure", 3, "multiples of 1 do not form a prime ideal (p=1)"),
    ]),
}


def test_all_suites_pass_small_config():
    report = run_property_suite(SMALL)
    assert report.all_passed, [r.name for r in report.results if not r.passed]
    assert [r.name for r in report.results] == list(SUITE_NAMES)
    assert [(r.name, r.checks) for r in report.results] == SMALL_CHECKS
    assert sum(r.checks for r in report.results) == 28072


@pytest.mark.parametrize("mutation", mutations.ALL_MUTATIONS)
def test_mutant_report_is_pinned(mutation):
    with mutations.enabled(mutation):
        report = run_property_suite(SMALL)
    red = [(r.name, len(r.failures), r.failures[0]) for r in report.results if r.failures]
    assert (sum(r.checks for r in report.results), red) == SMALL_MUTANT_REPORTS[mutation]


def test_determinism_same_seed():
    a = run_property_suite(SMALL)
    b = run_property_suite(SMALL)
    assert [(r.name, r.checks, r.failures) for r in a.results] == [
        (r.name, r.checks, r.failures) for r in b.results
    ]


def test_verdicts_stable_across_seeds():
    for seed in range(10):
        cfg = SuiteConfig(seed=seed, bound=100, max_component=6, max_word_len=2, sample_count=6)
        assert run_property_suite(cfg).all_passed


def test_extreme_configs_stay_green():
    # the suites verify theorems, so shrinking the windows or sample
    # counts must never produce a failure
    for cfg in (
        SuiteConfig(seed=3, bound=2, max_component=1, max_word_len=1, sample_count=1),
        SuiteConfig(seed=4, bound=10, max_component=2, max_word_len=1, sample_count=2),
        SuiteConfig(seed=5, bound=30, max_component=30, max_word_len=3, sample_count=3),
    ):
        report = run_property_suite(cfg)
        assert report.all_passed, [
            (r.name, r.failures[:2]) for r in report.results if not r.passed
        ]


def test_mutation_switch_stays_in_its_thread():
    seen = []
    mutations.enable(mutations.ONE_IS_PRIME)
    worker = threading.Thread(target=lambda: seen.append(mutations.is_active(mutations.ONE_IS_PRIME)))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    assert seen == [False]
    assert mutations.is_active(mutations.ONE_IS_PRIME)


def test_enabled_restores_the_prior_switches():
    mutations.enable(mutations.ONE_IS_PRIME)
    with mutations.enabled(mutations.ONE_IS_PRIME):
        with mutations.enabled(mutations.SKIP_DELTA_CHECK):
            assert mutations.is_active(mutations.SKIP_DELTA_CHECK)
        assert not mutations.is_active(mutations.SKIP_DELTA_CHECK)
    assert mutations.is_active(mutations.ONE_IS_PRIME)


@pytest.mark.parametrize("mutation", mutations.ALL_MUTATIONS)
def test_each_mutation_breaks_a_suite(mutation):
    with mutations.enabled(mutation):
        report = run_property_suite(SMALL)
    assert not report.all_passed
    failing = [r for r in report.results if not r.passed]
    assert failing
    assert all(r.failures for r in failing)


def test_report_lines_shape():
    report = run_property_suite(
        SuiteConfig(seed=1, bound=60, max_component=4, max_word_len=2, sample_count=4)
    )
    lines = report.lines()
    assert lines[-1].endswith("all suites passed")
    assert len(lines) == len(SUITE_NAMES) + 1


def test_unknown_mutation_rejected():
    with pytest.raises(ValueError):
        mutations.enable("frobnicate")


_WORD_ALPHABET = [(1, False), (1, True), (2, False), (2, True)]


def letter_by_letter_product(n, pattern):
    """The reference product path: the word folded from unit(n), one fresh letter at a time."""
    folded = unit(n)
    for i, starred in pattern:
        letter = generator(n, i)
        folded = folded * (letter.adjoint() if starred else letter)
    return folded


def test_word_products_match_the_letter_by_letter_fold():
    expected = [pattern for length in range(7) for pattern in iproduct(_WORD_ALPHABET, repeat=length)]
    seen = []
    for pattern, folded in _word_products(2, _WORD_ALPHABET, 6):
        assert dict(folded.items()) == dict(letter_by_letter_product(2, pattern).items()), pattern
        seen.append(pattern)
    assert seen == expected


def test_word_products_of_a_three_letter_alphabet():
    alphabet = [(1, False), (3, True), (2, False)]
    for pattern, folded in _word_products(3, alphabet, 3):
        assert dict(folded.items()) == dict(letter_by_letter_product(3, pattern).items()), pattern


def test_rewriting_termination_makes_one_product_per_word(monkeypatch):
    calls = 0
    product = AlgebraElement._product

    def counting(self, other):
        nonlocal calls
        calls += 1
        return product(self, other)

    monkeypatch.setattr(AlgebraElement, "_product", counting)
    cfg = SuiteConfig()
    failures = []
    checks = _suite_rewriting_termination(cfg, suites._rng(cfg, "rewriting-termination"), failures.append)
    assert (checks, failures) == (16683, [])
    assert calls == sum(4**length for length in range(1, 7)) == 5460


def test_complement_duality_checks_each_window_before_building_the_next(monkeypatch):
    log = []

    def logged(kind, func):
        def call(*args, **kwargs):
            result = func(*args, **kwargs)
            log.append((kind, args[0] if kind == "check" else result))
            return result
        return call

    for name in ("window_of", "subset_window"):
        monkeypatch.setattr(suites, name, logged("build", getattr(suites, name)))
    monkeypatch.setattr(suites, "complement_duality_check", logged("check", suites.complement_duality_check))
    cfg = SuiteConfig(bound=300)
    failures = []
    checks = _suite_complement_duality(cfg, suites._rng(cfg, "complement-duality"), failures.append)
    assert (checks, failures) == (100, [])
    kinds = "".join("B" if kind == "build" else "C" for kind, _ in log)
    # one or two builds (a trace, then its complement) before each check, and none held back
    assert re.fullmatch(r"(BB?C){100}", kinds), kinds
    assert all(log[i][1] is log[i - 1][1] for i, (kind, _) in enumerate(log) if kind == "check")


@pytest.mark.parametrize(
    "knob, limit",
    [("max_component", MAX_SUITE_COMPONENT), ("max_word_len", MAX_SUITE_WORD_LEN),
     ("sample_count", MAX_SUITE_SAMPLES), ("bound", MAX_BOUND)],
)
def test_suite_knob_limits(monkeypatch, knob, limit):
    monkeypatch.setattr(suites, "_SUITES", ())  # check the config only
    assert run_property_suite(SuiteConfig(**{knob: limit})).results == []
    with pytest.raises(InputError, match=f"^suite {knob} must be <= {limit}, got {limit + 1}$"):
        run_property_suite(SuiteConfig(**{knob: limit + 1}))


# ---------------------------------------------------------------------------
# The runner across processes.  `_usable_cpus` is the one seam that sets how
# many processes run the suites; a spawned worker runs the package's own
# `_SUITES`, looked up by the names the caller sends, while a patched
# `_SUITES`, `_HEAVIEST_SUITES` or `_claims` acts in the calling process only.

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _force_processes(monkeypatch, count):
    monkeypatch.setattr(suites, "_usable_cpus", lambda: count)


def _unclaimed(tasks):
    """Suite indexes still waiting in the task pipe."""
    import fcntl
    import termios

    count = array.array("i", [0])
    fcntl.ioctl(tasks.fileno(), termios.FIONREAD, count)
    return count[0]


def _hold_first_claim(monkeypatch):
    """After the caller claims its first suite, it waits until a worker has
    claimed the next one; so the worker surely runs the second suite handed out."""
    claims = suites._claims

    def held(tasks):
        indexes = claims(tasks)
        first = next(indexes, None)
        if first is None:
            return
        left = _unclaimed(tasks)
        deadline = time.monotonic() + 60
        while left and _unclaimed(tasks) == left:
            assert time.monotonic() < deadline, "no worker claimed a suite"
            time.sleep(0.005)
        yield first
        yield from indexes

    monkeypatch.setattr(suites, "_claims", held)


def _outcomes(report):
    return [(r.name, r.checks, r.failures) for r in report.results]


@pytest.mark.parametrize("mutation, worker_first", [
    (None, "rewriting-termination"),
    (mutations.DROP_DIVISOR_PAIR, "hom-property"),
    (mutations.SKIP_DELTA_CHECK, "rewriting-termination"),
    (mutations.ONE_IS_PRIME, "factorization"),
])
@pytest.mark.parametrize("seed", [0, 1])
def test_two_processes_report_what_one_does(monkeypatch, seed, mutation, worker_first):
    # the worker takes a suite that the switch breaks, so the switch must reach it
    cfg = replace(SMALL, seed=seed)
    if mutation:
        mutations.enable(mutation)
    _force_processes(monkeypatch, 1)
    alone = _outcomes(run_property_suite(cfg))
    _force_processes(monkeypatch, 2)
    monkeypatch.setattr(suites, "_HEAVIEST_SUITES", ("parser-roundtrip", worker_first))
    _hold_first_claim(monkeypatch)
    split = _outcomes(run_property_suite(cfg))
    assert split == alone
    assert multiprocessing.active_children() == []
    if mutation:
        assert dict((name, failures) for name, _, failures in split)[worker_first]


def test_more_processes_than_cpus_share_the_task_pipe(monkeypatch):
    # four processes, more than a 2-CPU host has, read one pipe: a suite handed
    # out twice or lost would change the report or raise
    _force_processes(monkeypatch, 1)
    alone = _outcomes(run_property_suite(SMALL))
    monkeypatch.setattr(suites, "MAX_SUITE_PROCESSES", 4)
    _force_processes(monkeypatch, 4)
    start = time.monotonic()
    for _ in range(3):
        assert _outcomes(run_property_suite(SMALL)) == alone
        assert multiprocessing.active_children() == []
    assert time.monotonic() - start < 120


def test_a_worker_exception_comes_back_and_the_earliest_declared_wins(monkeypatch):
    # the worker knows no suite "ghost", so its lookup raises KeyError('ghost');
    # the caller's later-declared suite raises too, and loses
    def caller_suite(cfg, rng, fail):
        raise ValueError("raised in the caller")

    def ghost(cfg, rng, fail):
        raise AssertionError("ghost ran in the caller")

    _force_processes(monkeypatch, 2)
    monkeypatch.setattr(suites, "_SUITES", (("ghost", ghost), ("caller", caller_suite)))
    monkeypatch.setattr(suites, "_HEAVIEST_SUITES", ("caller", "ghost"))
    _hold_first_claim(monkeypatch)
    with pytest.raises(KeyError) as raised:
        run_property_suite(SMALL)
    assert str(raised.value) == "'ghost'"
    assert multiprocessing.active_children() == []


def test_an_interrupt_in_the_callers_share_stops_the_workers(monkeypatch):
    def interrupt(cfg, rng, fail):
        raise KeyboardInterrupt

    _force_processes(monkeypatch, 2)
    monkeypatch.setattr(suites, "_SUITES", (("interrupt", interrupt), ("parser-roundtrip", None)))
    monkeypatch.setattr(suites, "_HEAVIEST_SUITES", ())
    _hold_first_claim(monkeypatch)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_property_suite(SuiteConfig(sample_count=MAX_SUITE_SAMPLES))
    assert multiprocessing.active_children() == []
    assert time.monotonic() - start < 30


def test_a_worker_killed_mid_run_is_reported_and_reaped(monkeypatch):
    def kill_the_worker(cfg, rng, fail):
        for worker in multiprocessing.active_children():
            worker.kill()
            worker.join(timeout=30)
            assert worker.exitcode is not None
        return 0

    _force_processes(monkeypatch, 2)
    monkeypatch.setattr(suites, "_SUITES", (("kill", kill_the_worker), ("parser-roundtrip", None)))
    monkeypatch.setattr(suites, "_HEAVIEST_SUITES", ())
    _hold_first_claim(monkeypatch)
    with pytest.raises(RuntimeError, match="^suite parser-roundtrip was never reported"):
        run_property_suite(SuiteConfig(sample_count=MAX_SUITE_SAMPLES))
    assert multiprocessing.active_children() == []


def test_the_heaviest_suites_are_declared_suites():
    assert set(suites._HEAVIEST_SUITES) <= set(SUITE_NAMES)
    assert len(set(suites._HEAVIEST_SUITES)) == len(suites._HEAVIEST_SUITES)


def test_no_process_starts_without_suites_or_with_a_bad_config(monkeypatch):
    def refuse(cfg, processes):
        raise AssertionError("a process was started")

    _force_processes(monkeypatch, 2)
    monkeypatch.setattr(suites, "_run_split", refuse)
    with pytest.raises(InputError):
        run_property_suite(SuiteConfig(sample_count=MAX_SUITE_SAMPLES + 1))
    monkeypatch.setattr(suites, "_SUITES", ())
    assert run_property_suite(SMALL).results == []


def _python(script, **env):
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": SRC, **env},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_cli_does_not_import_multiprocessing():
    script = "import sys, cuntzsum.cli; print('multiprocessing' in sys.modules)"
    assert _python(script) == "False\n"


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform")
def test_a_process_pinned_to_one_cpu_starts_no_worker():
    script = (
        "import os, sys\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "from cuntzsum.suites import SuiteConfig, run_property_suite\n"
        "report = run_property_suite(SuiteConfig(bound=60, max_component=4, max_word_len=2, sample_count=4))\n"
        "print(len(report.results), report.all_passed, 'multiprocessing' in sys.modules)\n"
    )
    assert _python(script) == f"{len(SUITE_NAMES)} True False\n"
