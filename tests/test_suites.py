import array
import hashlib
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
import time
import types
from dataclasses import replace
from fractions import Fraction
from itertools import product as iproduct
from pathlib import Path
from random import Random

import pytest

from cuntzsum import SuiteConfig, run_property_suite
from cuntzsum import mutations, suites
from cuntzsum.algebra import AlgebraElement, _accumulate, generator, monomial, unit
from cuntzsum.errors import InputError
from cuntzsum.monoids import MAX_BOUND
from cuntzsum.scalars import ONE, Scalar
from cuntzsum.suites import (
    MAX_SUITE_COMPONENT,
    MAX_SUITE_SAMPLES,
    MAX_SUITE_WORD_LEN,
    SUITE_NAMES,
    _suite_complement_duality,
    _suite_rewriting_termination,
    _word_products,
)
from suite_reports import SWITCHES, golden_path, machine_report

SMALL = SuiteConfig(seed=7, bound=120, max_component=8, max_word_len=2, sample_count=12)


@pytest.fixture(autouse=True)
def _clean_mutations():
    with mutations.only(None):
        yield


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


# md5 prefix of each golden machine report (default config, ``seconds``
# stripped), as CHANGES.md quotes it.
REPORT_MD5 = {
    "default": "783c142d",
    mutations.DROP_DIVISOR_PAIR: "c1ac94d9",
    mutations.SKIP_DELTA_CHECK: "c840d7ac",
    mutations.ONE_IS_PRIME: "691cceb4",
}


@pytest.mark.parametrize("name", list(SWITCHES))
def test_machine_report_is_pinned_verbatim(name):
    """`suite --format machine` at the default config, by default and under each switch."""
    golden = golden_path(name).read_text()
    assert hashlib.md5(golden.encode()).hexdigest()[:8] == REPORT_MD5[name]
    assert machine_report(SWITCHES[name]) == (0 if name == "default" else 1, golden)


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


def reference_random_scalar(rng):
    """`random_scalar` as it was written first: `randint` draws, each value built by `Fraction` and `Scalar`."""
    while True:
        value = Scalar(
            Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
            Fraction(rng.randint(-2, 2), rng.randint(1, 2)) if rng.random() < 0.3 else 0,
        )
        if not value.is_zero():
            return value


def reference_random_monomial(rng, max_n, max_len):
    n = rng.randint(1, max_n)
    total = rng.randint(0, max_len)
    left = rng.randint(0, total)
    mu = tuple(rng.randint(1, n) for _ in range(left))
    nu = tuple(rng.randint(1, n) for _ in range(total - left))
    return monomial(n, mu, nu)


def reference_random_element(rng, max_n, max_len, max_terms=3):
    count = rng.randint(1, max_terms)
    terms = ((reference_random_monomial(rng, max_n, max_len), reference_random_scalar(rng)) for _ in range(count))
    return AlgebraElement._raw(_accumulate({}, terms))


def assert_same_scalar(got, expected):
    assert got == expected and type(got) is Scalar
    assert type(got.re) is Fraction and type(got.im) is Fraction


@pytest.mark.parametrize("draw, reference, args", [
    (suites.random_scalar, reference_random_scalar, ()),
    (suites.random_monomial, reference_random_monomial, (1, 4)),
    (suites.random_monomial, reference_random_monomial, (8, 2)),
    (suites.random_monomial, reference_random_monomial, (12, 6)),
    (suites.random_element, reference_random_element, (8, 2, 3)),
    (suites.random_element, reference_random_element, (12, 2, 4)),
], ids=lambda value: getattr(value, "__name__", None))
def test_draws_match_the_randint_reference(draw, reference, args):
    for seed in range(1000):
        mine, theirs = Random(seed), Random(seed)
        for _ in range(5):
            got, expected = draw(mine, *args), reference(theirs, *args)
            if draw is suites.random_scalar:
                assert_same_scalar(got, expected)
            elif draw is suites.random_monomial:
                assert got == expected and type(got) is suites.CuntzMonomial
            else:
                assert got == expected and list(got._terms) == list(expected._terms)
                for c in got._terms.values():
                    assert_same_scalar(c, c)  # exact Fraction parts
        assert mine.getstate() == theirs.getstate(), seed


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


def test_classifier_soundness_reads_leg_membership_from_its_window(monkeypatch):
    asked = []
    monkeypatch.setattr(suites.SubmonoidView, "contains", lambda view, n: asked.append(n) or True)
    monkeypatch.setattr(suites, "check_biideal_on_generators", lambda prime_set, n: True)
    failures = []
    suites._suite_classifier_soundness(SuiteConfig(), None, failures.append)
    assert failures == [] and asked == []


@pytest.mark.parametrize("legs", [(25, 1), (1, 7)])
def test_classifier_soundness_fails_on_a_leg_outside_its_window(monkeypatch, legs):
    # 25 lies past every window (24 components), 7 outside every window but that of coprimes:2
    leak = ((monomial(legs[0]), monomial(legs[1])), ONE)

    def leaky_delta(x, original=suites.delta):
        return types.SimpleNamespace(items=lambda: [*original(x).items(), leak])

    monkeypatch.setattr(suites, "delta", leaky_delta)
    failures = []
    suites._suite_classifier_soundness(SuiteConfig(), None, failures.append)
    escapes = {f.split(" at ")[0] for f in failures if f.startswith("coproduct leg escapes")}
    if legs == (25, 1):
        assert len(escapes) == 5, failures
    else:
        assert escapes == {f"coproduct leg escapes primes:{p}" for p in ("-", "2", "2,3", "3,5")}, failures


def test_complement_duality_checks_each_window_before_building_the_next(monkeypatch):
    log = []

    def logged(kind, func):
        def call(*args, **kwargs):
            result = func(*args, **kwargs)
            log.append((kind, args[0] if kind == "check" else result))
            return result
        return call

    for name in ("window_of", "_complement_of_trace", "subset_window"):
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


def _former_duality_windows(bound, rng):
    """`suites._duality_windows` as it stood before its complements were read off the trace
    mask: each complement was a universe frozenset minus the trace's members."""
    for _ in range(34):
        yield suites.window_of(suites.SubmonoidView(suites.random_prime_set(rng, cofinite_chance=0.3)), bound)
    universe = frozenset(range(1, bound + 1))
    for _ in range(33):
        view = suites.SubmonoidView(suites.random_prime_set(rng, cofinite_chance=0.3))
        yield suites.subset_window(bound, universe - suites.window_of(view, bound).members)
    yield suites.subset_window(bound, {4**k for k in range(10) if 4**k <= bound})
    for _ in range(32):
        size = rng.randint(0, min(40, bound))
        yield suites.subset_window(bound, rng.sample(range(1, bound + 1), size))


@pytest.mark.parametrize("bound", [1, 2, 97, 1000, 4096])
def test_duality_windows_match_the_former_construction(bound):
    cfg = SuiteConfig(bound=bound)
    windows = list(suites._duality_windows(bound, suites._rng(cfg, "complement-duality")))
    assert windows == list(_former_duality_windows(bound, suites._rng(cfg, "complement-duality")))


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
# The runner.  One claim loop serves every process count: the caller and
# any forked workers claim suites, heaviest first, from one task pipe, and
# with one process the caller claims them all and nothing is forked.
# `_usable_cpus` is the one seam that sets how many processes run the
# suites.  Workers are forked, so whatever the caller patched before the
# run, `_SUITES`, `_HEAVIEST_SUITES`, `_claims`, `_run_suite` or a mutation
# switch, is what its workers run with too.

SRC = str(Path(__file__).resolve().parents[1] / "src")

# Workers are forked on Linux only; elsewhere every suite runs in the caller.
forks = pytest.mark.skipif(sys.platform != "linux", reason="suite workers are forked on Linux only")


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
    """Order the first two claims: the caller takes the first suite handed
    out, and goes on only once a worker has taken the second; so the worker
    surely runs the second.  A forked worker inherits the patch, and waits
    for the caller's first claim before it claims."""
    claims = suites._claims
    caller = os.getpid()

    def wait_below(tasks, count):
        deadline = time.monotonic() + 60
        while _unclaimed(tasks) >= count:
            assert time.monotonic() < deadline, "no other process claimed a suite"
            time.sleep(0.005)

    def held(tasks):
        if os.getpid() != caller:
            wait_below(tasks, len(suites._SUITES))
            yield from claims(tasks)
            return
        indexes = claims(tasks)
        first = next(indexes, None)
        if first is None:
            return
        left = _unclaimed(tasks)
        if left:
            wait_below(tasks, left)
        yield first
        yield from indexes

    monkeypatch.setattr(suites, "_claims", held)


def _log_runs(monkeypatch, path):
    """Log a ``name pid`` line to ``path`` for each suite run, in whichever
    process runs it; return a reader of the suite-to-pid map."""
    run = suites._run_suite

    def logged(cfg, name, func):
        with open(path, "a") as log:
            log.write(f"{name} {os.getpid()}\n")
        return run(cfg, name, func)

    monkeypatch.setattr(suites, "_run_suite", logged)
    return lambda: {name: int(pid) for name, pid in (line.split() for line in path.read_text().splitlines())}


def _outcomes(report):
    return [(r.name, r.checks, r.failures) for r in report.results]


def _hang(cfg, rng, fail):
    time.sleep(120)  # the worker running this is stopped long before it ends
    return 0


@forks
@pytest.mark.parametrize("mutation, worker_first", [
    (None, "rewriting-termination"),
    (mutations.DROP_DIVISOR_PAIR, "hom-property"),
    (mutations.SKIP_DELTA_CHECK, "rewriting-termination"),
    (mutations.ONE_IS_PRIME, "factorization"),
])
@pytest.mark.parametrize("seed", [0, 1])
def test_two_processes_report_what_one_does(monkeypatch, tmp_path, seed, mutation, worker_first):
    # the worker takes a suite that the switch breaks, so the switch must reach it
    cfg = replace(SMALL, seed=seed)
    if mutation:
        mutations.enable(mutation)
    _force_processes(monkeypatch, 1)
    alone = _outcomes(run_property_suite(cfg))
    _force_processes(monkeypatch, 2)
    monkeypatch.setattr(suites, "_HEAVIEST_SUITES", ("parser-roundtrip", worker_first))
    _hold_first_claim(monkeypatch)
    ran_in = _log_runs(monkeypatch, tmp_path / "runs")
    split = _outcomes(run_property_suite(cfg))
    assert split == alone
    assert multiprocessing.active_children() == []
    pids = ran_in()
    assert pids["parser-roundtrip"] == os.getpid() != pids[worker_first]
    assert set(pids) == set(SUITE_NAMES) and len(set(pids.values())) == 2
    if mutation:
        assert dict((name, failures) for name, _, failures in split)[worker_first]


@forks
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


@forks
def test_a_worker_exception_comes_back_and_the_earliest_declared_wins(monkeypatch):
    # the worker's earlier-declared suite raises; the caller's later-declared
    # suite raises too, and loses
    def worker_suite(cfg, rng, fail):
        raise LookupError(os.getpid())

    def caller_suite(cfg, rng, fail):
        raise ValueError("raised in the caller")

    _force_processes(monkeypatch, 2)
    monkeypatch.setattr(suites, "_SUITES", (("worker", worker_suite), ("caller", caller_suite)))
    monkeypatch.setattr(suites, "_HEAVIEST_SUITES", ("caller", "worker"))
    _hold_first_claim(monkeypatch)
    with pytest.raises(LookupError) as raised:
        run_property_suite(SMALL)
    assert raised.value.args[0] != os.getpid()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("processes", [1, pytest.param(2, marks=forks)])
def test_an_interrupt_in_the_callers_share_stops_the_workers(monkeypatch, processes):
    def interrupt(cfg, rng, fail):
        raise KeyboardInterrupt

    _force_processes(monkeypatch, processes)
    monkeypatch.setattr(suites, "_SUITES", (("interrupt", interrupt), ("hang", _hang)))
    monkeypatch.setattr(suites, "_HEAVIEST_SUITES", ())
    if processes > 1:
        _hold_first_claim(monkeypatch)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_property_suite(SMALL)
    assert multiprocessing.active_children() == []
    assert time.monotonic() - start < 30


@forks
def test_a_stopped_worker_ends_at_once_whatever_the_callers_sigterm_handler(monkeypatch):
    # a forked worker would inherit a handler that raises, take the exception
    # as its suite's outcome and go on to claim the next suite
    def interrupt(cfg, rng, fail):
        raise KeyboardInterrupt

    def raise_on_sigterm(signum, frame):
        raise RuntimeError("SIGTERM")

    _force_processes(monkeypatch, 2)
    monkeypatch.setattr(suites, "_SUITES", (("interrupt", interrupt), ("hang", _hang), ("hang again", _hang)))
    monkeypatch.setattr(suites, "_HEAVIEST_SUITES", ())
    monkeypatch.setattr(suites, "_WORKER_STOP_S", 60.0)
    _hold_first_claim(monkeypatch)
    previous = signal.signal(signal.SIGTERM, raise_on_sigterm)
    try:
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_property_suite(SMALL)
        assert time.monotonic() - start < 30
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert multiprocessing.active_children() == []


@forks
def test_a_worker_killed_mid_run_is_reported_and_reaped(monkeypatch):
    def kill_the_worker(cfg, rng, fail):
        for worker in multiprocessing.active_children():
            worker.kill()
            worker.join(timeout=30)
            assert worker.exitcode is not None
        return 0

    _force_processes(monkeypatch, 2)
    monkeypatch.setattr(suites, "_SUITES", (("kill", kill_the_worker), ("hang", _hang)))
    monkeypatch.setattr(suites, "_HEAVIEST_SUITES", ())
    _hold_first_claim(monkeypatch)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="^suite hang was never reported"):
        run_property_suite(SMALL)
    assert multiprocessing.active_children() == []
    assert time.monotonic() - start < 30


def test_one_process_claims_heaviest_first_and_reports_in_declared_order(monkeypatch):
    claimed = []
    run = suites._run_suite

    def logged(cfg, name, func):
        claimed.append(name)
        return run(cfg, name, func)

    _force_processes(monkeypatch, 1)
    monkeypatch.setattr(os, "fork", None)  # a fork would raise TypeError
    monkeypatch.setattr(suites, "_run_suite", logged)
    report = run_property_suite(SMALL)
    heavy = list(suites._HEAVIEST_SUITES)
    assert claimed == heavy + [name for name in SUITE_NAMES if name not in heavy]
    assert [r.name for r in report.results] == list(SUITE_NAMES)


def test_one_process_raises_the_earliest_declared_exception_once_every_suite_has_run(monkeypatch):
    ran = []

    def suite(name, error=None):
        def run(cfg, rng, fail):
            ran.append(name)
            if error:
                raise error(name)
            return 1
        return name, run

    _force_processes(monkeypatch, 1)
    monkeypatch.setattr(suites, "_SUITES", (suite("first", LookupError), suite("second", ValueError), suite("last")))
    monkeypatch.setattr(suites, "_HEAVIEST_SUITES", ("second",))
    with pytest.raises(LookupError, match="^first$"):
        run_property_suite(SMALL)
    assert ran == ["second", "first", "last"]


@forks
@pytest.mark.filterwarnings("error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning")
def test_runs_at_one_two_and_three_processes_leave_no_descriptor_or_child(monkeypatch):
    # a pipe left for the collector to close warns instead of leaking, so the warning fails the test
    opened = sorted(os.listdir("/proc/self/fd"))
    _force_processes(monkeypatch, 1)
    alone = _outcomes(run_property_suite(SMALL))
    for processes in (1, 2, 3):
        _force_processes(monkeypatch, processes)
        assert _outcomes(run_property_suite(SMALL)) == alone
        assert sorted(os.listdir("/proc/self/fd")) == opened
        assert multiprocessing.active_children() == []


def test_with_a_second_thread_alive_no_process_starts(monkeypatch):
    _force_processes(monkeypatch, 1)
    alone = _outcomes(run_property_suite(SMALL))
    _force_processes(monkeypatch, 2)
    assert suites._fork_is_safe() == (sys.platform == "linux")
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert not suites._fork_is_safe()
        monkeypatch.setattr(os, "fork", None)  # a fork would raise TypeError
        assert _outcomes(run_property_suite(SMALL)) == alone
    finally:
        release.set()
        thread.join(timeout=10)
    assert multiprocessing.active_children() == []


def test_off_linux_no_process_starts_and_no_cpu_count_is_asked(monkeypatch):
    _force_processes(monkeypatch, 1)
    alone = _outcomes(run_property_suite(SMALL))
    monkeypatch.undo()
    # as where `/proc/self/task` cannot be listed and there is no CPU affinity
    monkeypatch.setattr(suites, "_fork_is_safe", lambda: False)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "fork", None)  # a fork would raise TypeError
    assert _outcomes(run_property_suite(SMALL)) == alone
    assert multiprocessing.active_children() == []


def test_the_heaviest_suites_are_declared_suites():
    assert set(suites._HEAVIEST_SUITES) <= set(SUITE_NAMES)
    assert len(set(suites._HEAVIEST_SUITES)) == len(suites._HEAVIEST_SUITES)


def test_no_process_starts_without_suites_or_with_a_bad_config(monkeypatch):
    def refuse(cfg, name, func):
        raise AssertionError(f"suite {name} ran")

    _force_processes(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", None)  # a fork would raise TypeError
    monkeypatch.setattr(suites, "_run_suite", refuse)
    with pytest.raises(InputError):
        run_property_suite(SuiteConfig(sample_count=MAX_SUITE_SAMPLES + 1))
    monkeypatch.setattr(suites, "_SUITES", ())
    assert run_property_suite(SMALL).results == []


def _python(*args):
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_cli_does_not_import_multiprocessing():
    script = "import sys, cuntzsum.cli; print('multiprocessing' in sys.modules)"
    assert _python("-c", script) == "False\n"


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform")
def test_a_process_pinned_to_one_cpu_starts_no_worker():
    script = (
        "import os, sys\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "from cuntzsum.suites import SuiteConfig, run_property_suite\n"
        "report = run_property_suite(SuiteConfig(bound=60, max_component=4, max_word_len=2, sample_count=4))\n"
        "print(len(report.results), report.all_passed, 'multiprocessing' in sys.modules)\n"
    )
    assert _python("-c", script) == f"{len(SUITE_NAMES)} True False\n"


def test_a_live_thread_keeps_the_run_in_one_process_when_warnings_are_errors():
    # Python 3.12 and later warn when a process with threads forks; as an
    # error, that warning would fail this run if the runner forked here
    script = (
        "import sys, threading\n"
        "from cuntzsum import suites\n"
        "suites._usable_cpus = lambda: 2\n"
        "release = threading.Event()\n"
        "thread = threading.Thread(target=release.wait)\n"
        "thread.start()\n"
        "report = suites.run_property_suite(suites.SuiteConfig(bound=60, max_component=4, max_word_len=2, sample_count=4))\n"
        "release.set()\n"
        "thread.join()\n"
        "print(len(report.results), report.all_passed, 'multiprocessing' in sys.modules)\n"
    )
    assert _python("-W", "error::DeprecationWarning", "-c", script) == f"{len(SUITE_NAMES)} True False\n"


# A script with no `if __name__ == "__main__":` guard: the workers are
# forked, so none re-runs the script.
_UNGUARDED = """\
import os, sys
from cuntzsum import suites
suites._usable_cpus = lambda: 2
run = suites._run_suite
def logged(cfg, name, func):
    with open(sys.argv[1], "a") as log:
        log.write(f"{os.getpid()}\\n")
    return run(cfg, name, func)
suites._run_suite = logged
report = suites.run_property_suite(suites.SuiteConfig(bound=60, max_component=4, max_word_len=2, sample_count=4))
with open(sys.argv[1]) as log:
    pids = log.read().split()
print(len(report.results), report.all_passed, len(pids), len(set(pids)))
"""


@forks
@pytest.mark.parametrize("form", ["-c", "file"])
def test_a_script_without_a_main_guard_runs_a_two_process_suite(tmp_path, form):
    log = tmp_path / "pids"
    if form == "-c":
        args = ("-c", _UNGUARDED)
    else:
        script = tmp_path / "unguarded.py"
        script.write_text(_UNGUARDED)
        args = (str(script),)
    assert _python(*args, str(log)) == f"{len(SUITE_NAMES)} True {len(SUITE_NAMES)} 2\n"
