import threading

import pytest

from cuntzsum import SuiteConfig, run_property_suite
from cuntzsum import mutations
from cuntzsum.suites import SUITE_NAMES

SMALL = SuiteConfig(seed=7, bound=120, max_component=8, max_word_len=2, sample_count=12)


@pytest.fixture(autouse=True)
def _clean_mutations():
    mutations.disable_all()
    yield
    mutations.disable_all()


def test_all_suites_pass_small_config():
    report = run_property_suite(SMALL)
    assert report.all_passed, [r.name for r in report.results if not r.passed]
    assert [r.name for r in report.results] == list(SUITE_NAMES)
    assert all(r.checks > 0 for r in report.results)


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
