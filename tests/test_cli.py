import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from cuntzsum import classify, cli, monoids, mutations
from cuntzsum.algebra import MAX_PUSHED_KEYS
from cuntzsum.classify import classify_component_set
from cuntzsum.cli import build_parser, main
from cuntzsum.exprs import MAX_PARSE_PAIRS, MAX_PRODUCT_TERMS
from cuntzsum.monoids import MAX_BOUND, MAX_DIVISOR_TRIPLES, MAX_FACTOR, PrimeSet, SubmonoidView, window_of
from cli_corpus import ARGVS as CORPUS_ARGVS, golden_records, record

# Python 3.10.7 and later refuse to convert ints of more than 4,300
# digits to or from text unless told otherwise.
_needs_digit_limit = pytest.mark.skipif(
    not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 4900,
    reason="needs the default limit on int/str conversion digits",
)
_LONG_FACTOR = "([" + "7" * 2500 + "] * I(2))"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestQueries:
    def test_norm(self, capsys):
        code, out, _ = run(capsys, "norm", "s(2,1)*s(2,1)^* + s(2,2)*s(2,2)^*")
        assert code == 0 and out == "I(2)\n"

    def test_norm_zero(self, capsys):
        code, out, _ = run(capsys, "norm", "s(2,1)^* * s(2,2)")
        assert code == 0 and out == "0\n"

    def test_delta_golden(self, capsys):
        code, out, _ = run(capsys, "delta", "s(4,1)")
        assert code == 0
        assert out == "(I(1)) ⊗ (s(4,1)) + (s(2,1)) ⊗ (s(2,1)) + (s(4,1)) ⊗ (I(1))\n"

    def test_delta_machine(self, capsys):
        code, out, _ = run(capsys, "delta", "s(4,1)", "--format", "machine")
        assert code == 0
        assert out.splitlines() == [
            "1 | - | - ⊗ 4 | 1 | - | 1/1 | 0/1",
            "2 | 1 | - ⊗ 2 | 1 | - | 1/1 | 0/1",
            "4 | 1 | - ⊗ 1 | - | - | 1/1 | 0/1",
        ]

    def test_deltaH_powers(self, capsys):
        code, out, _ = run(capsys, "deltaH", "--primes-powers", "4", "s(4,1)")
        assert code == 0
        assert out == "(I(1)) ⊗ (s(4,1)) + (s(4,1)) ⊗ (I(1))\n"

    def test_deltaH_primes(self, capsys):
        code, out, _ = run(capsys, "deltaH", "--primes", "2", "s(8,1)")
        assert code == 0
        assert out.count("⊗") == 4

    def test_deltaH_all(self, capsys):
        code_full, out_full, _ = run(capsys, "delta", "s(6,2)")
        code_h, out_h, _ = run(capsys, "deltaH", "--all", "s(6,2)")
        assert code_full == code_h == 0 and out_full == out_h

    def test_eps(self, capsys):
        code, out, _ = run(capsys, "eps", "[3/2] * I(1) + s(2,1)")
        assert code == 0 and out == "3/2\n"

    def test_phi(self, capsys):
        code, out, _ = run(capsys, "phi", "2", "2", "s(4,3)")
        assert code == 0 and out == "(s(2,2)) ⊗ (s(2,1))\n"

    def test_member(self, capsys):
        code, out, _ = run(capsys, "member", "--primes", "2,3", "--n", "10")
        assert code == 0 and out == "false\n"
        code, out, _ = run(capsys, "member", "--primes", "2,3", "--n", "12")
        assert code == 0 and out == "true\n"
        code, out, _ = run(capsys, "member", "--coprimes", "2", "--n", "15")
        assert code == 0 and out == "true\n"
        # the largest prime below monoids.MAX_FACTOR
        code, out, _ = run(capsys, "member", "--primes", "2", "--n", "999999999989")
        assert code == 0 and out == "false\n"

    def test_classify_counterexample(self, capsys):
        code, out, _ = run(capsys, "classify", "--set", "list:1,4,16,64", "--bound", "100")
        assert code == 0
        assert out == "none\nwitness: (4,2,2)\nscope: window\n"

    def test_classify_global_scope(self, capsys):
        code, out, _ = run(capsys, "classify", "--set", "primes:2", "--bound", "60")
        assert code == 0
        assert out == "subbialgebra\nscope: global\n"

    def test_prime_set_classify_runs_no_window_search(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("a window search ran")

        monkeypatch.setattr(cli, "classify_component_set", refuse)
        # the (N, *) searches read a window through its byte mask, built by one function, and a
        # trace is sieved by another
        for module in (monoids, classify):
            monkeypatch.setattr(module, "_window_mask", refuse)
            monkeypatch.setattr(module, "_trace_mask", refuse)
        argv = ("classify", "--set", "coprimes:2", "--bound", str(MAX_BOUND))
        assert run(capsys, *argv) == (0, "subbialgebra\nscope: global\n", "")
        assert run(capsys, *argv, "--format", "machine") == (0, "subbialgebra - global\n", "")

    def test_large_components_build_no_number_table(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("a window mask was built")

        for module in (monoids, classify):
            monkeypatch.setattr(module, "_window_mask", refuse)
            monkeypatch.setattr(module, "_trace_mask", refuse)
        code, out, err = run(capsys, "delta", "I(99991)")
        assert (code, out, err) == (0, "(I(1)) ⊗ (I(99991)) + (I(99991)) ⊗ (I(1))\n", "")
        assert run(capsys, "coassoc", "I(99991)") == (0, "true\n", "")
        assert run(capsys, "coassoc", "I(999999999989)") == (0, "true\n", "")
        # membership, restriction and prime-set questions factor each n by trial division
        assert run(capsys, "member", "--primes", "2,99991", "--n", "99991") == (0, "true\n", "")
        assert run(capsys, "decompose", "--primes", "2", "I(99991)") == (
            0, "subbialgebra part: 0\nbiideal part: I(99991)\n", "")
        halves = " + ".join(f"(I({2**k})) ⊗ (I({2**(16 - k)}))" for k in range(17))
        assert run(capsys, "deltaH", "--primes", "2", "I(65536)") == (0, halves + "\n", "")
        assert run(capsys, "classify", "--set", "primes:99991") == (0, "subbialgebra\nscope: global\n", "")

    def test_decompose(self, capsys):
        code, out, _ = run(capsys, "decompose", "--primes", "2", "s(2,1) + s(3,1)")
        assert code == 0
        assert out == "subbialgebra part: s(2,1)\nbiideal part: s(3,1)\n"

    def test_decompose_machine(self, capsys):
        code, out, _ = run(
            capsys, "decompose", "--primes", "2", "s(2,1) + s(3,1)", "--format", "machine"
        )
        assert code == 0
        assert out.splitlines() == [
            "part subbialgebra",
            "2 | 1 | - | 1/1 | 0/1",
            "part biideal",
            "3 | 1 | - | 1/1 | 0/1",
        ]

    def test_classify_machine(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--set", "list:1,4,16,64", "--bound", "100",
            "--format", "machine",
        )
        assert code == 0 and out == "none 4,2,2 window\n"


def _classify_lines(result, scope, fmt):
    """What ``classify`` prints for ``result`` in format ``fmt``."""
    witness = ",".join(map(str, result.witness)) if result.witness else None
    if fmt == "machine":
        return f"{result.verdict} {witness or '-'} {scope}\n"
    return result.verdict + "\n" + (f"witness: ({witness})\n" if witness else "") + f"scope: {scope}\n"


@given(
    st.sets(st.sampled_from([2, 3, 5, 7, 11, 13]), max_size=4),
    st.booleans(),
    st.integers(1, 2000),
    st.sampled_from(["text", "machine"]),
)
@settings(max_examples=40, deadline=None)
def test_prime_set_classify_matches_the_window_oracle(primes, cofinite, bound, fmt):
    # the theorem's verdict against the window search over the generated submonoid
    spec = ("coprimes:" if cofinite else "primes:") + ",".join(map(str, sorted(primes)))
    oracle = classify_component_set(window_of(SubmonoidView(PrimeSet(primes, cofinite)), bound))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["classify", "--set", spec, "--bound", str(bound), "--format", fmt])
    assert (code, out.getvalue(), err.getvalue()) == (0, _classify_lines(oracle, "global", fmt), "")


class TestChecks:
    def test_eq_true_false(self, capsys):
        code, out, _ = run(capsys, "eq", "I(2)", "s(2,1)*s(2,1)^* + s(2,2)*s(2,2)^*")
        assert code == 0 and out == "true\n"
        code, out, _ = run(capsys, "eq", "I(2)", "s(2,1)*s(2,1)^*")
        assert code == 1 and out == "false\n"

    def test_coassoc_and_counitlaws(self, capsys):
        assert run(capsys, "coassoc", "s(4,1)")[0] == 0
        assert run(capsys, "counitlaws", "s(4,1)")[0] == 0
        # 7,290 ordered divisor triples: below the coassoc cap
        assert run(capsys, "coassoc", "I(720720)")[:2] == (0, "true\n")

    def test_wcs(self, capsys):
        code, out, _ = run(capsys, "wcs", "2", "2", "2", "s(8,5)")
        assert code == 0 and out == "true\n"

    def test_quotient(self, capsys):
        code, out, _ = run(capsys, "quotient", "--primes", "2", "s(4,1)", "I(2)")
        assert code == 0 and out == "true\n"

    def test_lattice(self, capsys):
        code, out, _ = run(capsys, "lattice", "--f", "primes:2", "--g", "primes:3", "--bound", "100")
        assert code == 0
        assert "lattice checks consistent: yes" in out

    def test_lattice_of_every_prime_up_to_the_limit_is_fast(self, capsys):
        # a finite spec of all 9,592 primes up to MAX_BOUND, whose trace is the whole window
        primes = monoids.primes_up_to(MAX_BOUND)
        start = time.perf_counter()
        code, out, _ = run(
            capsys, "lattice", "--f", "primes:" + ",".join(map(str, primes)), "--g", "primes:2", "--bound", str(MAX_BOUND)
        )
        assert time.perf_counter() - start < 3.0
        assert code == 0
        assert "lattice checks consistent: yes" in out
        assert len(window_of(SubmonoidView(PrimeSet.finite(primes)), MAX_BOUND).members) == MAX_BOUND


class TestErrors:
    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "norm", "s(2,1) +")
        assert code == 2 and "error:" in err
        # a domain error met before a later syntax error is the one reported
        code, _, err = run(capsys, "norm", "s(2,5) +")
        assert code == 2 and "s(2,5)" in err
        # lexical errors come first
        code, _, err = run(capsys, "norm", "s(2,5) + @")
        assert code == 2 and "'@'" in err

    def test_index_error_exit_2(self, capsys):
        code, _, err = run(capsys, "norm", "s(1,2)")
        assert code == 2 and "s(1,2)" in err

    def test_domain_error_exit_2(self, capsys):
        code, _, err = run(capsys, "phi", "2", "2", "s(6,1)")
        assert code == 2
        code, _, err = run(capsys, "deltaH", "--primes-powers", "4", "s(2,1)")
        assert code == 2
        code, _, err = run(capsys, "deltaH", "--primes-powers", "0", "I(1)")
        assert code == 2 and err == "error: power submonoid needs base >= 2, got 0\n"
        code, out, err = run(capsys, "deltaH", "--primes-powers", "4", "I(4) + I(2) + I(8)")
        assert (code, out, err) == (2, "", "error: component 2 lies outside the submonoid\n")
        # the spec, then its primes, then the bound
        code, out, err = run(capsys, "classify", "--set", "primes:2,4", "--bound", "0")
        assert (code, out, err) == (2, "", "error: 4 is not prime\n")

    @pytest.mark.parametrize("a", ["0", "-1"])
    def test_wcs_index_checked_before_support(self, capsys, a):
        # a non-positive index is named before any talk of a target component
        for x in ("s(6,1)", "0"):
            code, out, err = run(capsys, "wcs", a, "2", "3", x)
            assert (code, out, err) == (2, "", "error: phi requires positive component indices\n")

    def test_unknown_command_exit_2(self, capsys):
        # argparse raises SystemExit on unknown subcommands; main converts
        # that into exit code 2 and argparse prints the usage text
        assert main(["frobnicate"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_usage_exit_2(self, capsys):
        assert main([]) == 2

    @pytest.mark.parametrize(
        "flag", [("--max-component", "0"), ("--max-component", "-3"),
                 ("--max-word-len", "-1"), ("--bound", "0"), ("--samples", "-1"),
                 ("--bound", "100001"), ("--bound", "1000000000")],
    )
    def test_bad_suite_config_exit_2_before_any_suite(self, capsys, flag):
        code, out, err = run(capsys, "suite", *flag)
        assert code == 2 and out == ""
        assert err.startswith("error: suite ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "flag, message",
        [(("--max-component", "1001"), "max_component must be <= 1000, got 1001"),
         (("--max-component", "1000000"), "max_component must be <= 1000, got 1000000"),
         (("--samples", "1001"), "sample_count must be <= 1000, got 1001"),
         (("--samples", "100000000"), "sample_count must be <= 1000, got 100000000"),
         (("--max-word-len", "11"), "max_word_len must be <= 10, got 11"),
         (("--max-word-len", "1000"), "max_word_len must be <= 10, got 1000")],
    )
    def test_suite_knob_above_its_limit_exits_2_fast(self, capsys, flag, message):
        start = time.perf_counter()
        assert run(capsys, "suite", *flag) == (2, "", f"error: suite {message}\n")
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("bound", [MAX_BOUND + 1, 10**6, 10**9])
    @pytest.mark.parametrize(
        "argv",
        [("classify", "--set", "primes:2"), ("classify", "--set", "list:1,4"),
         ("lattice", "--f", "primes:2", "--g", "primes:3")],
    )
    def test_window_bound_above_max_exits_2_fast(self, capsys, argv, bound):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, "--bound", str(bound))
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err == f"error: window bound must be in 1..{MAX_BOUND}, got {bound}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("member", "--primes", "2", "--n", "1000000000000000003"),
            ("delta", "I(1000000000000000003)"),
            ("deltaH", "--primes", "1000000000000000003", "I(1)"),
            # a digit int() refuses, a literal too long to convert, and a
            # product whose coefficient is too long to print
            ("norm", "s(2,²)"),
            pytest.param(("norm", "I(" + "1" * 5000 + ")"), marks=_needs_digit_limit),
            pytest.param(("norm", f"{_LONG_FACTOR} * {_LONG_FACTOR}"), marks=_needs_digit_limit),
            # a target component a*b*c too long to name in the support error
            pytest.param(("wcs", *["3" * 2200] * 3, "I(2)"), marks=_needs_digit_limit),
        ],
    )
    def test_factorization_beyond_limit_exit_2(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "expr, total",
        [
            ("I(963761198400)", 1837080),
            # three terms of one component, 7,290 triples each
            ("I(720720) + s(720720,1) + [2] s(720720,2)^*", 21870),
            # 10,206 + 12,150 triples in two components
            ("I(1441440) + I(2162160)", 22356),
            # 17,010 + 7,290, and a small term
            ("s(4324320,3) + I(720720) + s(2,1)", 24303),
        ],
    )
    def test_coassoc_beyond_triple_cap_exit_2(self, capsys, expr, total):
        start = time.perf_counter()
        code, out, err = run(capsys, "coassoc", expr)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err == (
            f"error: the terms have {total} ordered divisor triples in all; "
            f"coassoc accepts at most {MAX_DIVISOR_TRIPLES}\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ("eq", "I(1000000)", "s(1000000,1)*s(1000000,1)^*"),
            # one group per divisor pair, each pushed down to about n keys
            ("delta", "I(100000) + [-1] * s(100000,1)*s(100000,1)^*"),
            ("norm", "I(1000000) + [-1] * s(1000000,1)*s(1000000,1)^*"),
            # the first part renders, the second is past the cap
            ("decompose", "--primes", "2", "I(1000000) + [-1] * s(1000000,1)*s(1000000,1)^*"),
        ],
    )
    def test_push_down_beyond_key_cap_exit_2(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == f"error: pushing terms down would make more than {MAX_PUSHED_KEYS} keys\n"

    @pytest.mark.parametrize("command", [("norm",), ("delta",), ("phi", "2", "1")])
    def test_product_beyond_term_cap_exit_2(self, capsys, command):
        # 20 two-term factors would pair 2^20 terms; the 14th is past the cap
        start = time.perf_counter()
        code, out, err = run(capsys, *command, "*".join(["(s(2,1)+s(2,2))"] * 20))
        assert time.perf_counter() - start < 5.0
        assert (code, out) == (2, "")
        assert err == f"error: product of 8192 by 2 terms would pair more than {MAX_PRODUCT_TERMS}\n"

    def test_input_past_its_pair_budget_exit_2_in_a_fresh_process(self):
        # 13 two-term factors, then 100 single generators (907 characters)
        expr = "*".join(["(s(2,1)+s(2,2))"] * 13) + "*s(2,1)" * 100
        src = str(Path(__file__).resolve().parents[1] / "src")
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "cuntzsum", "eq", expr, "0"],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
        )
        assert time.perf_counter() - start < 5.0
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: the products of this input would pair more than {MAX_PARSE_PAIRS} terms in all\n"

    def test_deep_nesting_exit_2(self, capsys):
        code, out, err = run(capsys, "norm", "(" * 5000 + "s(2,1)" + ")" * 5000)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("member", "--primes", "x", "--n", "3"),
        ("member", "--coprimes", "2,,3", "--n", "3"),
        ("classify", "--set", "list:1,a"),
        ("classify", "--set", "primes:2;3"),
        ("lattice", "--f", "primes:2,,", "--g", "primes:3"),
        ("decompose", "--primes", "two", "s(2,1)"),
        ("deltaH", "--coprimes", "1.5", "s(2,1)"),
    ],
)
def test_bad_integer_lists_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: bad integer list") and "Traceback" not in err


class TestDeterminism:
    def test_byte_identical_outputs(self, capsys):
        first = run(capsys, "delta", "(s(4,1) + [1/2] * I(4))")
        second = run(capsys, "delta", "(s(4,1) + [1/2] * I(4))")
        assert first == second

    def test_suite_determinism_small(self, capsys):
        args = (
            "suite", "--samples", "5", "--max-component", "6", "--bound", "60",
            "--format", "machine",
        )
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        strip = lambda text: [
            line.split('"seconds"')[0] for line in text.splitlines()
        ]
        assert strip(out1) == strip(out2)

    @pytest.mark.parametrize("switch", [None, *mutations.ALL_MUTATIONS])
    def test_suite_runs_under_its_own_switch_and_restores_the_callers(self, capsys, switch):
        # the caller holds another switch: the run neither sees it nor turns it off
        held = mutations.DROP_DIVISOR_PAIR if switch == mutations.ONE_IS_PRIME else mutations.ONE_IS_PRIME
        argv = ["suite", "--seed", "7", "--bound", "120", "--max-component", "8", "--max-word-len", "2",
                "--samples", "12", "--format", "machine"]
        if switch:
            argv += ["--mutate", switch]
        with mutations.enabled(held):
            code, out, _ = run(capsys, *argv)
            assert [name for name in mutations.ALL_MUTATIONS if mutations.is_active(name)] == [held]
        assert not mutations.is_active(held)
        reports = [json.loads(line) for line in out.splitlines()[:-1]]
        failing = [r["suite"] for r in reports if r["failures"]]
        assert (code, bool(failing)) == ((1, True) if switch else (0, False)), failing

    def test_shared_parser_matches_fresh_parsers(self, capsys):
        # main() reuses one parser; good and bad argv in turn must give
        # exactly what a parser built afresh for each call gives.
        sequence = [
            ("classify", "--set", "list:1,4,16,64", "--bound", "100"),
            ("member", "--primes"),
            ("member", "--primes", "2,3", "--n", "12"),
            ("frobnicate",),
            ("deltaH", "--primes-powers", "4", "s(4,1)"),
            ("eq", "s(2,1)"),
            ("lattice", "--f", "primes:2", "--g", "coprimes:3", "--bound", "40", "--format", "machine"),
            ("classify", "--set", "bogus:1"),
            ("norm", "s(2,1)*s(2,1)^* + s(2,2)*s(2,2)^*"),
        ]
        shared = [run(capsys, *argv) for argv in sequence]
        fresh = []
        for argv in sequence:
            build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        assert shared == fresh
        assert [code for code, _, _ in shared] == [0, 2, 0, 2, 0, 2, 0, 2, 0]


# ---------------------------------------------------------------------------
# Fuzzing: every subcommand but ``suite`` exits 0, 1 or 2, without a
# traceback and within a bounded time, on short inputs.

_GRAMMAR_ALPHABET = "sIi0123456789()[],+-*/^ ²①"
_ints = st.integers(-2, 12).map(str)
_atoms = st.one_of(
    st.integers(1, 6).flatmap(
        lambda n: st.builds(
            lambda i, star: f"s({n},{i})" + ("^*" if star else ""),
            st.integers(1, n), st.booleans(),
        )
    ),
    st.integers(1, 6).map("I({})".format),
)
_terms = st.builds(
    lambda coeff, factors: coeff + "*".join(factors),
    st.sampled_from(["", "[2] * ", "[-1/2+1i] ", "[0] * "]),
    st.lists(_atoms, min_size=1, max_size=3),
)
_sums = st.lists(_terms, min_size=1, max_size=3).map(" + ".join)


def _components_over_triple_cap():
    """Components n <= MAX_FACTOR with more ordered divisor triples than coassoc accepts.

    Each is a product of the first primes with nonincreasing exponents; its
    triple count is the product of C(e+2, 2) over the exponents e.
    """
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    found = []

    def extend(i, n, triples, max_exp):
        if triples > MAX_DIVISOR_TRIPLES:
            found.append(n)
        for e in range(1, max_exp + 1) if i < len(primes) else ():
            n *= primes[i]
            if n > MAX_FACTOR:
                break
            extend(i + 1, n, triples * (e + 2) * (e + 1) // 2, e)

    extend(0, 1, 1, 40)
    return frozenset(found)


_OVER_TRIPLE_CAP = _components_over_triple_cap()
_large_expressions = st.builds(
    lambda n, form: form.format(n=n),
    st.sampled_from(sorted(_OVER_TRIPLE_CAP)),
    st.sampled_from(["I({n})", "s({n},2)*s({n},1)^*", "s(2,1) + [3] s({n},5)"]),
)
# A unit less one projection in a component past the push-down key cap.
_over_key_cap = st.integers(MAX_PUSHED_KEYS + 1, 10**9).map(
    "I({0}) + [-1] * s({0},1)*s({0},1)^*".format
)
# Literals too long for int(), and products of two coefficients whose
# product is too long for str().
_long_literals = st.builds(
    lambda digits, form: form.format("1" * digits),
    st.integers(4301, 5000),
    st.sampled_from(["I({})", "s(2,{})", "[{}] * I(1)", "[1/{}] * s(2,1)"]),
)
_long_products = st.builds(
    lambda digits, n: "([{0}] * I({1})) * ([{0}] * I({1}))".format("7" * digits, n),
    st.integers(2200, 2500),
    st.sampled_from([1, 2, 6]),
)
_expressions = st.one_of(
    st.text(_GRAMMAR_ALPHABET, max_size=40),
    _long_literals,
    _long_products,
    _large_expressions,
    _over_key_cap,
    st.just("0"),
    _sums,
    _sums.map("({})^*".format),
    st.builds("{} + {}".format, _sums, st.sampled_from(["s(0,1)", "s(2,3)", "I(0)", "s(2,1) +"])),
)
_int_lists = st.one_of(
    st.lists(st.sampled_from([2, 3, 5, 7, 11]), max_size=3).map(lambda xs: ",".join(map(str, xs))),
    st.lists(st.integers(-2, 12), max_size=3).map(lambda xs: ",".join(map(str, xs))),
    st.text(_GRAMMAR_ALPHABET, max_size=12),
)
_set_specs = st.one_of(
    st.builds("{}:{}".format, st.sampled_from(["primes", "coprimes", "list", "bogus"]), _int_lists),
    st.text(_GRAMMAR_ALPHABET + ":", max_size=12),
)
_bounds = st.one_of(st.integers(-2, 200), st.integers(MAX_BOUND + 1, 10**9)).map(str)
_prime_choice = st.one_of(
    st.tuples(st.sampled_from(["--primes", "--coprimes"]), _int_lists),
    st.just(()),
)


def _flat(*parts):
    out = []
    for part in parts:
        out.extend((part,) if isinstance(part, str) else part)
    return out


_COMMANDS = {
    "norm": st.tuples(_expressions),
    "eq": st.tuples(_expressions, _expressions),
    "delta": st.tuples(_expressions),
    "deltaH": st.tuples(
        st.one_of(_prime_choice, st.tuples(st.just("--primes-powers"), _ints), st.just(("--all",))),
        _expressions,
    ),
    "eps": st.tuples(_expressions),
    "coassoc": st.tuples(_expressions),
    "counitlaws": st.tuples(_expressions),
    "wcs": st.tuples(_ints, _ints, _ints, _expressions),
    "phi": st.tuples(_ints, _ints, _expressions),
    "classify": st.tuples(st.just("--set"), _set_specs, st.just("--bound"), _bounds),
    "member": st.tuples(_prime_choice, st.just("--n"), _ints),
    "decompose": st.tuples(_prime_choice, _expressions),
    "quotient": st.tuples(_prime_choice, _expressions, _expressions),
    "lattice": st.tuples(st.just("--f"), _set_specs, st.just("--g"), _set_specs, st.just("--bound"), _bounds),
}
_argvs = st.one_of(
    [
        st.builds(
            lambda name, args, fmt: [name, *_flat(*args), *fmt],
            st.just(name), args, st.sampled_from([(), ("--format", "machine")]),
        )
        for name, args in _COMMANDS.items()
    ]
)


def _named_components(expr):
    """Components that ``s(n,...)`` / ``I(n)`` in ``expr`` name, among those up to MAX_FACTOR.

    A digit run longer than MAX_FACTOR's, leading zeros aside, names no
    component the program factors, and int() may refuse to convert it.
    """
    width = len(str(MAX_FACTOR))
    runs = (run.lstrip("0") or "0" for run in re.findall(r"[sI]\((\d+)", expr))
    return {int(run) for run in runs if len(run) <= width}


@given(_argvs)
@example(["coassoc", "I(" + "1" * 4301 + ")"])
@settings(max_examples=150, deadline=None)
def test_fuzzed_commands_exit_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, argv
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if code == 2:
        assert out.getvalue() == "", argv
    if "--bound" in argv and int(argv[argv.index("--bound") + 1]) > MAX_BOUND:
        assert code == 2 and elapsed < 1.0, argv
    projection_split = re.fullmatch(r"I\((\d+)\) \+ \[-1\] \* s\(\1,1\)\*s\(\1,1\)\^\*", argv[1])
    if argv[0] in ("norm", "delta") and projection_split and int(projection_split[1]) > MAX_PUSHED_KEYS:
        assert code == 2 and elapsed < 1.0, argv
    if argv[0] == "coassoc" and not _OVER_TRIPLE_CAP.isdisjoint(_named_components(argv[1])):
        assert code == 2 and elapsed < 1.0, argv


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "cuntzsum", "norm", "I(2)"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "I(2)\n"


def test_suite_report_does_not_depend_on_the_hash_seed():
    # the interpreter draws a fresh hash seed for each run unless one is set
    src = str(Path(__file__).resolve().parents[1] / "src")
    reports = []
    for hash_seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-m", "cuntzsum", "suite", "--samples", "30", "--format", "machine"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed},
        )
        assert proc.returncode == 0, proc.stderr
        lines = [json.loads(line) for line in proc.stdout.splitlines()]
        for line in lines:
            line.pop("seconds", None)
        reports.append(lines)
    assert reports[0] == reports[1]
    assert len(reports[0]) == 24


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv", [("norm", "I(2)"), ("suite", "--samples", "20")])
def test_closed_stdout_exits_2_without_traceback(argv, unbuffered):
    # stdout is a pipe whose read end is closed before the process starts,
    # so the first write (unbuffered) or the flush (buffered) always fails
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cuntzsum", *argv],
            stdout=write_end, stderr=subprocess.PIPE, timeout=60, env=env,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (2, b"")


CORPUS = golden_records()


@pytest.mark.parametrize("expected", CORPUS, ids=[f"{i}-{r['argv'][0]}" for i, r in enumerate(CORPUS)])
def test_cli_corpus_is_pinned_verbatim(expected):
    assert record(expected["argv"]) == expected


def test_cli_corpus_golden_file_holds_every_argv():
    assert [r["argv"] for r in CORPUS] == CORPUS_ARGVS
