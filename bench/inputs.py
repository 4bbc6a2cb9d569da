"""Seeded inputs and independent oracles for the cuntzsum benchmark.

Nothing here imports ``cuntzsum``.  Every expected output follows from how
the input was built, so a defect in the package cannot hide in its own
oracle.  The same (workload, seed) always gives the same ops, and no argv
repeats within one run, so a result cache inside the program cannot show
a gain that a fresh CLI process would not get.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from fractions import Fraction
from typing import Iterator, NamedTuple

WORKLOADS = ("suite-default", "deep-algebra", "coproduct")

# Total checks of one default-config suite run; the same at every seed.
SUITE_CHECKS = 33717

# (component n, path depth k) for `deep-algebra`.  (24, 4) and (100, 3)
# are left out: `eq` alone takes 5.8 s and 17 s there on the dense engine.
DEEP_LADDER = ((2, 10), (2, 14), (4, 6), (4, 8), (8, 4), (8, 5), (24, 3), (100, 2))
# The one rung without a `norm` op, so a batch has 15 ops.  With an odd
# count the median op falls inside one cost class, (100, 2) `eq`, instead of
# between two classes 40 % apart, where it would jump from run to run.
DEEP_NORM_SKIPPED = (2, 10)

COPRODUCT_COMPONENTS = (12, 60, 120, 360, 720, 2520)
SUM_COMMANDS = ("delta", "phi", "coassoc", "counitlaws", "wcs")
MAX_WORD = 3
# A rendered delta expands each term of a sum with a nu-length gap g to
# n^g leaves per divisor pair; above this the op leaves the 3-150 ms band
# (gap 2 at n = 60 takes about 0.35 s, gap 1 at n = 2520 about 0.7 s).
MAX_RENDER_EXPANSION = 720


class Op(NamedTuple):
    """One call into the program and the oracle its output must satisfy.

    ``kind`` is ``"suite"`` (``args`` holds the suite seed) or a CLI
    command name (``args`` is the argv).  ``expect`` is a tuple whose first
    entry names the oracle; see :func:`check`.
    """

    kind: str
    args: tuple
    expect: tuple


# ---------------------------------------------------------------------------
# Gaussian-rational literals, written the way the package prints them


def frac_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def literal(c: tuple[Fraction, Fraction]) -> str:
    re_, im = c
    if im == 0:
        return frac_text(re_)
    return f"{frac_text(re_)}{'+' if im >= 0 else '-'}{frac_text(abs(im))}i"


def text_prefix(c) -> str:
    return "" if c == (1, 0) else f"[{literal(c)}] * "


def machine_coeff(c) -> str:
    re_, im = c
    return f"{re_.numerator}/{re_.denominator} | {im.numerator}/{im.denominator}"


def random_scalar(rng: random.Random) -> tuple[Fraction, Fraction]:
    """A nonzero Gaussian rational with small parts; one in eight is 1."""
    if rng.random() < 0.125:
        return (Fraction(1), Fraction(0))
    re_ = Fraction(rng.choice((-5, -3, -2, -1, 1, 2, 3, 4)), rng.randint(1, 4))
    im = Fraction(0) if rng.random() < 0.5 else Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))
    return (re_, im)


# ---------------------------------------------------------------------------
# Number theory the oracles need, kept apart from the package's own


def divisor_pairs(n: int) -> list[tuple[int, int]]:
    return [(m, n // m) for m in range(1, n + 1) if n % m == 0]


def divisor_triples(n: int) -> list[tuple[int, int, int]]:
    return [(a, b, bc // b) for a, bc in divisor_pairs(n) for b, _ in divisor_pairs(bc)]


def prime_divisors(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]


_PAIRS = {n: divisor_pairs(n) for n in COPRODUCT_COMPONENTS}
_TRIPLES = {n: divisor_triples(n) for n in COPRODUCT_COMPONENTS}
_PRIMES = {n: prime_divisors(n) for n in COPRODUCT_COMPONENTS}


# ---------------------------------------------------------------------------
# Expression text


def monomial_text(n: int, mu, nu) -> str:
    factors = [f"s({n},{a})" for a in mu] + [f"s({n},{a})^*" for a in reversed(nu)]
    return "*".join(factors) if factors else f"I({n})"


def term_text(n: int, mu, nu, c) -> str:
    return f"[{literal(c)}] * {monomial_text(n, mu, nu)}"


def decomposition_terms(n: int, k: int, rng: random.Random) -> list[tuple[int, ...]]:
    """Words w with sum_w s_w s_w^* = I(n), refined along a random path of depth k.

    Level 1 is the full family s_i s_i^*; at each further level the path's
    projection is replaced by its n children.  That gives (n - 1) k + 1 words.
    """
    path: tuple[int, ...] = ()
    words = []
    for depth in range(k):
        step = rng.randint(1, n)
        for i in range(1, n + 1):
            if i != step or depth == k - 1:
                words.append(path + (i,))
        path += (step,)
    rng.shuffle(words)
    return words


# ---------------------------------------------------------------------------
# Workload generators


def _batch_rng(workload: str, seed: int, batch: int) -> random.Random:
    return random.Random(f"cuntzsum-bench:{workload}:{seed}:{batch}")


def suite_batch(seed: int, batch: int) -> list[Op]:
    # One op is one full default-config suite run.  Each batch gets its own
    # suite seed; distinct workload seeds share none below a million batches.
    return [Op("suite", (seed * 1_000_000 + batch,), ("suite", SUITE_CHECKS))]


def deep_batch(seed: int, batch: int, seen: set) -> list[Op]:
    """One `eq` per ladder rung, half of them false, and one `norm` per rung but one."""
    rng = _batch_rng("deep-algebra", seed, batch)
    false_rungs = set(rng.sample(range(len(DEEP_LADDER)), len(DEEP_LADDER) // 2))
    ops = []
    for rung, (n, k) in enumerate(DEEP_LADDER):
        while True:
            c = random_scalar(rng)
            words = decomposition_terms(n, k, rng)
            coeffs = [c] * len(words)
            truth = rung not in false_rungs
            if not truth:
                bump = rng.choice(((Fraction(1), Fraction(0)), (Fraction(-1, 2), Fraction(0)), (Fraction(0), Fraction(1))))
                pos = rng.randrange(len(words))
                coeffs[pos] = (c[0] + bump[0], c[1] + bump[1])
            decomposition = " + ".join(term_text(n, w, w, cw) for w, cw in zip(words, coeffs))
            whole = f"[{literal(c)}] * I({n})"
            eq_args = ("eq", whole, decomposition) if rng.random() < 0.5 else ("eq", decomposition, whole)
            norm_decomposition = " + ".join(term_text(n, w, w, c) for w in words)
            norm_args = ("norm", norm_decomposition)
            if eq_args not in seen and norm_args not in seen:
                break
        seen.update((eq_args, norm_args))
        eq_out = "true\n" if truth else "false\n"
        ops.append(Op("eq", eq_args, ("stdout", 0 if truth else 1, eq_out)))
        if (n, k) != DEEP_NORM_SKIPPED:
            ops.append(Op("norm", norm_args, ("stdout", 0, f"{text_prefix(c)}I({n})\n")))
    return ops


def _random_sum(rng: random.Random, n: int, terms: int, gap: int) -> str:
    """`terms` terms in component n of one gauge degree; alternate terms are
    `gap` levels deeper, so each sum of a given shape costs the same."""
    base = rng.randint(0, MAX_WORD - gap)
    degree = rng.randint(-base, MAX_WORD - base - gap)
    out = []
    for j in range(terms):
        nu_len = base + gap * (j % 2)
        mu = [rng.randint(1, n) for _ in range(nu_len + degree)]
        nu = [rng.randint(1, n) for _ in range(nu_len)]
        out.append(term_text(n, mu, nu, random_scalar(rng)))
    return " + ".join(out)


def _random_monomial(rng: random.Random, n: int):
    mu = [rng.randint(1, n) for _ in range(rng.randint(0, MAX_WORD))]
    nu = [rng.randint(1, n) for _ in range(rng.randint(0, MAX_WORD))]
    c = random_scalar(rng)
    return term_text(n, mu, nu, c), c


def _max_gap(n: int, rendered_delta: bool) -> int:
    gap = 2 if n <= 60 else 1
    if rendered_delta:
        while gap and n**gap > MAX_RENDER_EXPANSION:
            gap -= 1
    return gap


def _sum_shape(n_index: int, n: int, command_index: int, command: str) -> tuple[int, int]:
    """(terms, gap) of the sum for one (component, command) slot of every batch.

    The shape is fixed per slot, so every batch does the same amount of
    work; term counts 1-4 and gaps rotate over the slots instead.
    """
    turn = n_index + command_index
    terms = 1 + turn % 4
    if command == "delta":
        return terms, _max_gap(n, True)
    return terms, _max_gap(n, False) if turn % 2 == 0 else 0


def _submonoid_args(rng: random.Random, n: int) -> tuple[str, ...]:
    """A prime-generated submonoid that contains n, so no divisor pair drops out."""
    own = _PRIMES[n]
    if rng.random() < 2 / 3:
        extra = [p for p in (7, 11, 13) if p not in own and rng.random() < 0.3]
        return ("--primes", ",".join(str(p) for p in sorted(own + extra)))
    others = [p for p in (7, 11, 13, 17) if p not in own]
    return ("--coprimes", ",".join(str(p) for p in sorted(rng.sample(others, rng.randint(1, len(others))))))


def coproduct_batch(seed: int, batch: int, seen: set) -> list[Op]:
    """Seven ops per component; half of the tensor outputs use --format machine."""
    rng = _batch_rng("coproduct", seed, batch)
    ops = []
    tensor_ops = 0

    def fmt() -> tuple[str, ...]:
        nonlocal tensor_ops
        tensor_ops += 1
        return ("--format", "machine") if (tensor_ops + batch) % 2 else ()

    for n_index, n in enumerate(COPRODUCT_COMPONENTS):
        pairs = _PAIRS[n]
        candidates = []

        def element(command: str) -> str:
            terms, gap = _sum_shape(n_index, n, SUM_COMMANDS.index(command), command)
            return _random_sum(rng, n, terms, gap)

        mono, c = _random_monomial(rng, n)
        f = fmt()
        candidates.append(("delta", ("delta",) + f + (mono,), ("pairs", f != (), frozenset(pairs), c)))
        mono, c = _random_monomial(rng, n)
        f = fmt()
        args = ("deltaH",) + _submonoid_args(rng, n) + f + (mono,)
        candidates.append(("deltaH", args, ("pairs", f != (), frozenset(pairs), c)))
        f = fmt()
        args = ("delta",) + f + (element("delta"),)
        candidates.append(("delta", args, ("legs", f != (), frozenset(pairs))))
        left, right = rng.choice(pairs)
        f = fmt()
        args = ("phi", str(left), str(right)) + f + (element("phi"),)
        candidates.append(("phi", args, ("legs", f != (), frozenset({(left, right)}))))
        for command in ("coassoc", "counitlaws"):
            candidates.append((command, (command, element(command)), ("stdout", 0, "true\n")))
        a, b, cc = rng.choice(_TRIPLES[n])
        args = ("wcs", str(a), str(b), str(cc), element("wcs"))
        candidates.append(("wcs", args, ("stdout", 0, "true\n")))
        for kind, args, expect in candidates:
            if args in seen:  # a repeat would let a result cache help; drop it
                continue
            seen.add(args)
            ops.append(Op(kind, args, expect))
    rng.shuffle(ops)
    return ops


def batches(workload: str, seed: int) -> Iterator[list[Op]]:
    """The run's endless stream of batches; the same (workload, seed) gives the same stream."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    seen: set = set()
    for batch in itertools.count():
        if workload == "suite-default":
            yield suite_batch(seed, batch)
        elif workload == "deep-algebra":
            yield deep_batch(seed, batch, seen)
        else:
            yield coproduct_batch(seed, batch, seen)


# ---------------------------------------------------------------------------
# Oracles

_COMPONENT = re.compile(r"[Is]\((\d+)")


def tensor_terms(out: str, machine: bool) -> list[tuple[int, int, str]]:
    """(left component, right component, coefficient text) of each printed term."""
    body = out.rstrip("\n")
    terms = []
    if machine:
        for line in body.splitlines():
            left, right = line.split(" ⊗ ")
            fields = right.split(" | ")
            terms.append((int(left.split(" | ")[0]), int(fields[0]), " | ".join(fields[3:])))
        return terms
    if body == "0":
        return terms
    for term in body.split(" + "):
        prefix = ""
        if term.startswith("["):
            cut = term.index("] * ") + len("] * ")
            prefix, term = term[:cut], term[cut:]
        left, right = term.split(" ⊗ ")
        terms.append((int(_COMPONENT.search(left).group(1)), int(_COMPONENT.search(right).group(1)), prefix))
    return terms


def suite_output(report) -> str:
    """Deterministic text of a SuiteReport: names, check counts and witnesses."""
    rows = [[r.name, r.checks, list(r.failures)] for r in report.results]
    return json.dumps(rows, separators=(",", ":")) + "\n"


def check(op: Op, rc: int, out: str, report=None) -> str | None:
    """None when the op's output satisfies its oracle, else the reason it does not."""
    kind = op.expect[0]
    if kind == "suite":
        failing = [r.name for r in report.results if r.failures]
        if failing:
            return f"suites failed: {', '.join(failing)}"
        total = sum(r.checks for r in report.results)
        if total != op.expect[1]:
            return f"{total} suite checks, expected {op.expect[1]}"
        return None
    if kind == "stdout":
        _, want_rc, want_out = op.expect
        if rc != want_rc or out != want_out:
            return f"exit {rc} with {out[:80]!r}, expected exit {want_rc} with {want_out[:80]!r}"
        return None
    if rc != 0:
        return f"exit {rc}, expected 0"
    try:
        terms = tensor_terms(out, op.expect[1])
    except (ValueError, AttributeError) as exc:
        return f"unreadable tensor output ({exc}): {out[:80]!r}"
    legs = [(left, right) for left, right, _ in terms]
    if kind == "pairs":
        _, machine, pairs, c = op.expect
        if sorted(legs) != sorted(pairs):
            return f"{len(legs)} terms on pairs {sorted(set(legs))[:6]}..., expected one per divisor pair ({len(pairs)})"
        want = machine_coeff(c) if machine else text_prefix(c)
        if any(coeff != want for _, _, coeff in terms):
            return f"a term lost the coefficient {literal(c)}"
        return None
    if kind == "legs":
        stray = sorted(set(legs) - op.expect[2])
        if stray:
            return f"terms on leg components {stray[:4]} outside {sorted(op.expect[2])[:6]}"
        return None
    raise ValueError(f"unknown oracle {kind!r}")
