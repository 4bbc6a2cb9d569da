"""Command-line front end.

Exit codes: 0 on success (including query answers like ``false`` from
``member``), 1 when a verification command finds a failure (``eq``,
``coassoc``, ``counitlaws``, ``wcs``, ``quotient``, ``lattice``,
``suite``), 2 on usage, parse, or domain errors, and 2 from the process
entry when stdout is closed before the output is written.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import mutations
from .bialgebra import (
    check_coassociativity,
    check_counit_laws,
    check_wcs_axiom,
    counit,
    delta,
    delta_restricted,
    phi,
)
from .classify import (
    Classification,
    classify_component_set,
    decompose,
    lattice_iso_check,
    quotient_morphism_check,
)
from .errors import InputError, ParseError
from .exprs import (
    parse_element,
    render_element,
    render_tensor,
    serialize_element,
    serialize_tensor,
)
from .monoids import (
    NATURALS,
    PowerSubmonoid,
    PrimeSet,
    SubmonoidView,
    _check_bound,
    submonoid_member,
    subset_window,
)
from .suites import SuiteConfig, run_property_suite


def _parse_prime_list(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise InputError(f"bad integer list {text!r}; use comma-separated integers, e.g. 2,3") from None


_PRIME_SET_KINDS = {"primes": PrimeSet.finite, "coprimes": PrimeSet.excluding}


def _prime_set_from_args(args) -> PrimeSet:
    for kind, make in _PRIME_SET_KINDS.items():
        payload = getattr(args, kind, None)
        if payload is not None:
            return make(_parse_prime_list(payload))
    raise InputError("a prime set is required (--primes or --coprimes)")


def _submonoid_from_args(args):
    if getattr(args, "all", False):
        return NATURALS
    if getattr(args, "primes_powers", None) is not None:
        return PowerSubmonoid(args.primes_powers)
    return SubmonoidView(_prime_set_from_args(args))


def _prime_set_spec(text: str) -> PrimeSet:
    """``primes:2,3`` / ``coprimes:2`` -> the prime set."""
    kind, _, payload = text.partition(":")
    if kind not in _PRIME_SET_KINDS:
        raise InputError(f"unknown prime set spec {text!r}; use primes: or coprimes:")
    return _PRIME_SET_KINDS[kind](_parse_prime_list(payload))


def _classify_set_spec(spec: str, bound: int) -> tuple[Classification, str]:
    """``primes:2,3`` / ``coprimes:2`` / ``list:1,4,16`` -> classification + scope.

    A set of primes generates a factorial, product-closed submonoid, whose
    components carry a subbialgebra at every bound; a list is searched.
    """
    kind, _, payload = spec.partition(":")
    if kind == "list":
        return classify_component_set(subset_window(bound, _parse_prime_list(payload))), "window"
    if kind in _PRIME_SET_KINDS:
        _prime_set_spec(spec)
        _check_bound(bound)
        return Classification("subbialgebra", None), "global"
    raise InputError(f"unknown set spec {spec!r}; use primes:, coprimes:, or list:")


def _element_out(x, fmt: str) -> str:
    return serialize_element(x) if fmt == "machine" else render_element(x)


def _tensor_out(t, fmt: str) -> str:
    return serialize_tensor(t) if fmt == "machine" else render_tensor(t)


def _bool_out(value: bool) -> int:
    print("true" if value else "false")
    return 0 if value else 1


def _prime_set_group(p):
    """The required ``--primes`` / ``--coprimes`` choice of a subcommand."""
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--primes", help="generating primes, e.g. 2,3")
    group.add_argument("--coprimes", help="excluded primes (cofinite set)")
    return group


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="cuntzsum",
        description="Exact computations in the direct sum of all Cuntz algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=("text", "machine"), default="text")
        return p

    p = add("norm", "canonical form of an expression")
    p.add_argument("expr")

    p = add("eq", "decide equality of two expressions")
    p.add_argument("expr1")
    p.add_argument("expr2")

    p = add("delta", "comultiplication of an expression")
    p.add_argument("expr")

    p = add("deltaH", "submonoid-restricted comultiplication")
    group = _prime_set_group(p)
    group.add_argument("--primes-powers", dest="primes_powers", type=int, metavar="K",
                       help="the submonoid of powers of K")
    group.add_argument("--all", action="store_true", help="no restriction")
    p.add_argument("expr")

    p = add("eps", "counit of an expression")
    p.add_argument("expr")

    p = add("coassoc", "check coassociativity at an expression")
    p.add_argument("expr")

    p = add("counitlaws", "check both counit laws at an expression")
    p.add_argument("expr")

    p = add("wcs", "check the splitting axiom for components a, b, c")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("c", type=int)
    p.add_argument("expr")

    p = add("phi", "split a component n*m expression into the pair (n, m)")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("expr")

    p = add("classify", "classify a component set")
    p.add_argument("--set", required=True, dest="set_spec")
    p.add_argument("--bound", type=int, default=100)

    p = add("member", "membership of n in a generated submonoid")
    _prime_set_group(p)
    p.add_argument("--n", type=int, required=True)

    p = add("decompose", "split an expression into generated + complement parts")
    _prime_set_group(p)
    p.add_argument("expr")

    p = add("quotient", "check the projection onto generated components is a morphism")
    _prime_set_group(p)
    p.add_argument("expr1")
    p.add_argument("expr2")

    p = add("lattice", "verify lattice semantics for two prime sets")
    p.add_argument("--f", required=True, help="prime set spec, e.g. primes:2")
    p.add_argument("--g", required=True, help="prime set spec, e.g. primes:3")
    p.add_argument("--bound", type=int, default=100)

    p = add("suite", "run every property suite")
    defaults = SuiteConfig()
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.add_argument("--bound", type=int, default=defaults.bound)
    p.add_argument("--max-component", type=int, default=defaults.max_component)
    p.add_argument("--max-word-len", type=int, default=defaults.max_word_len)
    p.add_argument("--samples", type=int, default=defaults.sample_count)
    p.add_argument("--mutate", choices=mutations.ALL_MUTATIONS)

    return parser


def run_command(args) -> int:
    cmd = args.command
    fmt = getattr(args, "format", "text")

    if cmd == "norm":
        print(_element_out(parse_element(args.expr), fmt))
        return 0
    if cmd == "eq":
        x = parse_element(args.expr1)
        y = parse_element(args.expr2)
        return _bool_out(x.equals(y))
    if cmd == "delta":
        print(_tensor_out(delta(parse_element(args.expr)), fmt))
        return 0
    if cmd == "deltaH":
        submonoid = _submonoid_from_args(args)
        print(_tensor_out(delta_restricted(submonoid, parse_element(args.expr)), fmt))
        return 0
    if cmd == "eps":
        print(counit(parse_element(args.expr)).literal())
        return 0
    if cmd == "coassoc":
        return _bool_out(check_coassociativity(parse_element(args.expr)))
    if cmd == "counitlaws":
        return _bool_out(check_counit_laws(parse_element(args.expr)))
    if cmd == "wcs":
        return _bool_out(check_wcs_axiom(args.a, args.b, args.c, parse_element(args.expr)))
    if cmd == "phi":
        print(_tensor_out(phi(args.n, args.m, parse_element(args.expr)), fmt))
        return 0
    if cmd == "classify":
        result, scope = _classify_set_spec(args.set_spec, args.bound)
        if fmt == "machine":
            witness = ",".join(str(v) for v in result.witness) if result.witness else "-"
            print(f"{result.verdict} {witness} {scope}")
        else:
            print(result.verdict)
            if result.witness is not None:
                print(f"witness: ({','.join(str(v) for v in result.witness)})")
            print(f"scope: {scope}")
        return 0
    if cmd == "member":
        view = SubmonoidView(_prime_set_from_args(args))
        print("true" if submonoid_member(view, args.n) else "false")
        return 0
    if cmd == "decompose":
        parts = decompose(parse_element(args.expr), _prime_set_from_args(args))
        # Both parts are rendered before either is printed, so a part past
        # the push-down cap leaves no half report on stdout.
        sub, ideal = (_element_out(part, fmt) for part in parts)
        if fmt == "machine":
            print(f"part subbialgebra\n{sub}\npart biideal\n{ideal}")
        else:
            print(f"subbialgebra part: {sub}\nbiideal part: {ideal}")
        return 0
    if cmd == "quotient":
        ok = quotient_morphism_check(
            _prime_set_from_args(args),
            parse_element(args.expr1),
            parse_element(args.expr2),
        )
        return _bool_out(ok)
    if cmd == "lattice":
        report = lattice_iso_check(
            _prime_set_spec(args.f), _prime_set_spec(args.g), args.bound
        )
        for line in report.lines():
            print(line)
        return 0 if report.consistent else 1
    if cmd == "suite":
        cfg = SuiteConfig(
            seed=args.seed,
            bound=args.bound,
            max_component=args.max_component,
            max_word_len=args.max_word_len,
            sample_count=args.samples,
        )
        mutations.disable_all()
        if args.mutate:
            mutations.enable(args.mutate)
        try:
            report = run_property_suite(cfg)
        finally:
            mutations.disable_all()
        if fmt == "machine":
            for r in report.results:
                print(json.dumps(
                    {
                        "suite": r.name,
                        "checks": r.checks,
                        "failures": r.failures,
                        "seconds": round(r.seconds, 4),
                    },
                    sort_keys=True,
                ))
            print(json.dumps({"all_passed": report.all_passed}, sort_keys=True))
        else:
            for line in report.lines():
                print(line)
        return 0 if report.all_passed else 1
    raise InputError(f"unknown command {cmd!r}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return run_command(args)
    except (ParseError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> int:
    """The process entry (console script, ``python -m cuntzsum``): `main`, exit 2 on a closed stdout."""
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe shows here, not in the interpreter's final flush
    except BrokenPipeError:
        # As the Python docs' note on SIGPIPE does: point fd 1 at devnull, so
        # the final flush of what is still buffered does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return code


if __name__ == "__main__":
    sys.exit(console_main())
