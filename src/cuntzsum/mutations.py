"""Fault-injection switches for mutation testing of the property suites.

Production code paths consult these flags at exactly three points.  All
flags are off by default; the suite runner enables one at a time to prove
the suites detect the corresponding defect.  The active set lives in a
context variable, so a switch enabled in one thread (or context) is not
seen by another.  A forked process starts with the switches of the
thread that forked it, so the suite runner's worker processes run under
the caller's switches.
"""

from contextlib import contextmanager
from contextvars import ContextVar

DROP_DIVISOR_PAIR = "drop-divisor-pair"    # delta skips the (2,2) pair of 4
SKIP_DELTA_CHECK = "skip-delta-check"      # word reduction ignores the index match
ONE_IS_PRIME = "one-is-prime"              # primality test accepts 1

ALL_MUTATIONS = (DROP_DIVISOR_PAIR, SKIP_DELTA_CHECK, ONE_IS_PRIME)

_active: ContextVar[frozenset] = ContextVar("cuntzsum_mutations", default=frozenset())


def enable(name: str) -> None:
    if name not in ALL_MUTATIONS:
        raise ValueError(f"unknown mutation {name!r}; known: {', '.join(ALL_MUTATIONS)}")
    _active.set(_active.get() | {name})


def is_active(name: str) -> bool:
    return name in _active.get()


@contextmanager
def enabled(name: str):
    """Enable ``name`` for the block, then restore the switches as they were."""
    token = _active.set(_active.get())
    try:
        enable(name)
        yield
    finally:
        _active.reset(token)


@contextmanager
def only(name: str | None):
    """Run the block under ``name``'s switch alone, or under none for None,
    then restore the switches as they were."""
    token = _active.set(frozenset())
    try:
        if name is not None:
            enable(name)
        yield
    finally:
        _active.reset(token)
