"""Reference oracles for the window predicates and the lattice check.

These are the classifier's former witness loops and the former per-n
`lattice_iso_check`: each walks the window directly, finds divisors by
trial division and decides membership in a generated submonoid by
trial-division factorization.  They share no search code and no number
tables with `cuntzsum.monoids`, so the differential tests in
`test_windows.py` compare two independent implementations.
"""

from __future__ import annotations

from math import isqrt

from cuntzsum.classify import Classification, LatticeCheck, LatticeIsoReport


def divisor_pairs(n):
    """Ordered pairs (m, l) with m*l == n, in increasing m."""
    small = [m for m in range(1, isqrt(n) + 1) if n % m == 0]
    return [(m, n // m) for m in small + [n // m for m in reversed(small) if m * m != n]]


def prime_divisors(n):
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return primes + [n] if n > 1 else primes


class SubmonoidView:
    """Membership in the submonoid generated by a prime set: every prime divisor is a generator."""

    def __init__(self, generator_set):
        self.generator_set = generator_set

    def contains(self, n):
        return n >= 1 and all(self.generator_set.contains(p) for p in prime_divisors(n))


def divisor_closure_witness(members, bound):
    for n in sorted(members):
        for m, l in divisor_pairs(n):
            if m not in members or l not in members:
                return (n, m, l)
    return None


def product_closure_witness(members, bound):
    for a in sorted(members):
        for b in sorted(members):
            if a * b <= bound and a * b not in members:
                return (a * b, a, b)
    return None


def ideal_witness(members, bound):
    for a in range(1, bound + 1):
        for s in sorted(members):
            if a * s <= bound and a * s not in members:
                return (a * s, a, s)
    return None


def prime_witness(members, bound):
    for n in sorted(members):
        for m, l in divisor_pairs(n):
            if m not in members and l not in members:
                return (n, m, l)
    return None


def classify_component_set(window) -> Classification:
    members = set(window.members)
    bound = window.bound
    if not members:
        return Classification("zero", None)
    if 1 in members:
        witness = divisor_closure_witness(members, bound)
        if witness is None:
            witness = product_closure_witness(members, bound)
        if witness is None:
            return Classification("subbialgebra", None)
        return Classification("none", witness)
    ideal = ideal_witness(members, bound)
    prime = prime_witness(members, bound)
    if ideal is None and prime is None:
        return Classification("biideal", None)
    if ideal is None:
        return Classification("ideal_only", None)
    return Classification("none", ideal if prime is None else prime)


def lattice_iso_check(f, g, bound: int) -> LatticeIsoReport:
    vf, vg = SubmonoidView(f), SubmonoidView(g)
    vmeet = SubmonoidView(f.intersection(g))
    vjoin = SubmonoidView(f.union(g))
    checks = []

    witness = None
    for n in range(1, bound + 1):
        if vmeet.contains(n) != (vf.contains(n) and vg.contains(n)):
            witness = (n,)
            break
    checks.append(LatticeCheck("meet membership = intersection of memberships", witness is None, witness))

    witness = None
    for n in range(1, bound + 1):
        generated = any(
            vf.contains(m) and vg.contains(n // m) for m, _ in divisor_pairs(n)
        )
        if vjoin.contains(n) != generated:
            witness = (n,)
            break
    checks.append(LatticeCheck("join membership = products of the two submonoids", witness is None, witness))

    witness = None
    for n in range(1, bound + 1):
        if vmeet.contains(n) and not vf.contains(n):
            witness = (n, "meet not inside left factor")
            break
        if vf.contains(n) and not vjoin.contains(n):
            witness = (n, "left factor not inside join")
            break
    if witness is None and f.issubset(g):
        for n in range(1, bound + 1):
            if vf.contains(n) and not vg.contains(n):
                witness = (n, "inclusion violated")
                break
    checks.append(LatticeCheck("monotonicity under inclusion", witness is None, witness))

    if f == g:
        checks.append(LatticeCheck("separation", True, None))
    else:
        p = f.separating_prime(g)
        ok = p is not None and vf.contains(p) != vg.contains(p)
        checks.append(LatticeCheck("separation", ok, None if ok else (p,)))

    return LatticeIsoReport(tuple(checks), all(c.holds for c in checks))
