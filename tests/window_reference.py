"""Reference oracles for the window predicates and the lattice check.

These are the classifier's former witness loops and the former per-n
`lattice_iso_check`: each walks the window directly and decides
membership through `SubmonoidView.contains`.  They share no search code
with `cuntzsum.monoids`, so the differential tests in
`test_windows.py` compare two independent implementations.
"""

from __future__ import annotations

from cuntzsum.classify import Classification, LatticeCheck, LatticeIsoReport
from cuntzsum.monoids import SubmonoidView, divisor_pairs


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
