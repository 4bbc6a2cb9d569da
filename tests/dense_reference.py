"""Dense canonical forms, kept as reference oracles for the sparse core.

These are the original width-1 and width-2 canonical-form engines, each
with its own level expansion and sibling collapse.  They share no code
with `cuntzsum.algebra` beyond the value types, so tests can compare the
package's engine against them byte for byte.
"""

from itertools import product

from cuntzsum import AlgebraElement, CuntzMonomial, TensorElement


def refinements(mono, level):
    """All s_{mu gamma} s_{nu gamma}^* with ``len(nu) + len(gamma) == level``."""
    gap = level - len(mono.nu)
    if gap == 0 or mono.n == 1:
        yield mono
        return
    for gamma in product(range(1, mono.n + 1), repeat=gap):
        yield CuntzMonomial(mono.n, mono.mu + gamma, mono.nu + gamma)


def dense_canonical_form(x):
    groups = {}
    for mono, coeff in x.items():
        groups.setdefault((mono.n, mono.degree), {})[mono] = coeff

    out = {}
    for (n, _), terms in groups.items():
        top = max(len(m.nu) for m in terms)
        leaves = {}
        for mono, coeff in terms.items():
            for refined in refinements(mono, top):
                acc = leaves.get(refined)
                total = coeff if acc is None else acc + coeff
                if total.is_zero():
                    leaves.pop(refined, None)
                else:
                    leaves[refined] = total
        for level in range(top, 0, -1):
            families = {}
            for mono in leaves:
                if len(mono.nu) == level and mono.mu and mono.mu[-1] == mono.nu[-1]:
                    parent = (mono.mu[:-1], mono.nu[:-1])
                    families.setdefault(parent, {})[mono.mu[-1]] = mono
            for (pmu, pnu), children in families.items():
                if len(children) != n:
                    continue
                coeffs = {leaves[m] for m in children.values()}
                if len(coeffs) != 1:
                    continue
                shared = coeffs.pop()
                for m in children.values():
                    del leaves[m]
                leaves[CuntzMonomial(n, pmu, pnu)] = shared
        out.update(leaves)
    return AlgebraElement._raw(out)


def _collapse_leg(leaves, pos):
    changed = False
    top = max((len(legs[pos].nu) for legs in leaves), default=0)
    for level in range(top, 0, -1):
        families = {}
        for legs in leaves:
            mono = legs[pos]
            if len(mono.nu) == level and mono.mu and mono.mu[-1] == mono.nu[-1]:
                others = legs[:pos] + legs[pos + 1:]
                key = (others, mono.mu[:-1], mono.nu[:-1])
                families.setdefault(key, {})[mono.mu[-1]] = legs
        for (others, pmu, pnu), children in families.items():
            n = next(iter(children.values()))[pos].n
            if len(children) != n:
                continue
            coeffs = {leaves[k] for k in children.values()}
            if len(coeffs) != 1:
                continue
            shared = coeffs.pop()
            for k in children.values():
                del leaves[k]
            parent = CuntzMonomial(n, pmu, pnu)
            legs = others[:pos] + (parent,) + others[pos:]
            leaves[legs] = shared
            changed = True
    return changed


def dense_canonical_tensor_form(t):
    groups = {}
    for legs, coeff in t.items():
        key = tuple((m.n, m.degree) for m in legs)
        groups.setdefault(key, {})[legs] = coeff

    out = {}
    for group in groups.values():
        width = len(next(iter(group)))
        levels = tuple(max(len(legs[k].nu) for legs in group) for k in range(width))
        leaves = {}
        for legs, coeff in group.items():
            for refined in product(*(refinements(m, lv) for m, lv in zip(legs, levels))):
                acc = leaves.get(refined)
                total = coeff if acc is None else acc + coeff
                if total.is_zero():
                    leaves.pop(refined, None)
                else:
                    leaves[refined] = total
        while any(_collapse_leg(leaves, pos) for pos in range(width)):
            pass
        out.update(leaves)
    return TensorElement._raw(out)
