"""Per-layer tracing of the cuntzsum package from outside it.

`Tracer.installed()` wraps the package's public functions and methods
listed in `TARGETS`, patching every module-level binding of the same
function object (``cli.canonical_form``, ``bialgebra.equals``, the
package re-exports, aliases such as ``delta_H``) and every alias in a
class body (``Scalar.__radd__``).  Leaving the block restores each
original object.

Each wrapper adds its call to the metric's count and its self time (its
duration minus the time of wrapped calls below it) to the metric's total.
Metrics outside `AGGREGATE_ONLY` also record a span ``(name, start, end,
parent, op)`` in memory; `write_spans` writes them out when the run ends.
Scalar arithmetic and the monoid membership tests run hundreds of
thousands of times per suite run, so they are counted and timed in
aggregate only, which keeps the traced run usable.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager

# metric -> "module:qualified.name" of each function or method it covers.
TARGETS = {
    "cli.parser": ["cli:build_parser"],
    "cli.main": ["cli:main"],
    "exprs.parse": ["exprs:parse_element", "exprs:deserialize_element"],
    "exprs.render": [
        "exprs:render_element",
        "exprs:render_tensor",
        "exprs:serialize_element",
        "exprs:serialize_tensor",
    ],
    "algebra.equals": ["algebra:equals"],
    "algebra.canonical": ["algebra:canonical_form", "algebra:expand_to_level"],
    "algebra.mul": ["algebra:AlgebraElement.__mul__"],
    "algebra.reduce": ["algebra:reduce_word", "algebra:reduction_trace"],
    "algebra.extract": ["algebra:coefficient_extract"],
    "tensors.equals": ["tensors:TensorElement.equals"],
    "tensors.canonical": ["tensors:canonical_tensor_form"],
    "tensors.mul": ["tensors:TensorElement.__mul__"],
    "bialgebra.phi": ["bialgebra:phi"],
    "bialgebra.delta": ["bialgebra:delta", "bialgebra:delta_restricted"],
    "bialgebra.lift": [
        "bialgebra:lift_left",
        "bialgebra:lift_right",
        "bialgebra:counit_contract_left",
        "bialgebra:counit_contract_right",
    ],
    "bialgebra.check": [
        "bialgebra:check_coassociativity",
        "bialgebra:check_counit_laws",
        "bialgebra:check_hom_property",
        "bialgebra:check_wcs_axiom",
    ],
    "monoids.factorize": ["monoids:prime_factorize", "monoids:is_prime", "monoids:divisor_pairs"],
    "monoids.contains": [
        "monoids:SubmonoidView.contains",
        "monoids:PowerSubmonoid.contains",
        "monoids:submonoid_member",
    ],
    "monoids.window": [
        "monoids:window_of",
        "monoids:subset_window",
        "monoids:is_subsemigroup",
        "monoids:is_ideal",
        "monoids:is_factorial",
        "monoids:is_prime_subset",
        "monoids:complement_duality_check",
    ],
    "classify.classify": ["classify:classify_component_set", "classify:check_biideal_on_generators"],
    "classify.lattice": ["classify:lattice_iso_check"],
    "classify.split": ["classify:decompose", "classify:quotient_morphism_check"],
    "scalars": [
        f"scalars:Scalar.{name}"
        for name in (
            "__init__", "__add__", "__sub__", "__rsub__", "__neg__", "__mul__",
            "conjugate", "inverse", "__truediv__", "__rtruediv__", "is_zero",
        )
    ],
}

AGGREGATE_ONLY = frozenset({"scalars", "monoids.factorize", "monoids.contains"})


def _resolve(modules: dict, target: str):
    """(owner, attribute, original) for ``module:qualname``, or None if absent."""
    module_name, _, qualname = target.partition(":")
    owner = modules.get(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None:
        return None
    if isinstance(owner, type):
        owner = next((k for k in owner.__mro__ if attr in vars(k)), None)
        if owner is None:
            return None
        return owner, attr, vars(owner)[attr]
    if not hasattr(owner, attr):
        return None
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Counts, self times and spans for the `TARGETS` of one package instance.

    ``modules`` maps short names (``"cli"``, ``"algebra"``, ...) to the
    package's modules; every module in it is searched for bindings to patch.
    """

    def __init__(self, modules: dict):
        self.modules = modules
        self.stats = {metric: [0, 0.0] for metric in TARGETS}
        self.names: list[str] = list(TARGETS)
        self.spans: list = []
        self.op_id = -1
        self.missing: list[str] = []
        self._acc = [0.0]
        self._ids = [-1]
        self._wrappers = {}
        for metric, targets in TARGETS.items():
            for target in targets:
                found = _resolve(modules, target)
                if found is None:
                    self.missing.append(target)
                    continue
                owner, attr, original = found
                if original not in self._wrappers:
                    self._wrappers[original] = (owner, self._wrap(original, metric))

    def _wrap(self, fn, metric: str):
        stat = self.stats[metric]
        acc, ids, spans, clock = self._acc, self._ids, self.spans, time.perf_counter
        name_id = self.names.index(metric)
        tracer = self

        if metric in AGGREGATE_ONLY:
            def wrapper(*args, **kwargs):
                acc.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    d = clock() - t0
                    child = acc.pop()
                    acc[-1] += d
                    stat[0] += 1
                    stat[1] += d - child
        else:
            def wrapper(*args, **kwargs):
                sid = len(spans)
                spans.append(None)
                parent = ids[-1]
                ids.append(sid)
                acc.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    d = t1 - t0
                    ids.pop()
                    child = acc.pop()
                    acc[-1] += d
                    stat[0] += 1
                    stat[1] += d - child
                    spans[sid] = (name_id, t0, t1, parent, tracer.op_id)

        return functools.update_wrapper(wrapper, fn)

    def take_stats(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per metric since the last call, then zero them."""
        taken = {}
        for metric, stat in self.stats.items():
            taken[metric] = (stat[0], stat[1])
            stat[0], stat[1] = 0, 0.0
        return taken

    @contextmanager
    def span(self, name: str, op_id: int):
        """A root span around one op, so spans of one op share its id."""
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        self.op_id = op_id
        sid = len(self.spans)
        self.spans.append(None)
        self._ids.append(sid)
        self._acc.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._ids.pop()
            self._acc.pop()
            self.spans[sid] = (name_id, t0, t1, -1, op_id)

    def _patch_sites(self):
        """(holder, attribute, original) for every binding of a wrapped object."""
        sites = []
        holders = list(self.modules.values())
        for original, (owner, _) in self._wrappers.items():
            if isinstance(owner, type):
                sites += [(owner, a, original) for a, v in list(vars(owner).items()) if v is original]
            else:
                for module in holders:
                    sites += [(module, a, original) for a, v in list(vars(module).items()) if v is original]
        return sites

    @contextmanager
    def installed(self):
        sites = self._patch_sites()
        try:
            for holder, attr, original in sites:
                setattr(holder, attr, self._wrappers[original][1])
            yield self
        finally:
            for holder, attr, original in reversed(sites):
                setattr(holder, attr, original)

    def write_spans(self, path, header: dict) -> None:
        """One JSON header line, then one ``[name, start_s, end_s, parent, op]`` line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({**header, "names": self.names, "missing": self.missing}) + "\n")
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")
