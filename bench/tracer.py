"""Per-layer tracing from outside the program.

``Tracer.install`` replaces the layer functions of gl2orbits with wrappers
that record a span per call: name, start, end and the span that caused it.
Every module attribute bound to a wrapped function is replaced, including
names other modules imported (``sweep._close``, ``semisimplify._make_group``),
so calls between modules are attributed too. Spans stay in memory until
``write_spans``. A layer's self time is its spans' durations minus the part
their child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (defining module, attribute, span name); several attributes may share a span.
FUNCTION_LAYERS = (
    ("gl2orbits.gl2", "_make_group", "gl2.make_group"),
    ("gl2orbits.gl2", "_close", "gl2.close"),
    ("gl2orbits.gl2", "kth_power_subgroup", "gl2.kth_power_subgroup"),
    ("gl2orbits.modarith", "least_primitive_root", "modarith.least_primitive_root"),
    ("gl2orbits.orbits", "orbit_size_map", "orbits.orbit_size_map"),
    ("gl2orbits.orbits", "orbit_decomposition", "orbits.orbit_decomposition"),
    ("gl2orbits.orbits", "coset_orbit_refinement", "orbits.coset_orbit_refinement"),
    (
        "gl2orbits.orbits",
        "uniform_divisibility_transfer",
        "orbits.uniform_divisibility_transfer",
    ),
    (
        "gl2orbits.semisimplify",
        "classify_semisimplification",
        "semisimplify.classify_semisimplification",
    ),
    ("gl2orbits.semisimplify", "verify_witness", "semisimplify.verify_witness"),
    ("gl2orbits.semisimplify", "semisimplification", "semisimplify.semisimplification"),
    ("gl2orbits.divchain", "validate_case1", "divchain.validate"),
    ("gl2orbits.divchain", "validate_case2", "divchain.validate"),
    ("gl2orbits.divchain", "verify_case1_chain", "divchain.verify_chain"),
    ("gl2orbits.divchain", "verify_case2_chain", "divchain.verify_chain"),
    ("gl2orbits.divchain", "nonsplit_orbit_check", "divchain.nonsplit_orbit_check"),
    ("gl2orbits.sweep", "_build_scenario", "sweep.sample"),
    ("gl2orbits.sweep", "_sample_triangular_group", "sweep.sample"),
    ("gl2orbits.sweep", "_sample_diagonal_group", "sweep.sample"),
    ("gl2orbits.sweep", "_sample_nested_pair", "sweep.sample"),
    ("gl2orbits.sweep", "run", "sweep.run"),
)
GENERATOR_LAYERS = (
    ("gl2orbits.sweep", "enumerate_upper_triangular_subgroups", "sweep.enumerate"),
    ("gl2orbits.sweep", "enumerate_diagonal_subgroups", "sweep.enumerate"),
)
# Time spent on the tracer's own counters; a child span, so it is kept out
# of its parent's self time, and reported by no metric.
BOOKKEEPING = "trace.bookkeeping"

PER_LAYER_METRICS = (
    ("gl2.make_group.self_s", "s"),
    ("gl2.make_group.calls", "count"),
    ("gl2.elements_built", "count"),
    ("gl2.close.self_s", "s"),
    ("gl2.close.calls", "count"),
    ("gl2.close.over_budget", "count"),
    ("gl2.close.over_budget_s", "s"),
    ("gl2.kth_power_subgroup.self_s", "s"),
    ("orbits.orbit_size_map.self_s", "s"),
    ("orbits.orbit_size_map.calls", "count"),
    ("orbits.orbit_size_map.repeat_calls", "count"),
    ("orbits.orbit_decomposition.self_s", "s"),
    ("orbits.orbit_decomposition.calls", "count"),
    ("orbits.coset_orbit_refinement.self_s", "s"),
    ("orbits.coset_orbit_refinement.calls", "count"),
    ("orbits.uniform_divisibility_transfer.self_s", "s"),
    ("semisimplify.classify_semisimplification.self_s", "s"),
    ("semisimplify.verify_witness.self_s", "s"),
    ("semisimplify.semisimplification.calls", "count"),
    ("divchain.validate.self_s", "s"),
    ("divchain.verify_chain.self_s", "s"),
    ("divchain.nonsplit_orbit_check.self_s", "s"),
    ("sweep.sample.self_s", "s"),
    ("sweep.enumerate.self_s", "s"),
    ("sweep.run.self_s", "s"),
    ("sweep.report_s", "s"),
    ("modarith.least_primitive_root.calls", "count"),
)


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index or None, raised]
        self.spans: list[list] = []
        self._open: list[int] = []
        self.elements_built = 0
        self.repeat_calls = 0
        self._mapped_groups: set[tuple[int, int, int]] = set()

    def _enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, 0.0, 0.0, parent, False])
        self._open.append(index)
        self.spans[index][1] = time.perf_counter()
        return index

    def _exit(self, index: int, raised: bool = False) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[4] = raised
        self._open.pop()

    def _call(self, name: str, fn, args, kwargs):
        index = self._enter(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._exit(index, raised=True)
            raise
        self._exit(index)
        return result

    def wrap_function(self, name: str, fn):
        if name == "gl2.make_group":

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                group = self._call(name, fn, args, kwargs)
                self.elements_built += group.order
                return group

        elif name == "orbits.orbit_size_map":

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                self._note_mapped_group(args[0] if args else kwargs["G"])
                return self._call(name, fn, args, kwargs)

        else:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return self._call(name, fn, args, kwargs)

        return traced

    def wrap_generator(self, name: str, fn):
        """Spans cover each resumption of the generator, not its consumer."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                index = self._enter(name)
                try:
                    item = next(items)
                except StopIteration:
                    self._exit(index)
                    return
                except BaseException:
                    self._exit(index, raised=True)
                    raise
                self._exit(index)
                yield item

        return traced

    def _note_mapped_group(self, group) -> None:
        """Count orbit maps of a group equal to one already mapped.

        Groups compare by (l, order, hash of the element set); keeping the
        groups themselves would hold every mapped element set in memory.
        """
        index = self._enter(BOOKKEEPING)
        key = (group.modulus.ell, group.order, hash(group))
        if key in self._mapped_groups:
            self.repeat_calls += 1
        self._mapped_groups.add(key)
        self._exit(index)

    def install(self) -> None:
        """Wrap every layer function wherever a gl2orbits module binds it."""
        import gl2orbits  # noqa: F401  (loads every submodule)
        from gl2orbits.sweep import SweepReport

        modules = [
            module
            for name, module in sys.modules.items()
            if name == "gl2orbits" or name.startswith("gl2orbits.")
        ]
        wrappers = [
            (module, attr, name, self.wrap_function)
            for module, attr, name in FUNCTION_LAYERS
        ] + [
            (module, attr, name, self.wrap_generator)
            for module, attr, name in GENERATOR_LAYERS
        ]
        for module_name, attr, name, wrap in wrappers:
            original = getattr(sys.modules[module_name], attr)
            wrapped = wrap(name, original)
            for module in modules:
                for key in [k for k, v in vars(module).items() if v is original]:
                    setattr(module, key, wrapped)
        SweepReport.text = self.wrap_function("sweep.report", SweepReport.text)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics from the recorded spans, named as PER_LAYER_METRICS."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        total_s: dict[str, float] = {}
        over_budget = 0
        over_budget_s = 0.0
        for i, (name, start, end, _, raised) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
            total_s[name] = total_s.get(name, 0.0) + (end - start)
            if raised and name == "gl2.close":
                # _close raises only when a closure overruns its element budget.
                over_budget += 1
                over_budget_s += end - start
        out: dict[str, float] = {}
        for metric, _ in PER_LAYER_METRICS:
            layer, _, field = metric.rpartition(".")
            if metric == "gl2.elements_built":
                out[metric] = self.elements_built
            elif metric == "gl2.close.over_budget":
                out[metric] = over_budget
            elif metric == "gl2.close.over_budget_s":
                out[metric] = over_budget_s
            elif metric == "orbits.orbit_size_map.repeat_calls":
                out[metric] = self.repeat_calls
            elif metric == "sweep.report_s":
                out[metric] = total_s.get("sweep.report", 0.0)
            elif field == "calls":
                out[metric] = calls.get(layer, 0)
            else:
                out[metric] = self_s.get(layer, 0.0)
        return out

    def write_spans(self, path: str, round_index: int, origin: float) -> None:
        """Append the spans as JSON lines; times in seconds from origin."""
        with open(path, "a", encoding="utf-8") as handle:
            for i, (name, start, end, parent, raised) in enumerate(self.spans):
                record = {
                    "round": round_index,
                    "id": i,
                    "name": name,
                    "start": round(start - origin, 7),
                    "end": round(end - origin, 7),
                    "parent": parent,
                    "raised": raised,
                }
                handle.write(json.dumps(record) + "\n")
