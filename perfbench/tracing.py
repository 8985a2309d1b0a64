"""Spans around the public functions of each cubequot layer.

Used only by the traced run (`--trace 1`): `Tracer.install` replaces each
target with a wrapper in every cubequot module that holds it, so a caller
that imported the name (`cubequot.verify.local_params`) sees the wrapper as
well as the defining module (`cubequot.graph_core.local_params`). Spans are
kept in memory as (name, start, end, parent, run id) and written out when
the run ends. The untraced runs never import this module's wrappers, so
they time the unmodified program.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from workloads import VERIFY_CLAIMS

ROOT_SPAN = "bench.job"

# (metric prefix, module, attribute) for every wrapped public function; an
# attribute "Class.method" wraps a method on the class.
TARGETS = (
    ("cube_symmetry.generate_group", "cubequot.cube_symmetry", "generate_group"),
    ("cube_symmetry.normalizer", "cubequot.cube_symmetry", "normalizer"),
    ("cube_symmetry.min_distance", "cubequot.cube_symmetry", "min_distance"),
    ("cube_symmetry.parse_group", "cubequot.cube_symmetry", "parse_group_text"),
    ("cube_symmetry.parse_group", "cubequot.cube_symmetry", "parse_group_file"),
    ("cube_symmetry.conjugate_group", "cubequot.cube_symmetry", "conjugate_group"),
    ("cube_symmetry.intersect_even", "cubequot.cube_symmetry", "intersect_even"),
    ("perm_groups.add_generator", "cubequot.perm_groups", "PermutationGroup.add_generator"),
    ("quotient.build_quotient", "cubequot.quotient", "build_quotient"),
    ("quotient.sphere", "cubequot.quotient", "sphere"),
    ("graph_core.local_params", "cubequot.graph_core", "local_params"),
    ("graph_core.bfs_level_masks", "cubequot.graph_core", "SimpleGraph.bfs_level_masks"),
    ("graph_core.halved_graphs", "cubequot.graph_core", "halved_graphs"),
    ("graph_core.distance2_graph", "cubequot.graph_core", "distance2_graph"),
    ("graph_core.bipartite_parts", "cubequot.graph_core", "bipartite_parts"),
    ("graph_core.is_locally", "cubequot.graph_core", "is_locally"),
    ("graph_core.is_rectagraph", "cubequot.graph_core", "is_rectagraph"),
    ("graph_core.SimpleGraph", "cubequot.graph_core", "SimpleGraph.__init__"),
    ("graph_core.to_json", "cubequot.graph_core", "SimpleGraph.to_json"),
    ("iso_aut.are_isomorphic", "cubequot.iso_aut", "are_isomorphic"),
    ("iso_aut.automorphism_group", "cubequot.iso_aut", "automorphism_group"),
    ("covering.lift_covering", "cubequot.covering", "lift_covering"),
    ("covering.deck_group", "cubequot.covering", "deck_group"),
    ("covering.verify_covering", "cubequot.covering", "verify_covering"),
    ("cli.main", "cubequot.cli", "main"),
)


def _count_generate(counts, args, kwargs, result, error):
    if error is not None:
        if type(error).__name__ == "GroupTooLarge":
            counts["cube_symmetry.generate_group.cap_hits"] += 1
    else:
        counts["cube_symmetry.generate_group.elements"] += result.order


def _count_add_generator(counts, args, kwargs, result, error):
    if result:
        counts["perm_groups.add_generator.grew"] += 1


def _count_build_quotient(counts, args, kwargs, result, error):
    if error is None:
        counts["quotient.build_quotient.orbits"] += result.vertex_count
        # the orbit sweep applies every element of K to each representative
        counts["quotient.build_quotient.element_applications"] += (
            result.vertex_count * result.group.order
        )


def _count_local_params(counts, args, kwargs, result, error):
    counts["graph_core.local_params.roots"] += args[0].n  # one BFS per vertex


def _count_are_isomorphic(counts, args, kwargs, result, error):
    counts["iso_aut.are_isomorphic.vertices"] += args[0].n


def _count_automorphism_group(counts, args, kwargs, result, error):
    if error is None:
        counts["iso_aut.automorphism_group.generators"] += len(result.generators)


COUNTERS = {
    "cube_symmetry.generate_group": _count_generate,
    "perm_groups.add_generator": _count_add_generator,
    "quotient.build_quotient": _count_build_quotient,
    "graph_core.local_params": _count_local_params,
    "iso_aut.are_isomorphic": _count_are_isomorphic,
    "iso_aut.automorphism_group": _count_automorphism_group,
}

# Per-layer metrics: name -> (unit, better).
METRICS: dict[str, tuple[str, str]] = {}


def _metric(name, unit="s", better="lower"):
    METRICS[name] = (unit, better)


for _q in ("calls", "self_s", "elements", "cap_hits"):
    _metric(f"cube_symmetry.generate_group.{_q}", "s" if _q == "self_s" else "count")
for _f in ("normalizer", "min_distance"):
    _metric(f"cube_symmetry.{_f}.calls", "count")
    _metric(f"cube_symmetry.{_f}.self_s")
for _f in ("parse_group", "conjugate_group", "intersect_even"):
    _metric(f"cube_symmetry.{_f}.self_s")
_metric("perm_groups.add_generator.calls", "count")
_metric("perm_groups.add_generator.self_s")
_metric("perm_groups.add_generator.grew_ratio", "ratio", "higher")
for _q in ("calls", "self_s", "element_applications", "orbits"):
    _metric(f"quotient.build_quotient.{_q}", "s" if _q == "self_s" else "count")
_metric("quotient.sphere.calls", "count")
_metric("quotient.sphere.self_s")
for _q in ("calls", "self_s", "roots"):
    _metric(f"graph_core.local_params.{_q}", "s" if _q == "self_s" else "count")
_metric("graph_core.bfs_level_masks.calls", "count")
_metric("graph_core.bfs_level_masks.self_s")
for _f in (
    "halved_graphs", "distance2_graph", "bipartite_parts", "is_locally",
    "is_rectagraph", "SimpleGraph", "to_json",
):
    _metric(f"graph_core.{_f}.self_s")
for _q in ("calls", "self_s", "vertices"):
    _metric(f"iso_aut.are_isomorphic.{_q}", "s" if _q == "self_s" else "count")
for _q in ("calls", "self_s", "generators"):
    _metric(f"iso_aut.automorphism_group.{_q}", "s" if _q == "self_s" else "count")
for _f in ("lift_covering", "deck_group", "verify_covering"):
    _metric(f"covering.{_f}.self_s")
for _cid in VERIFY_CLAIMS:
    _metric(f"verify.claim.{_cid}.s")
_metric("verify.self_s")
_metric("cli.main.calls", "count")
_metric("cli.main.self_s")
_metric("trace.untraced_wall_s")
_metric("trace.traced_wall_s")
_metric("trace.overhead_s")
_metric("trace.unattributed_ratio", "ratio")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------

    def wrap(self, name: str, fn, counter=None):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                span[2] = clock()
                stack.pop()
                if counter is not None:
                    counter(counts, args, kwargs, result, error)

        return wrapper

    @contextmanager
    def span(self, name: str):
        """A span around a block: the benchmark's own root span per job."""
        idx = len(self.spans)
        span = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1]
        self.spans.append(span)
        self.stack.append(idx)
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()

    # -- patching -------------------------------------------------------

    def _replace_everywhere(self, orig, wrapped) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "cubequot" or mod_name.startswith("cubequot.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._restore.append((mod, attr, orig))
                    setattr(mod, attr, wrapped)

    def install(self) -> None:
        import importlib

        for name, module, attr in TARGETS:
            mod = importlib.import_module(module)
            counter = COUNTERS.get(name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, self.wrap(name, orig, counter))
            else:
                orig = getattr(mod, attr)
                self._replace_everywhere(orig, self.wrap(name, orig, counter))
        verify = importlib.import_module("cubequot.verify")
        for cid in VERIFY_CLAIMS:
            claim = verify.CLAIMS[cid]
            wrapped = self.wrap(f"verify.claim.{cid}", claim.runner)
            verify.CLAIMS[cid] = dataclasses.replace(claim, runner=wrapped)
            self._restore.append((verify.CLAIMS, cid, claim))

    def uninstall(self) -> None:
        for target, attr, orig in reversed(self._restore):
            if isinstance(target, dict):
                target[attr] = orig
            else:
                setattr(target, attr, orig)
        self._restore.clear()

    # -- results --------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """calls and self times by span name, plus the counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[idx]
            total_s[name] += end - start
        out: dict[str, float] = {}
        for metric in METRICS:
            prefix, _, quantity = metric.rpartition(".")
            if quantity == "calls":
                out[metric] = calls[prefix]
            elif quantity == "self_s":
                out[metric] = self_s[prefix]
            elif metric.startswith("verify.claim."):
                out[metric] = total_s[prefix]
            else:
                out[metric] = self.counts.get(metric, 0)
        out["verify.self_s"] = sum(v for k, v in self_s.items() if k.startswith("verify.claim."))
        grew = self.counts["perm_groups.add_generator.grew"]
        out["perm_groups.add_generator.grew_ratio"] = grew / max(1, calls["perm_groups.add_generator"])
        out["unattributed_s"] = self_s[ROOT_SPAN]
        return out

    def write(self, path: Path) -> None:
        """One JSON line per span: name, start, end, parent, run id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent, self.run_id]) + "\n")
