"""Spans around calls into the program, kept in memory for the traced run.

The program's modules look up the names they import at call time, and the
benchmark calls the program through module attributes, so replacing those
attributes with timing wrappers records every call without changing the
program.  The wrappers are removed when the traced run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns


def patch_points(ts) -> list[tuple[str, object, str]]:
    """(span name, owner, attribute) for every call the traced run times.

    A function imported into several modules is patched in each module that
    calls it on the request path.
    """
    g, ins, ir, mt, orc, tr = (
        ts.graphs, ts.instances, ts.interval_reconfig, ts.matching, ts.oracle, ts.tree_reconfig
    )
    return [
        ("instances.parse_instance", ins, "parse_instance"),
        ("instances.emit_moves", ins, "emit_moves"),
        ("instances.parse_moves", ins, "parse_moves"),
        ("graphs.rooted_tree", g.RootedTree, "__init__"),
        ("graphs.closed_neighborhood_system", tr, "closed_neighborhood_system"),
        ("graphs.ensure_subtrees", g.SetSystem, "ensure_subtrees"),
        ("graphs.is_hitting", g, "is_hitting"),
        ("graphs.is_dominating", g, "is_dominating"),
        ("graphs.distances_from", ir, "distances_from"),
        ("graphs.distances_from", mt, "distances_from"),
        ("intervals.intersection_graph", ins, "intersection_graph"),
        ("intervals.intersection_graph", ir, "intersection_graph"),
        ("matching.min_cost_matching", ir, "min_cost_matching"),
        ("matching.normalize_matching", ir, "normalize_matching"),
        ("tree_reconfig.reconf_tree_dominating", tr, "reconf_tree_dominating"),
        ("interval_reconfig.reconf_interval", ir, "reconf_interval"),
        ("oracle.dominating_predicate", orc, "dominating_predicate"),
        ("oracle.verify_sequence", orc, "verify_sequence"),
    ]


class Tracer:
    """Records (request, span id, parent id, name, start ns, end ns) tuples."""

    def __init__(self):
        self.spans: list[tuple[int, int, int | None, str, int, int]] = []
        self.request = 0
        self._ids = itertools.count()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans.append((self.request, sid, parent, name, start, end))

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def installed(self, points):
        """Replace every patch point with a traced wrapper for the block."""
        saved = []
        try:
            for name, owner, attr in points:
                real = getattr(owner, attr)
                saved.append((owner, attr, real))
                setattr(owner, attr, self.wrap(name, real))
            yield self
        finally:
            for owner, attr, real in reversed(saved):
                setattr(owner, attr, real)

    def per_request(self) -> dict[int, dict[str, list[int]]]:
        """request -> span name -> [inclusive ns, self ns, calls].

        Self time is a span's duration minus the durations of its direct
        children.
        """
        child_ns: dict[int, int] = defaultdict(int)
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out: dict[int, dict[str, list[int]]] = defaultdict(lambda: defaultdict(lambda: [0, 0, 0]))
        for request, sid, _, name, start, end in self.spans:
            agg = out[request][name]
            agg[0] += end - start
            agg[1] += end - start - child_ns[sid]
            agg[2] += 1
        return out

    def write(self, path: Path) -> None:
        """One JSON object per span, in completion order."""
        with path.open("w", encoding="utf-8") as fh:
            for request, sid, parent, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"request": request, "id": sid, "parent": parent, "name": name,
                         "start_ns": start, "end_ns": end}
                    )
                    + "\n"
                )
