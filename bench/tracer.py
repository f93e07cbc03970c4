"""Spans around the public functions of each hfree module.

``Tracer.install`` replaces module attributes with wrappers, including the
names other modules imported (``hfree.solve.find_induced_copy`` is
``hfree.graphs.find_induced_copy`` under another name), and ``uninstall``
puts the originals back.  Each span records its name, start, end, parent
span, the operation and round it belongs to, and work counts taken from
the return value.  Spans stay in memory until ``write``.
"""
from __future__ import annotations

import functools
import importlib
import json
import statistics
from time import perf_counter

MODULES = (
    "hfree",
    "hfree.graphs",
    "hfree.formats",
    "hfree.smallgraphs",
    "hfree.problems",
    "hfree.classify",
    "hfree.reductions",
    "hfree.solve",
    "hfree.verify",
)
_CALLERS = ("hfree.solve", "hfree.reductions", "hfree.verify")

# span name -> (layer group, modules whose attribute is wrapped; None for
# every module that holds the function)
TRACED = {
    "find_induced_copy": ("search", _CALLERS),
    "find_induced_embedding": ("search", _CALLERS),
    "is_induced_copy_free": ("search", _CALLERS),
    "are_isomorphic": ("iso", None),
    "isomorphism_extending": ("iso", None),
    "graphs_with_vertex_count": ("enum", None),
    "apply_step": ("apply", None),
    "construct_nonadj": ("construct", None),
    "construct_adj": ("construct", None),
    "construct_tdiamond": ("construct", None),
    "replay_chain": ("replay", None),
    "solve_branching": ("branch", None),
    "solve_bruteforce": ("brute", None),
    "check_witness": ("witness", None),
    "verify_equivalence": ("verify", None),
    "classify": ("classify", None),
    "editing_churn": ("churn", None),
    "deletion_churn": ("churn", None),
    "instance_from_obj": ("formats", None),
    "graph_from_obj": ("formats", None),
    "parse_graph6": ("formats", None),
    "serialize_graph6": ("formats", None),
}

# (metric, unit); every traced run reports all of them, 0 where a workload
# never reaches the layer.
METRICS = (
    ("graphs.search_calls", "count"),
    ("graphs.search_s", "s"),
    ("graphs.iso_calls", "count"),
    ("graphs.iso_s", "s"),
    ("smallgraphs.enum_s", "s"),
    ("smallgraphs.graphs", "count"),
    ("reductions.apply_calls", "count"),
    ("reductions.apply_s", "s"),
    ("reductions.construct_s", "s"),
    ("reductions.target_n_max", "count"),
    ("reductions.target_m_sum", "count"),
    ("reductions.replay_s", "s"),
    ("solve.branch_calls", "count"),
    ("solve.branch_s", "s"),
    ("solve.branch_nodes", "count"),
    ("solve.branch_nodes_per_s", "1/s"),
    ("solve.brute_calls", "count"),
    ("solve.brute_s", "s"),
    ("solve.brute_nodes", "count"),
    ("solve.witness_s", "s"),
    ("verify.campaigns", "count"),
    ("verify.instances", "count"),
    ("verify.self_s", "s"),
    ("classify.calls", "count"),
    ("classify.s", "s"),
    ("classify.churn_s", "s"),
    ("formats.s", "s"),
)
COUNTS = tuple(name for name, unit in METRICS if unit == "count")

# fields of a span record
NAME, START, END, PARENT, OP, ROUND, EXTRA = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self.round = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = {name: importlib.import_module(name) for name in MODULES}
        home = {}
        for span, (_, where) in TRACED.items():
            for mod_name in where or MODULES:
                fn = getattr(modules[mod_name], span, None)
                if fn is None:
                    continue
                if span not in home:
                    home[span] = (fn, self._wrap(span, fn))
                original, wrapper = home[span]
                if fn is original:
                    self._saved.append((modules[mod_name], span, fn))
                    setattr(modules[mod_name], span, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, name, fn):
        extra = _EXTRA.get(name)
        spans, stack = self.spans, self._stack
        misses = fn.cache_info if name == "graphs_with_vertex_count" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, self.round, None]
            stack.append(len(spans))
            spans.append(span)
            before = misses().misses if misses else 0
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if misses:
                # a level is built only by a call that missed the cache
                if misses().misses > before:
                    span[EXTRA] = {"graphs": len(result)}
            elif extra is not None:
                span[EXTRA] = extra(result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


_EXTRA = {
    "solve_branching": lambda r: {"nodes": r.stats.nodes},
    "solve_bruteforce": lambda r: {"nodes": r.stats.nodes},
    "apply_step": lambda r: {"n": r.g.n, "m": r.g.m},
    "verify_equivalence": lambda r: {"instances": r["instances"]},
}


def round_metrics(spans: list[list]) -> dict[int, dict[str, float]]:
    """Per-layer figures of every round, from all spans of a run.

    Nested spans of one group (construct_adj calling construct_nonadj,
    graph_from_obj calling parse_graph6) count once, through the outer
    span.  verify.self_s is verify_equivalence's time minus its direct
    child spans.
    """
    group = [TRACED[s[NAME]][0] for s in spans]
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
    rounds: dict[int, dict[str, float]] = {}
    for i, s in enumerate(spans):
        m = rounds.setdefault(s[ROUND], dict.fromkeys((n for n, _ in METRICS), 0))
        g, d, x = group[i], dur[i], s[EXTRA] or {}
        outer = s[PARENT] < 0 or group[s[PARENT]] != g
        if g == "search":
            m["graphs.search_calls"] += 1
            m["graphs.search_s"] += d
        elif g == "iso":
            m["graphs.iso_calls"] += 1
            m["graphs.iso_s"] += d
        elif g == "enum" and "graphs" in x:
            m["smallgraphs.graphs"] += x["graphs"]
            if outer:
                m["smallgraphs.enum_s"] += d
        elif g == "apply":
            m["reductions.apply_calls"] += 1
            m["reductions.apply_s"] += d
            if "n" in x:
                m["reductions.target_n_max"] = max(m["reductions.target_n_max"], x["n"])
                m["reductions.target_m_sum"] += x["m"]
        elif g == "construct" and outer:
            m["reductions.construct_s"] += d
        elif g == "replay":
            m["reductions.replay_s"] += d
        elif g == "branch":
            m["solve.branch_calls"] += 1
            m["solve.branch_s"] += d
            m["solve.branch_nodes"] += x.get("nodes", 0)
        elif g == "brute":
            m["solve.brute_calls"] += 1
            m["solve.brute_s"] += d
            m["solve.brute_nodes"] += x.get("nodes", 0)
        elif g == "witness":
            m["solve.witness_s"] += d
        elif g == "verify":
            m["verify.campaigns"] += 1
            m["verify.instances"] += x.get("instances", 0)
            m["verify.self_s"] += d - child[i]
        elif g == "classify":
            m["classify.calls"] += 1
            m["classify.s"] += d
        elif g == "churn" and outer:
            m["classify.churn_s"] += d
        elif g == "formats" and outer:
            m["formats.s"] += d
    for m in rounds.values():
        if m["solve.branch_s"] > 0:
            m["solve.branch_nodes_per_s"] = m["solve.branch_nodes"] / m["solve.branch_s"]
    return rounds


def summarize(rounds: dict[int, dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """One figure per metric: the count of a round, which must be the same
    in every round, or the median over rounds of a time or rate."""
    errors = []
    per = list(rounds.values())
    out = {}
    for name, unit in METRICS:
        values = [m[name] for m in per]
        if name in COUNTS:
            if len(set(values)) > 1:
                errors.append(f"{name} differs between traced rounds: {values}")
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    return out, errors
