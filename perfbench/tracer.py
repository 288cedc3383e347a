"""Spans and counts around starfact's public functions.

The tracer replaces each listed function with a wrapper wherever a
``starfact`` module has bound its name, so calls through ``from .x import f``
and calls inside the defining module are both seen.  A span is
``[name, start, end, parent, op]``; spans stay in memory until the pass ends.
Spans inside ``--workers`` child processes land in the child's copy of the
tracer and are not recorded.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# (module, function) pairs, by the module that defines the function.
TRACED = (
    ("groups", "enumerate_abelian_groups"),
    ("groups", "all_subgroups"),
    ("groups", "subgroups_of_order"),
    ("groups", "subgroup_from_generators"),
    ("cayley", "build_model"),
    ("cayley", "export_edge_list"),
    ("starters", "verify_starter"),
    ("starters", "develop_factorization"),
    ("starters", "verify_factorization"),
    ("starters", "check_invariance"),
    ("constructions", "construct_prime_power"),
    ("search", "search_starter"),
    ("search", "certify_nonexistence"),
    ("serialize", "canonical_json"),
    ("serialize", "starter_payload"),
    ("serialize", "starter_from_payload"),
    ("serialize", "factorization_payload"),
    ("serialize", "factorization_from_payload"),
    ("cli", "main"),
)

COUNTS = (
    "groups.subgroups_listed",
    "search.nodes",
    "search.found",
    "search.none_exists",
    "search.budget_exceeded",
    "starters.factor_edges",
    "serialize.bytes_out",
)


def _count_subgroups(counts, out):
    counts["groups.subgroups_listed"] += len(out)


def _count_search(counts, out):
    counts["search.nodes"] += out.nodes_explored
    counts["search." + out.status] += 1


def _count_factor_edges(counts, out):
    counts["starters.factor_edges"] += sum(len(f) for f in out.factors)


def _count_bytes(counts, out):
    counts["serialize.bytes_out"] += len(out)  # json.dumps output is ASCII


_COUNTERS = {
    "groups.all_subgroups": _count_subgroups,
    "search.search_starter": _count_search,
    "starters.develop_factorization": _count_factor_edges,
    "serialize.canonical_json": _count_bytes,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.op: str | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        count = _COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(counts, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every TRACED function in every loaded starfact module."""
        modules = [
            mod for key, mod in list(sys.modules.items())
            if key == "starfact" or key.startswith("starfact.")
        ]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules["starfact." + mod_name], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    setattr(mod, fn_name, wrapper)
                    self._patched.append((mod, fn_name, original))

    def uninstall(self) -> None:
        for mod, fn_name, original in reversed(self._patched):
            setattr(mod, fn_name, original)
        self._patched.clear()

    def summary(self) -> dict:
        """Per-function calls and self time, per-op span totals, counts."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        functions = {
            f"{m}.{f}": {"calls": 0, "self_s": 0.0, "total_s": 0.0} for m, f in TRACED
        }
        ops: dict[str, dict] = {}
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            self_s = (end - start) - child[i]
            fn = functions[name]
            fn["calls"] += 1
            fn["self_s"] += self_s
            fn["total_s"] += end - start
            per_op = ops.setdefault(op, {"self_s": 0.0, "root_s": 0.0})
            per_op["self_s"] += self_s
            if parent < 0:
                per_op["root_s"] += end - start
        return {
            "functions": functions,
            "ops": ops,
            "counts": {key: self.counts.get(key, 0) for key in COUNTS},
        }
