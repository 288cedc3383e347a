"""Workload definitions.

A workload is a fixed list of starfact CLI invocations ("ops").  Each op is
a dict with a stable ``id`` (the key of its expected outputs), a ``kind``, an
``argv`` in which a token starting with ``@`` names a file in the pass's work
directory, and the ``outputs`` it writes there.  The seed only shuffles the
atlas order; no expected output depends on it.
"""

from __future__ import annotations

import random
from pathlib import Path

ATLAS_BUDGET = 20000

# workload -> companion workload whose traced pass gives the single-process
# base of search.parallel_efficiency.
PARALLEL_COMPANION = {
    "search-deep-w2": "search-deep",
    "smoke-search-w2": "smoke-search",
}


def _pipeline(p: int) -> list[dict]:
    starter, edges, fact, report = (
        f"starter-p{p}.json",
        f"edges-p{p}.txt",
        f"fact-p{p}.json",
        f"verify-p{p}.json",
    )
    return [
        {
            "id": f"construct-p{p}",
            "kind": "pipeline",
            "argv": ["construct", "--family", "prime-power", "--p", str(p),
                     "--v", "2", "--emit-edges", "@" + edges, "-o", "@" + starter],
            "outputs": [starter, edges],
        },
        {
            "id": f"develop-p{p}",
            "kind": "pipeline",
            "argv": ["develop", "@" + starter, "-o", "@" + fact],
            "outputs": [fact],
        },
        {
            "id": f"verify-factorization-p{p}",
            "kind": "pipeline",
            "argv": ["verify-factorization", "@" + fact, "--invariance",
                     "-o", "@" + report],
            "outputs": [report],
        },
    ]


def _search(group: str, H: str, workers: int) -> list[dict]:
    # The id leaves out the worker count: every worker count must write the
    # same bytes, so they share one expected entry.
    name = f"search-{group}-{H}".replace(",", "_")
    out = name + ".json"
    return [
        {
            "id": name,
            "kind": "search",
            "argv": ["search", "--group", group, "--H", H, "--mode", "first",
                     "--workers", str(workers), "-o", "@" + out],
            "outputs": [out],
        }
    ]


def atlas_pairs(max_order: int) -> list[tuple[int, int]]:
    """Every (m, n) with m, n >= 2, mn even and mn <= max_order."""
    return [
        (m, n)
        for m in range(2, max_order // 2 + 1)
        for n in range(2, max_order // 2 + 1)
        if (m * n) % 2 == 0 and m * n <= max_order
    ]


def _atlas(max_order: int, seed: int) -> list[dict]:
    pairs = atlas_pairs(max_order)
    random.Random(seed).shuffle(pairs)
    ops = []
    for m, n in pairs:
        out = f"certify-{m}x{n}.json"
        ops.append(
            {
                "id": f"certify-{m}x{n}",
                "kind": "certify",
                "mn": [m, n],
                "argv": ["certify-nonexist", "--m", str(m), "--n", str(n),
                         "--budget", str(ATLAS_BUDGET), "-o", "@" + out],
                "outputs": [out],
            }
        )
    return ops


_WORKLOADS = {
    "pipeline-p17": lambda seed: _pipeline(17),
    "search-deep": lambda seed: _search("2,3,5", "1,1,0", 1),
    "search-deep-w2": lambda seed: _search("2,3,5", "1,1,0", 2),
    "atlas": lambda seed: _atlas(36, seed),
    # Smoke sizes of the four above, for the benchmark's own tests.
    "smoke-pipeline": lambda seed: _pipeline(5),
    "smoke-search": lambda seed: _search("2,2,3", "0,0,1", 1),
    "smoke-search-w2": lambda seed: _search("2,2,3", "0,0,1", 2),
    "smoke-atlas": lambda seed: _atlas(12, seed),
}

NAMES = tuple(_WORKLOADS)


def ops_for(workload: str, seed: int) -> list[dict]:
    if workload not in _WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; choose from {', '.join(NAMES)}")
    return _WORKLOADS[workload](seed)


def resolve_argv(op: dict, work: Path) -> list[str]:
    return [str(work / tok[1:]) if tok.startswith("@") else tok for tok in op["argv"]]
