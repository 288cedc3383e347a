"""starfact benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and measures the ``src/starfact``
found there.  Each workload is a fixed list of ``starfact`` CLI invocations
(see workloads.py), called in-process through ``starfact.cli.main``.  Every
pass runs in a fresh interpreter (one_pass.py), so nothing cached carries
from one pass to the next; caches may warm within a pass, as in a library
user's sweep.  Passes repeat while another one fits in ``--seconds``.

Every op of every pass is checked: its exit code and the sha256 of each
artifact must match expected.json (recorded at the seed commit by
record.py), and an atlas status must not contradict ``classify_existence``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates plain
and traced passes and reports the per-layer metrics (tracer.py), including
the tracing overhead.  The last stdout line is the result object; the line
before it is a JSON report with the run's stamp, samples and quartiles.  The
report and the spans are also written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import COUNTS, TRACED  # noqa: E402

WORK = ROOT / ".perfbench_work" / str(os.getpid())  # one per run, so runs never collide
OUT = ROOT / ".perfbench_out"
EXPECTED = HERE / "expected.json"
# A run must end within 180 s; stop starting passes well before that.
DEADLINE_S = 170.0
# Set-up takes about 0.1 s, so extra set-up-only passes steady its median.
SETUP_PROBES = 5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "decided_frac": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for mod, fn in TRACED:
        units[f"{mod}.{fn}.calls"] = "count"
        units[f"{mod}.{fn}.self_s"] = "s"
    units.update({key: "count" for key in COUNTS})
    units["search.nodes_per_s"] = "1/s"
    units["search.parallel_efficiency"] = "ratio"
    units["search.w1_search_s"] = "s"
    units["search.w2_search_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


class BenchError(RuntimeError):
    pass


def run_pass(workload: str, seed: int, mode: str, tag: str, deadline: float) -> dict:
    """One pass in a fresh interpreter (mode plain, traced or setup); returns
    its result plus parent-side elapsed seconds."""
    out = WORK / f"{tag}.json"
    spec = {"workload": workload, "seed": seed, "mode": mode,
            "work": str(WORK / tag), "out": str(out)}
    t = time.monotonic()
    # In a process group of its own, so a timed-out pass dies with its workers.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "one_pass.py"), json.dumps(spec)],
        cwd=ROOT, start_new_session=True,
    )
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if code != 0:
        raise BenchError(f"pass of {workload} exited with code {code}")
    result = json.loads(out.read_text())
    result["elapsed_s"] = time.monotonic() - t
    shutil.rmtree(WORK / tag, ignore_errors=True)
    return result


def measure(workload: str, seed: int, seconds: int, first: list, repeat: list) -> dict:
    """Run SETUP_PROBES set-up-only passes and the passes named in `first`,
    then whole cycles of `repeat` while another cycle fits in `seconds`.  An
    entry is (kind, workload, mode); results are grouped by kind."""
    deadline = time.monotonic() + DEADLINE_S
    runs: dict[str, list[dict]] = {}

    def do(kind, wl, mode):
        tag = f"{kind}-{len(runs.get(kind, []))}"
        runs.setdefault(kind, []).append(run_pass(wl, seed, mode, tag, deadline))

    for _ in range(SETUP_PROBES):
        do("setup", workload, "setup")
    stop = min(time.monotonic() + seconds, deadline - 10)
    for entry in first:
        do(*entry)
    while True:
        cycle = sum(statistics.median(r["elapsed_s"] for r in runs[k]) for k, _, _ in repeat)
        if time.monotonic() + cycle > stop:
            break
        for entry in repeat:
            do(*entry)
    return runs


def check_op(rec: dict, expected: dict) -> list[str]:
    """Problems with one op's record; empty when it is right."""
    want = expected.get(rec["id"])
    if want is None:
        return [f"{rec['id']}: no expected output recorded"]
    problems = []
    if rec["exit"] != want["exit"]:
        problems.append(f"{rec['id']}: exit {rec['exit']}, expected {want['exit']}")
    for name, digest in want["sha256"].items():
        if rec["sha256"].get(name) != digest:
            problems.append(f"{rec['id']}: {name} differs from the recorded output")
    # classify_existence and certification must never contradict each other.
    if rec.get("classified") == "exists" and rec.get("status") == "certified":
        problems.append(f"{rec['id']}: certified nonexistence where a rule says exists")
    if rec.get("classified") == "not_exists" and rec.get("status") == "witness":
        problems.append(f"{rec['id']}: witness where a rule says not_exists")
    return problems


def is_decided(rec: dict) -> bool:
    if "status" in rec:
        return rec["status"] in ("certified", "witness", "found", "none_exists")
    return rec["exit"] == 0


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def end_to_end(runs: dict) -> dict:
    plain = runs["plain"]
    ops = [rec for r in plain for rec in r["ops"]]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in plain + runs["setup"]),
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "peak_rss_mb": statistics.median(r["maxrss_kb"] / 1024 for r in plain),
        "ok_frac": sum(not rec["problems"] for rec in ops) / len(ops),
        "decided_frac": sum(is_decided(rec) for rec in ops) / len(ops),
    }


def per_layer(runs: dict) -> dict:
    def med(fn):
        return statistics.median(fn(r) for r in runs["traced"])

    out = {}
    for mod, fn in TRACED:
        key = f"{mod}.{fn}"
        out[key + ".calls"] = med(lambda r: r["trace"]["functions"][key]["calls"])
        out[key + ".self_s"] = med(lambda r: r["trace"]["functions"][key]["self_s"])
    for key in COUNTS:
        out[key] = med(lambda r: r["trace"]["counts"][key])

    def nodes_per_s(r):
        self_s = r["trace"]["functions"]["search.search_starter"]["self_s"]
        return r["trace"]["counts"]["search.nodes"] / self_s if self_s else 0.0

    def search_s(r):
        return r["trace"]["functions"]["search.search_starter"]["total_s"]

    out["search.nodes_per_s"] = med(nodes_per_s)
    w1 = w2 = efficiency = 0.0
    if "companion" in runs:
        w1 = statistics.median(search_s(r) for r in runs["companion"])
        w2 = med(search_s)
        efficiency = w1 / (2 * w2)
    out["search.parallel_efficiency"] = efficiency
    out["search.w1_search_s"] = w1
    out["search.w2_search_s"] = w2
    out["trace.overhead_s"] = med(lambda r: r["wall_s"]) - statistics.median(
        r["wall_s"] for r in runs["plain"]
    )
    return out


def git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "--no-optional-locks", "-C", str(ROOT), *args],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else None


def stamp() -> dict:
    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if sha else None
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so a stopped run still kills its pass.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "starfact" / "cli.py").is_file():
        print(f"no starfact sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    expected = json.loads(EXPECTED.read_text())["ops"]
    info = stamp()
    info["loadavg_start"] = os.getloadavg()

    plain = ("plain", args.workload, "plain")
    traced = ("traced", args.workload, "traced")
    companion = workloads.PARALLEL_COMPANION.get(args.workload)
    if args.trace:
        first = [plain, traced] + ([("companion", companion, "traced")] if companion else [])
        repeat = [plain, traced]
    else:
        first = repeat = [plain]

    WORK.mkdir(parents=True, exist_ok=True)
    try:
        runs = measure(args.workload, args.seed, args.seconds, first, repeat)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    info["loadavg_end"] = os.getloadavg()

    attempted = failed = 0
    problems = []
    for passes in runs.values():
        for r in passes:
            for rec in r.get("ops", []):
                rec["problems"] = check_op(rec, expected)
                attempted += 1
                failed += bool(rec["problems"])
                problems += rec["problems"]

    if args.trace:
        values = per_layer(runs)
        units = per_layer_units()
    else:
        values = end_to_end(runs)
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    walls = [r["wall_s"] for r in runs["plain"]]
    q1, q3 = quartiles(walls)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "stamp": info,
        "passes": {kind: len(passes) for kind, passes in runs.items()},
        "wall_s": {"samples": walls, "n": len(walls), "median": statistics.median(walls),
                   "q1": q1, "q3": q3},
        "setup_s_samples": [r["setup_s"] for r in runs["setup"] + runs["plain"]],
        "problems": problems[:20],
    }
    if args.trace:
        report["note"] = ("spans inside --workers child processes are not recorded;"
                          " search.*_search_s are inclusive search_starter times")
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n")
    if args.trace:
        spans = {kind: [r["spans"] for r in passes if "spans" in r] for kind, passes in runs.items()}
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans))

    print(f"starfact benchmark  workload={args.workload} seed={args.seed}"
          f" trace={args.trace} passes={report['passes']}")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:>16.6g} {m['unit']}")
    print(f"  wall_s over {len(walls)} plain passes: median {report['wall_s']['median']:.4f}"
          f" s, q1 {q1:.4f} s, q3 {q3:.4f} s")
    for line in problems[:20]:
        print(f"  FAILED {line}")
    if args.trace:
        print(f"  note: {report['note']}")
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
