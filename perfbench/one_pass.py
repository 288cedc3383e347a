"""One measured pass of a workload, in a fresh interpreter.

    python3 perfbench/one_pass.py '<json spec>'

The spec gives workload, seed, mode, work (the directory the ops write to)
and out (where this pass writes its result JSON).  Mode is "plain",
"traced", or "setup", which stops where the first op would start.  setup_s
runs from the first line below, before starfact is imported, to the first
op.  Checking happens in run.py; this file only records what the ops did.
"""

import time

_T0 = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import starfact.cli  # noqa: E402  (the package imports every other module)
from starfact.constructions import classify_existence  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main(spec: dict) -> dict:
    work = Path(spec["work"])
    work.mkdir(parents=True, exist_ok=True)
    ops = workloads.ops_for(spec["workload"], spec["seed"])
    argvs = [workloads.resolve_argv(op, work) for op in ops]
    tracer = Tracer() if spec["mode"] == "traced" else None
    if tracer:
        tracer.install()

    first = time.perf_counter()
    if spec["mode"] == "setup":
        return {"setup_s": first - _T0}
    seconds, codes = [], []
    for op, argv in zip(ops, argvs):
        if tracer:
            tracer.op = op["id"]
        t = time.perf_counter()
        try:
            code = starfact.cli.main(argv)
        except SystemExit as exc:  # argparse exits on usage errors
            code = exc.code
        except Exception:  # a crash fails this op; the pass goes on
            traceback.print_exc()
            code = None
        seconds.append(time.perf_counter() - t)
        codes.append(code)
    wall = time.perf_counter() - first

    if tracer:
        tracer.uninstall()
    rss_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    records = []
    for op, code, secs in zip(ops, codes, seconds):
        rec = {"id": op["id"], "exit": code, "seconds": secs, "sha256": {}}
        for name in op["outputs"]:
            path = work / name
            rec["sha256"][name] = _sha256(path) if path.is_file() else None
        if op["kind"] in ("search", "certify") and rec["sha256"][op["outputs"][0]]:
            out = json.loads((work / op["outputs"][0]).read_text())
            rec["status"] = out.get("status")
        if op["kind"] == "certify":
            rec["classified"] = classify_existence(*op["mn"]).status
        records.append(rec)

    result = {
        "setup_s": first - _T0,
        "wall_s": wall,
        "maxrss_kb": max(rss_self, rss_children),
        "ops": records,
    }
    if tracer:
        result["trace"] = tracer.summary()
        result["spans"] = tracer.spans
    return result


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    Path(spec["out"]).write_text(json.dumps(main(spec)))
