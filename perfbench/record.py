"""Record the expected output of every op.

    python3 perfbench/record.py

Runs one plain pass of every workload, smoke sizes included, and writes
expected.json: each op's exit code and the sha256 of each artifact, with
the git SHA they came from.  Run it only at a commit whose outputs are
known to be right; run.py counts any later difference as a failed op.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import run
import workloads


def main() -> int:
    sha = run.stamp()["git_sha"]
    if sha is None or run.git("status", "--porcelain", "--", "src"):
        sys.exit("record from a git checkout whose src/ has no uncommitted changes")
    ops: dict[str, dict] = {}
    run.WORK.mkdir(parents=True, exist_ok=True)
    try:
        for wl in workloads.NAMES:
            result = run.run_pass(wl, 0, "plain", f"record-{wl}", time.monotonic() + 900)
            for rec in result["ops"]:
                entry = {"exit": rec["exit"], "sha256": rec["sha256"]}
                if None in entry["sha256"].values():
                    sys.exit(f"{rec['id']}: an artifact was not written")
                # One id on two workloads (worker counts) must give equal bytes.
                if ops.setdefault(rec["id"], entry) != entry:
                    sys.exit(f"{rec['id']}: outputs differ between {wl} and an earlier workload")
                problems = run.check_op(rec, ops)
                if problems:
                    sys.exit("\n".join(problems))
                print(f"{wl:16s} {rec['id']:32s} exit {rec['exit']}  {rec.get('status', '')}")
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    payload = {"recorded_at": sha, "ops": ops}
    run.EXPECTED.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
