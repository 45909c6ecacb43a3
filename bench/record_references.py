"""Record the reference outputs of every request in the workload pools.

    python3 bench/record_references.py [workload ...]

Runs each request once, in-process, and stores its exit code and a digest
of its stdout in bench/references.json, for the named workloads (all of
them by default).  Requests that already have a reference keep it, and
requests no longer in any pool are dropped; delete the file to record
everything afresh.  The committed references come from the
program as it was when the benchmark was defined; re-record only when a
change is meant to alter CLI output, and say so in that change.  Progress
lines (exit code, seconds, request) go to stderr.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from worker import execute  # noqa: E402

from riordan_graphs.cli import run  # noqa: E402

REFERENCES = HERE / "references.json"
DIGEST_CHARS = 32


def main(argv: list[str]) -> int:
    names = argv or list(workloads.WORKLOADS)
    refs = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    for name in names:
        old = refs.get(name, {})
        section = {}
        for request in workloads.requests(name):
            key = workloads.request_key(request)
            if key in old:
                section[key] = old[key]
                continue
            result = execute(run, request, timeout=600)
            if result["error"] is not None:
                raise SystemExit(f"{request}: {result['error']}")
            section[key] = [result["rc"], result["sha256"][:DIGEST_CHARS]]
            print(f"{result['rc']} {result['seconds']:.4f} {key}", file=sys.stderr, flush=True)
        refs[name] = section
        REFERENCES.write_text(json.dumps(refs, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
