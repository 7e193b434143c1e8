"""Record the reference outputs the benchmark checks against.

    python3 bench/reference.py > bench/reference.json

Records the SHA-256 of each figure preset's CSV and, for the default seed,
every threshold and every bistable branch's (status, eta, E_N).  The
committed file was recorded from the commit that introduced the benchmark;
re-record it only for an intended change of the outputs, never to make a
failing check pass.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def record() -> dict:
    out_root = ROOT / ".bench_out"
    out_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_root) as tmp:
        out_dir = Path(tmp)
        figures = workloads.make("figures", workloads.DEFAULT_SEED, {"figures": {}}, out_dir)
        digests = {}
        for name in figures.items:
            code, digest = figures.finish(name, figures.run(name))
            if code != 0:
                raise SystemExit(f"{name}: exit code {code}")
            digests[name] = digest
    empty = {"figures": {}, "threshold": None, "bistable": None}
    outputs = {}
    for name in ("threshold", "bistable"):
        wl = workloads.make(name, workloads.DEFAULT_SEED, empty, ROOT)
        outputs[name] = [wl.run(item) for item in wl.items]
    return {"seed": workloads.DEFAULT_SEED, "figures": digests, **outputs}


if __name__ == "__main__":
    json.dump(record(), sys.stdout, separators=(",", ":"))
    sys.stdout.write("\n")
