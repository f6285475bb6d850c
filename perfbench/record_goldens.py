#!/usr/bin/env python3
"""Record the artifact digests the benchmark's correctness gate compares with.

    python3 perfbench/record_goldens.py

Runs `frobmatch experiment` cold, once per curve pair and sieve window
(`fixed:30`, `fixed:100`), and writes perfbench/golden_digests.json.  Run it
only when an artifact is meant to change: the goldens pin the outputs of the
package as it stood when they were recorded.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
from frobmatch import cli  # noqa: E402


def main() -> int:
    goldens: dict[str, dict[str, dict[str, str]]] = {}
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        for i, pair in enumerate(workloads.PAIRS):
            label = workloads.pair_label(pair)
            for z in (workloads.COLD_Z, workloads.WARM_Z):
                run_dir = Path(workdir) / f"{i}-{z}"
                cfg = run_dir / "exp.cfg"
                run_dir.mkdir()
                cfg.write_text(
                    workloads.config_text(pair, z, workloads.nproc(), str(run_dir / "cache"))
                )
                with contextlib.redirect_stdout(sys.stderr):
                    rc = cli.main(["--out", str(run_dir / "out"), "experiment", str(cfg)])
                if rc != 0:
                    print(f"experiment failed for {label} z={z}", file=sys.stderr)
                    return 1
                goldens.setdefault(label, {})[f"fixed{z}"] = gate.artifact_digests(str(run_dir / "out"))
                print(f"recorded {label} fixed:{z}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    gate.GOLDEN_PATH.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
