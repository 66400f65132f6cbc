"""Record the correctness gate's reference values from the current code.

    python3 bench/record_reference.py

Writes ``bench/reference.json``: the output summary of every workload's
``gate()``. Run it only when a change of behaviour is intended.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    workdir = ROOT / ".bench_work" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        reference = {name: gate.normalize(cls(workloads.GATE_SEED, workdir).gate())
                     for name, cls in workloads.WORKLOADS.items()}
    finally:
        shutil.rmtree(workdir.parent, ignore_errors=True)
    gate.REFERENCE_FILE.write_text(json.dumps(reference, sort_keys=True, separators=(",", ":")) + "\n",
                                   encoding="utf-8")
    print(f"wrote {gate.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
