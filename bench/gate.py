"""The correctness gate: fixed inputs compared with values recorded once.

``reference.json`` holds, per workload, the output summary of its
``gate()`` at the commit that recorded it. Values are compared by meaning
(parsed numbers and ids, never file bytes), so a change of file format
that keeps the meaning passes. Regenerate the file with
``python3 bench/record_reference.py`` only when a change of behaviour is
intended, and say so in the change's notes.
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE_FILE = Path(__file__).with_name("reference.json")

# Absolute tolerance per output section; sections not listed compare exactly.
TOLERANCE = {
    "samples": 1e-12,      # truth_sr vectors; ids, HVNs and past refs are ints/strings
    "sr_rows": 1e-12,
    "ntd": 1e-12,
    "sinkhorn_value": 1e-9,
    "grad": 1e-9,
}


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


def compare(observed, expected, tol: float, where: str, bad: list[str]) -> int:
    """Compare two summaries leaf by leaf; return the number of leaves and
    append one message per mismatch (floats within ``tol``, the rest exact)."""
    if isinstance(expected, dict):
        if not isinstance(observed, dict) or set(observed) != set(expected):
            bad.append(f"{where}: keys differ")
            return 1
        return sum(compare(observed[k], expected[k], tol, f"{where}.{k}", bad)
                   for k in sorted(expected))
    if isinstance(expected, list):
        if not isinstance(observed, (list, tuple)) or len(observed) != len(expected):
            bad.append(f"{where}: length differs")
            return 1
        return sum(compare(o, e, tol, f"{where}[{i}]", bad)
                   for i, (o, e) in enumerate(zip(observed, expected)))
    if isinstance(expected, float) and not isinstance(observed, bool):
        ok = isinstance(observed, (int, float)) and abs(observed - expected) <= tol
    else:
        ok = observed == expected and type(observed) is type(expected)
    if not ok:
        bad.append(f"{where}: {observed!r} != {expected!r}")
    return 1


def normalize(summary):
    """JSON round trip, so tuples and numpy scalars compare like the file."""
    return json.loads(json.dumps(summary))


def check_gate(workload: str, summary: dict) -> tuple[int, list[str]]:
    expected = load_reference()[workload]
    observed = normalize(summary)
    bad: list[str] = []
    if set(observed) != set(expected):
        return 1, [f"gate {workload}: sections differ"]
    leaves = 0
    for section in sorted(expected):
        leaves += compare(observed[section], expected[section],
                          TOLERANCE.get(section, 0.0), f"gate {workload}.{section}", bad)
    return leaves, bad
