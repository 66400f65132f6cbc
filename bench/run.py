"""nettom benchmark: one workload per process, in-process calls, jobs=1.

Run from the repository root:

    python3 bench/run.py --workload tournament --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py`` and BENCHMARK.json): ``tournament``,
``dataset`` and ``metric``. Every input is generated from ``--seed``.

``--trace 0`` runs rounds of fresh inputs back to back in a closed loop
until ``--seconds`` of round time have passed, checking every round's
outputs, then runs the correctness gate against ``reference.json``. The
workload is set up several times, spread over the run; ``setup_s`` is the
median and ``items_per_s`` the median round.

``--trace 1`` runs a fixed number of rounds three times: untraced, then
traced twice with spans around the layers named in ``layers.json``. It
checks that tracing changes no output and that every count repeats, and
reports the per-layer metrics and the tracing overhead.

Output: an info line (environment, workload-level rates by name), then as
the last line one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. The exit code is 0 when every check passed, 1 otherwise,
and 2 when the nettom sources are not found.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARK_FILE = ROOT / "BENCHMARK.json"
SETUP_REPEATS = 5
# Rounds per traced pass: enough work for stable self times, fixed so that
# counts can repeat exactly.
TRACE_ROUNDS = {"tournament": 1, "dataset": 2, "metric": 8}


def _cap_blas_threads() -> int:
    """Cap BLAS and OpenMP threads at the CPU count; numpy is not loaded yet."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))
    return nproc


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _machine_loop_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast this machine runs
    right now. Shared hosts drift by tens of percent over minutes; the
    value lets a reader tell that drift from a change in the program."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, attempted: int, failures: list[str]) -> None:
        self.attempted += attempted
        self.failed += min(len(failures), max(attempted, 1))
        self.messages.extend(failures[: 20 - len(self.messages)])


def measure(workloads, gate, name: str, seed: int, seconds: float, workdir: Path):
    tally = Tally()
    setups = []

    def set_up():
        start = time.perf_counter()
        fresh = workloads.WORKLOADS[name](seed, workdir)
        setups.append(time.perf_counter() - start)
        return fresh

    wl = set_up()
    rounds = []
    elapsed = 0.0
    r = 0
    while elapsed < seconds:
        # Set up again at evenly spaced points of the run: the host's speed
        # drifts, and one burst of set-ups would sample a single moment.
        if len(setups) < SETUP_REPEATS and elapsed >= len(setups) * seconds / SETUP_REPEATS:
            wl = set_up()
        inp = wl.inputs(r)
        try:
            rnd = wl.run(inp)
        except Exception as exc:  # a crash in the program is a failed round
            tally.add(1, [f"round {r}: {type(exc).__name__}: {exc}"])
            break
        elapsed += rnd.seconds
        tally.add(rnd.ops, wl.check(inp, rnd))
        rnd.outputs = None  # checked; keep memory flat however long the run
        rounds.append(rnd)
        r += 1
    while len(setups) < SETUP_REPEATS:
        wl = set_up()
    peak = _peak_rss_mb()
    leaves, bad = gate.check_gate(name, wl.gate())
    tally.add(leaves, bad)
    items = sum(x.items for x in rounds)
    # The median round is robust to a slow spell of the host during a run.
    round_rates = [x.items / x.seconds for x in rounds]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak, "MB"),
        "items_per_s": (statistics.median(round_rates) if rounds else 0.0, "1/s"),
    }
    details = wl.report(rounds) if rounds else {}
    details["error_rate"] = (tally.failed / max(tally.attempted, 1), "failed/attempted")
    run = {"rounds": len(rounds), "measured_s": elapsed, "items": items,
           "items_per_s_pooled": items / elapsed if rounds else 0.0,
           "round_s": [x.seconds for x in rounds], "round_items": [x.items for x in rounds],
           "setup_runs_s": setups}
    return tally, metrics, details, run


def traced(workloads, gate, tracer_mod, name: str, seed: int, workdir: Path):
    tally = Tally()
    layers = tracer_mod.load_layers()
    n_rounds = TRACE_ROUNDS[name]

    def one_pass(tracer=None):
        start = time.perf_counter()
        kept = []
        with tracer.installed(layers) if tracer else contextlib.nullcontext():
            wl = workloads.WORKLOADS[name](seed, workdir)
            for r in range(n_rounds):
                inp = wl.inputs(r)
                kept.append((inp, wl.run(inp)))
        wall = time.perf_counter() - start
        for inp, rnd in kept:
            tally.add(rnd.ops, wl.check(inp, rnd))
        return wall, [rnd.outputs for _, rnd in kept], wl

    wall_a, out_a, wl = one_pass()
    first, second = tracer_mod.Tracer(), tracer_mod.Tracer()
    wall_b, out_b, _ = one_pass(first)
    _, out_c, _ = one_pass(second)
    outputs_differ = [f"traced pass {k} changed the outputs"
                      for k, out in (("1", out_b), ("2", out_c))
                      if gate.normalize(out) != gate.normalize(out_a)]
    tally.add(2, outputs_differ)
    counts_b, counts_c = first.repeatable_counts(), second.repeatable_counts()
    tally.add(len(counts_b), [f"count {k} differs between traced passes: "
                              f"{counts_b.get(k)} vs {counts_c.get(k)}"
                              for k in sorted(set(counts_b) | set(counts_c))
                              if counts_b.get(k) != counts_c.get(k)])
    leaves, bad = gate.check_gate(name, wl.gate())
    tally.add(leaves, bad)
    units = {m["name"]: m["unit"] for m in json.loads(BENCHMARK_FILE.read_text())["per_layer"]}
    values = tracer_mod.layer_metrics(first, units)
    values["trace.overhead_ms"] = 1e3 * (wall_b - wall_a)
    metrics = {k: (v, units[k]) for k, v in values.items() if k in units}
    ranking = sorted(((v, k) for k, v in values.items() if k.endswith(".total_self_ms")),
                     reverse=True)
    details = {"layer_ranking": [k.rpartition(".total_self_ms")[0] for v, k in ranking if v > 0],
               "untraced_s": wall_a, "traced_s": wall_b,
               "unwrapped": sorted(set(first.missing))}
    run = {"rounds": n_rounds, "passes": 3, "measured_s": wall_a}
    return tally, metrics, details, run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = _cap_blas_threads()
    if not (SRC / "nettom" / "__init__.py").is_file() or not BENCHMARK_FILE.is_file():
        print(f"bench: nettom sources or BENCHMARK.json not found under {ROOT}",
              file=sys.stderr)
        return 2
    loop_before = _machine_loop_ms()
    sys.path.insert(0, str(SRC))
    import numpy

    import nettom
    if Path(nettom.__file__).resolve().parent != (SRC / "nettom").resolve():
        print(f"bench: imported nettom from {nettom.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import gate
    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    spec = json.loads(BENCHMARK_FILE.read_text())
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            tally, metrics, details, run = traced(workloads, gate, tracer,
                                                  args.workload, args.seed, workdir)
            wanted = [m["name"] for m in spec["per_layer"]]
        else:
            tally, metrics, details, run = measure(workloads, gate, args.workload,
                                                   args.seed, args.seconds, workdir)
            wanted = [m["name"] for m in spec["end_to_end"]]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    missing = [n for n in wanted if n not in metrics]
    if missing:
        print(f"bench: metrics not produced: {', '.join(missing)}", file=sys.stderr)
        return 1
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, **run,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": nproc, "cpu": _cpu_model(), "commit": _git_commit(),
        "machine_loop_ms": [loop_before, _machine_loop_ms()],
        "workload_metrics": {k: v if not isinstance(v, tuple) else {"value": v[0], "unit": v[1]}
                             for k, v in details.items()},
        "failures": tally.messages,
    }
    print(json.dumps({"info": info}))
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
