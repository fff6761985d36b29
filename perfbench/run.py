"""The matchiso benchmark: one seeded workload per run, one process, one
client in a closed loop (the next operation starts when the previous one
returns), single-threaded.

    python3 perfbench/run.py --workload derand --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; matchiso is imported from `src/`
of that checkout and from nowhere else.  Workloads: derand, search,
randomized, corpus (see workloads.py for why each exists).

--trace 0 measures the end-to-end metrics: set-up time (median of several
set-ups, each a fresh import of matchiso, input generation and warm-up),
operations per second and median operation time over at least --seconds of
busy time, and peak RSS.  Times are reported at reference speed, corrected
for the drift of a shared host's speed (reference.py); the raw figures are
printed beside them.  --trace 1 runs the same operations twice, first
untraced and then with spans around each layer's public functions, and
reports per-layer totals; the difference between the two passes is the
tracing overhead.  Every report is checked by an oracle that does not use
matchiso (oracle.py).  The last line of output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import random
import resource
import statistics
import sys
import time
from itertools import chain, islice
from pathlib import Path

sys.dont_write_bytecode = True

from reference import SpeedProbe  # noqa: E402
from tracing import LAYERS, Tracer, metric_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench"

SETUP_REPEATS = 7
PREFETCH = 64  # specs generated during set-up; the rest are drawn between operations
CHUNK_OPS = 12

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


class SetupError(RuntimeError):
    """The checkout does not hold a matchiso source tree to benchmark."""


def fresh_import() -> dict:
    """Import matchiso from src/ as a new process would, dropping any
    modules (and so any caches) left by an earlier import."""
    for name in [k for k in sys.modules if k == "matchiso" or k.startswith("matchiso.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module("matchiso")
    if Path(package.__file__).resolve().parent != SRC / "matchiso":
        raise SetupError(f"matchiso imported from {package.__file__}, not from {SRC}")
    modules = {layer: importlib.import_module(f"matchiso.{layer}") for layer in LAYERS}
    modules["matchiso"] = package
    return modules


def setup(workload, seed: int):
    """Fresh import, the first inputs, and warm-up on a separately seeded
    input set.  Returns (seconds, modules, spec iterator)."""
    start = time.perf_counter()
    modules = fresh_import()
    stream = workload.stream(random.Random(f"{workload.name}:{seed}"))
    prefetched = list(islice(stream, PREFETCH))
    for spec in workload.warmup(random.Random(f"{workload.name}:warm-up")):
        workload.run(modules, spec)
    return time.perf_counter() - start, modules, chain(prefetched, stream)


def timed_pass(workload, modules, specs, seconds: float, probe: SpeedProbe,
               tracer: Tracer | None = None):
    """Run specs one after another until the operations have been busy for
    `seconds`.  Returns (specs run, outcomes, raw seconds per operation,
    reference-speed seconds per operation)."""
    done, outcomes, raw, adjusted = [], [], [], []
    busy = 0.0
    for op, spec in enumerate(specs):
        if tracer is not None:
            tracer.op = op
        outcome, took, took_adjusted = probe.timed(workload.run, modules, spec)
        done.append(spec)
        outcomes.append(outcome)
        raw.append(took)
        adjusted.append(took_adjusted)
        busy += took
        if busy >= seconds:
            break
    return done, outcomes, raw, adjusted


def ops_per_s(times: list[float]) -> float:
    """Median throughput over consecutive chunks of CHUNK_OPS operations
    (a trailing partial chunk is left out unless it is the only one).

    derand has a tail of operations that take 0.2 to 7 s among 20 ms ones;
    a tail operation slows its own chunk, not the figure.  CHUNK_OPS is a
    multiple of the search round (one graph of each of 3 sizes), so every
    search chunk holds the same mix."""
    chunks = [times[i : i + CHUNK_OPS] for i in range(0, len(times) - CHUNK_OPS + 1, CHUNK_OPS)]
    return statistics.median(len(c) / sum(c) for c in chunks or [times])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def cert_weight_bits_max(outcomes) -> int:
    """Bit length of the largest weight in any isolation certificate."""
    best = 0
    for outcome in outcomes:
        if outcome.rc != 0 or not outcome.stdout.startswith('{"verb":"isolate"'):
            continue
        try:
            values = json.loads(outcome.stdout)["result"]["weight"]["values"]
        except (ValueError, KeyError, TypeError):
            continue  # an unreadable report is counted by the oracle
        best = max(best, max((int(v).bit_length() for v in values), default=0))
    return best


def check_all(specs, outcomes) -> list[str]:
    import oracle  # networkx loads only after peak RSS is read

    failures = []
    for op, (spec, outcome) in enumerate(zip(specs, outcomes)):
        try:
            reason = oracle.check(spec, outcome)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            reason = f"unreadable report: {type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append(f"op {op} ({' '.join(spec.argv)}, n={spec.n}): {reason}")
    return failures


def digest(outcomes) -> str:
    import oracle

    h = hashlib.sha256()
    for outcome in outcomes:
        h.update(oracle.digest_text(outcome).encode() + b"\n")
    return h.hexdigest()


def measure(workload, seed: int, seconds: float) -> dict:
    probe = SpeedProbe()
    setups, setups_raw = [], []
    for _ in range(SETUP_REPEATS):
        (_, modules, specs), took, took_adjusted = probe.timed(setup, workload, seed)
        setups_raw.append(took)
        setups.append(took_adjusted)
    done, outcomes, raw, times = timed_pass(workload, modules, specs, seconds, probe)
    rss = peak_rss_mb()
    failures = check_all(done, outcomes)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": ops_per_s(times),
        "op_p50_ms": statistics.median(times) * 1000,
        "peak_rss_mb": rss,
    }
    samples = {"setup_s": len(setups), "ops_per_s": len(times), "op_p50_ms": len(times),
               "peak_rss_mb": 1}
    notes = [
        f"times are at reference speed (reference.py); raw: setup_s {statistics.median(setups_raw):.4f} s, "
        f"ops_per_s {ops_per_s(raw):.4f} ops/s, op_p50_ms {statistics.median(raw) * 1000:.4f} ms",
        f"ops_per_s is the median over chunks of {CHUNK_OPS} consecutive operations; "
        f"overall {len(times) / sum(times):.4f} ops/s, {sum(raw):.3f} s busy",
        "peak_rss_mb is ru_maxrss of this one process",
    ]
    if len(times) >= 100:
        p90 = statistics.quantiles(times, n=10)[8] * 1000
        notes.append(f"op_p90_ms = {p90:.4f} ms (n={len(times)}), not in the JSON result")
    else:
        notes.append(f"op_p90_ms not reported: {len(times)} operations, fewer than 100")
    bits = cert_weight_bits_max(outcomes)
    if bits:
        notes.append(f"cert_weight_bits_max = {bits} bits (n={len(times)}), not in the JSON result")
    return {"metrics": metrics, "units": dict(END_TO_END), "samples": samples, "notes": notes,
            "attempted": len(outcomes), "failures": failures, "digest": digest(outcomes)}


def measure_traced(workload, seed: int, seconds: float, span_path: Path | None) -> dict:
    probe = SpeedProbe()
    _, modules, specs = setup(workload, seed)
    done, plain, _, plain_times = timed_pass(workload, modules, specs, seconds, probe)
    _, modules, _ = setup(workload, seed)
    tracer = Tracer()
    tracer.install(modules)
    try:
        _, traced, traced_raw, traced_times = timed_pass(
            workload, modules, done, float("inf"), probe, tracer)
    finally:
        tracer.uninstall()
    leftovers = tracer.leftover_wrappers()
    if leftovers:
        raise RuntimeError(f"trace wrappers left bound: {leftovers}")
    import oracle

    failures = check_all(done, plain)
    for op, (a, b) in enumerate(zip(plain, traced)):
        if oracle.digest_text(a) != oracle.digest_text(b):
            failures.append(f"op {op}: traced report differs from the untraced one")
    values = tracer.summarize(traced_raw)
    values["trace.overhead_frac"] = 1 - sum(plain_times) / sum(traced_times)
    cache = getattr(modules["faces"], "_tight_odd_masks", None)
    if hasattr(cache, "cache_info"):
        info = cache.cache_info()
        lookups = info.hits + info.misses
        values["faces.tight_cache.hit_ratio"] = info.hits / lookups if lookups else 0.0
    values["cert_weight_bits_max"] = cert_weight_bits_max(plain)
    names = metric_names()
    metrics = {name: values.get(name, 0) for name, _ in names}
    if span_path is not None:
        span_path.parent.mkdir(exist_ok=True)
        tracer.write_spans(span_path)
    notes = [f"{len(done)} operations, each run untraced and then traced",
             f"{len(tracer.spans)} spans" + (f" written to {span_path}" if span_path else "")]
    return {"metrics": metrics, "units": dict(names), "samples": dict.fromkeys(metrics, len(done)),
            "notes": notes, "attempted": len(done), "failures": failures, "digest": digest(plain)}


def run(name: str, seed: int, seconds: float, trace: bool, workload=None, span_path=None) -> dict:
    """Measure one workload; `workload` overrides the default instance of
    that name (the smoke test passes smaller sizes)."""
    if not (SRC / "matchiso" / "__init__.py").is_file():
        raise SetupError(f"no matchiso source tree at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    workload = workload or WORKLOADS[name]()
    if trace:
        return measure_traced(workload, seed, seconds, span_path)
    return measure(workload, seed, seconds)


def result_line(res: dict) -> str:
    return json.dumps({
        "correct": not res["failures"],
        "attempted": res["attempted"],
        "failed": len(res["failures"]),
        "metrics": {k: {"value": v, "unit": res["units"][k]} for k, v in res["metrics"].items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    span_path = SPAN_DIR / f"spans-{args.workload}-{args.seed}.jsonl" if args.trace else None
    try:
        res = run(args.workload, args.seed, args.seconds, bool(args.trace), span_path=span_path)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"workload {args.workload}, seed {args.seed}: closed loop, 1 client, 1 process")
    for name, value in res["metrics"].items():
        print(f"metric {name} = {value:.6g} {res['units'][name]} (n={res['samples'][name]})")
    print(f"metric failed_frac = {len(res['failures'])}/{res['attempted']} failed/attempted "
          f"(n={res['attempted']}), in the JSON result as failed and attempted")
    for note in res["notes"]:
        print(f"note {note}")
    for failure in res["failures"]:
        print(f"FAILED {failure}")
    print(f"digest sha256:{res['digest']} (reports without ms)")
    print(result_line(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
