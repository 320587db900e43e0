"""spposet benchmark: one workload per run, measured in one process.

    python3 perfbench/run.py --workload sweep|generate|documents --seed N \
        --seconds S --trace 0|1 [--quick]
    python3 perfbench/run.py --record      # rewrite expected.json from this checkout

Run from the root of a checkout.  The package is imported from ./src and
driven in-process through its public functions and `spposet.cli.main`, with
stdout captured.  The last stdout line is the result:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics are
the end-to-end ones; with --trace 1 a run measures untraced passes for half the
time and traced passes for the other half, and reports the per-layer metrics
(per pass) and the tracing overhead.  The line before it is the full record:
machine, seed, sample counts, per-kind figures and failures.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

EXPECTED = workloads.BENCH_DIR / "expected.json"
SETUP_REPEATS = 3
CAL_NOMINAL_S = 0.012   # the calibration kernel's CPU time at reference speed
CAL_EVERY_S = 0.2       # CPU seconds of measured work between calibrations
CAL_WINDOW = 9          # calibrations the current speed is the median of


def _kernel(n: int = 10000) -> int:
    """Fixed pure-Python work shaped like the package's: bitmask loops, tuples, dicts."""
    ups = [(1 << (i % 13)) | 1 << (i % 5) | 1 for i in range(64)]
    acc, seen = 0, {}
    for i in range(n):
        m = ups[i & 63] | ups[(i * 7) & 63]
        while m:
            low = m & -m
            acc += low.bit_length()
            m ^= low
        key = (i & 255, acc & 1023)
        seen[key] = seen.get(key, 0) + 1
    return acc + len(seen)


class Clock:
    """CPU time of this process, scaled to a reference machine speed.

    The machine is shared, and its speed drifts by tens of percent over
    minutes.  A fixed kernel is timed between operations; an operation's CPU
    time is multiplied by CAL_NOMINAL_S over the median of the last
    CAL_WINDOW kernel times.  A change in the package moves the scaled times;
    a change in the machine's speed moves the kernel as well and cancels out.
    """

    def __init__(self):
        self.cal: list[float] = []
        self.since = 0.0
        self.calibrate()

    def calibrate(self):
        t0 = time.process_time()
        _kernel()
        self.cal = (self.cal + [time.process_time() - t0])[-CAL_WINDOW:]
        self.since = 0.0

    def scale(self) -> float:
        return CAL_NOMINAL_S / statistics.median(self.cal)

    def time(self, fn):
        """(result, exception or None, scaled CPU seconds) of one call."""
        if self.since >= CAL_EVERY_S:
            self.calibrate()
        t0 = time.process_time()
        try:
            out, err = fn(), None
        except Exception as exc:  # a bug in the package: the caller records it
            out, err = None, exc
        dt = time.process_time() - t0
        self.since += dt
        return out, err, dt * self.scale()


def load_expected() -> dict:
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


def purge_package():
    for name in [k for k in sys.modules if k == "spposet" or k.startswith("spposet.")]:
        del sys.modules[name]


def setup(name: str, seed: int, quick: bool, expected: dict, workdir: Path):
    """Import the package and build the workload's inputs SETUP_REPEATS times.

    Returns the median set-up time and the workload built last.
    """
    clock = Clock()
    times, wl = [], None

    def build():
        purge_package()
        sp = workloads.import_package()
        args = (sp, seed, quick, expected) + ((workdir,) if name == "documents" else ())
        return workloads.WORKLOADS[name](*args)

    for _ in range(SETUP_REPEATS):
        clock.calibrate()
        wl, err, dt = clock.time(build)
        if err is not None:
            raise err
        times.append(dt)
    return statistics.median(times), wl


class Phase:
    """Samples of one measuring phase: whole passes, every operation timed."""

    def __init__(self):
        self.samples: list[tuple[str, float, int]] = []  # (kind, seconds, work done)
        self.pass_times: list[float] = []
        self.pass_work: list[int] = []
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, wl, rng, seconds: float, min_passes: int):
        """Whole passes until `seconds` of wall time would be exceeded."""
        start = time.perf_counter()
        clock = Clock()
        while True:
            gc.collect()  # every pass starts from the same collector state
            pass_time, pass_work = 0.0, 0
            for op in wl.pass_ops(rng):
                out, err, dt = clock.time(op.call)
                pass_time += dt
                self.attempted += 1
                try:
                    ok = err is None and op.check(out)
                except Exception as exc:  # noqa: BLE001 - an unreadable output is a failure
                    ok, err = False, exc
                if not ok:
                    detail = f": {type(err).__name__}: {err}" if err else ""
                    self.failures.append(op.key + detail)
                self.samples.append((op.kind, dt, op.work if ok else 0))
                pass_work += op.work if ok else 0
            self.pass_times.append(pass_time)
            self.pass_work.append(pass_work)
            elapsed = time.perf_counter() - start
            if len(self.pass_times) >= min_passes and elapsed * (1 + 1 / len(self.pass_times)) > seconds:
                return self

    def work_per_s(self) -> float:
        """Median over passes of the work a pass did per second it took."""
        return statistics.median(w / t for w, t in zip(self.pass_work, self.pass_times))


def quantiles_ms(times: list[float]) -> tuple[float, float]:
    """Median and 95th percentile in ms (exclusive method, as statistics.quantiles)."""
    if len(times) == 1:
        return times[0] * 1e3, times[0] * 1e3
    q = statistics.quantiles(times, n=20)
    return statistics.median(times) * 1e3, q[18] * 1e3


def summarize(samples) -> dict:
    times = [t for _, t, _ in samples]
    work = sum(w for _, _, w in samples)
    p50, p95 = quantiles_ms(times)
    return {"ops": len(samples), "work": work, "seconds": sum(times),
            "work_per_s": work / sum(times), "ms_p50": p50, "ms_p95": p95,
            "beyond_p95": sum(1 for t in times if t * 1e3 > p95)}


def named_metrics(workload: str, total: dict, kinds: dict) -> dict:
    """Workload-specific figures under their own names, for the record."""
    if workload == "sweep":
        return {"sweep_posets_per_s": total["work_per_s"]}
    if workload == "generate":
        return {"classes_per_s": kinds["classes"]["work_per_s"],
                "iso_checks_per_s": kinds["iso"]["work_per_s"],
                "stream_tables_per_s": kinds["stream"]["work_per_s"]}
    return {"request_ms_p50": total["ms_p50"], "request_ms_p95": total["ms_p95"],
            "requests_per_s": total["work_per_s"],
            "check_ms_p50": kinds.get("judge", {}).get("ms_p50"),
            "compute_ms_p50": kinds.get("compute", {}).get("ms_p50")}


def machine_info() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "implementation": platform.python_implementation()}


def git_commit() -> str | None:
    """HEAD of the checkout's own .git directory, read without starting git; None if absent."""
    git = workloads.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(args, expected: dict, workdir: Path):
    setup_s, wl = setup(args.workload, args.seed, args.quick, expected, workdir)
    rng = random.Random(args.seed * 7919 + 1)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "quick": args.quick, "machine": machine_info(),
              "git_commit": git_commit(), "setup_s": setup_s}
    if not args.trace:
        phase = Phase().run(wl, rng, args.seconds, min_passes=2)
        total = summarize(phase.samples)
        kinds = {k: summarize([s for s in phase.samples if s[0] == k])
                 for k in sorted({s[0] for s in phase.samples})}
        metrics = {
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "work_per_s": (phase.work_per_s(), "1/s"),
            "op_ms_p50": (total["ms_p50"], "ms"),
            "op_ms_p95": (total["ms_p95"], "ms"),
        }
        record.update(samples={"passes": len(phase.pass_times), "pass_s": phase.pass_times,
                               "total": total, "by_kind": kinds},
                      named=named_metrics(args.workload, total, kinds))
        phases = [phase]
    else:
        plain = Phase().run(wl, rng, args.seconds / 2, min_passes=1)
        with tracing.Tracer() as tr:
            traced = Phase().run(wl, rng, args.seconds / 2, min_passes=1)
        passes = len(traced.pass_times)
        metrics = {}
        for name, (calls, self_s) in tr.totals().items():
            metrics[f"{name}.calls"] = (calls / passes, "count")
            metrics[f"{name}.self_s"] = (self_s / passes, "s")
        kept = tr.totals()["enumeration.enumerate_posets"][0]
        keys = tr.calls_under("enumeration.canonical_key", "enumeration.enumerate_posets")
        metrics["enumeration.canonical_key.kept_ratio"] = (kept / keys if keys else 0.0, "ratio")
        metrics["sweep.instance_ratio"] = (wl.instance_ratio() if args.workload == "sweep" else 0.0,
                                           "ratio")
        overhead = statistics.median(traced.pass_times) - statistics.median(plain.pass_times)
        metrics["trace_overhead"] = (overhead, "s")
        record.update(samples={"untraced_pass_s": plain.pass_times, "traced_pass_s": traced.pass_times,
                               "ops": plain.attempted + traced.attempted},
                      spans=tr.edges())
        phases = [plain, traced]
    if args.workload == "documents":
        record["family_shares"] = {f: c / max(1, sum(wl.shares.values())) for f, c in wl.shares.items()}
    attempted = sum(p.attempted for p in phases)
    failures = [f for p in phases for f in p.failures]
    record.update(attempted=attempted, failed=len(failures), failed_ratio=len(failures) / attempted,
                  failures=failures[:20])
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return record, result


def record_expected():
    """Rewrite expected.json from the package in this checkout (all sizes, whole pool)."""
    out = {}
    with tempfile.TemporaryDirectory(prefix="work-", dir=workloads.BENCH_DIR) as tmp:
        sp = workloads.import_package()
        out["sweep"] = workloads.Sweep(sp, 0, False, {}).record()
        out["stream"] = workloads.Generate(sp, 0, False, {}).record()
        out["documents"] = workloads.Documents(sp, 0, False, {}, Path(tmp)).record()
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=0, sort_keys=True, ensure_ascii=False)
        fh.write("\n")
    print(f"wrote {EXPECTED}: " + ", ".join(f"{k} {len(v)}" for k, v in out.items()))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="tiny inputs, for the benchmark's own tests")
    ap.add_argument("--record", action="store_true", help="rewrite expected.json and exit")
    args = ap.parse_args(argv)
    try:
        if args.record:
            record_expected()
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        expected = load_expected()
        with tempfile.TemporaryDirectory(prefix="work-", dir=workloads.BENCH_DIR) as tmp:
            record, result = measure(args, expected, Path(tmp))
    except workloads.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:  # noqa: BLE001 - report, and print no result
        traceback.print_exc()
        return 1
    print(json.dumps(record, ensure_ascii=False))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
