"""airgaplab benchmark: one command, three workloads, every output checked.

    python3 bench/run.py --workload acoustic-exfil --seed 1 --seconds 10 --trace 0

Run it from a source checkout: it imports airgaplab from ``src/`` next to
this directory and exits with code 2, printing no result, if that is
missing.  ``--trace 0`` measures the end-to-end metrics with nothing
wrapped; ``--trace 1`` runs every op once untraced and once traced, and
reports the per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Spans, digests and a full result record go to ``.bench_out/``.  See
README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from measure import Checked, Tally, median, outcome_digest, tail
from spans import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("acoustic-exfil", "lowrate-cliff", "artifact-roundtrip")
SETUP_PROBES = 3  # fresh interpreters per run; setup_s is their median
CLI_PROBES = 3
COVERAGE_OPS = 2  # traced ops of each other workload, for layers this one skips
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SUBPROCESS_TIMEOUT_S = 120
# Self times of one op's spans must add up to its wall time within this.
ACCOUNTING_TOLERANCE_S = 1e-6


def parse_args(argv):
    def seed(text):
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("seed must be non-negative")
        return value

    def seconds(text):
        value = float(text)
        if not value > 0:
            raise argparse.ArgumentTypeError("seconds must be positive")
        return value

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=seed, required=True)
    p.add_argument("--seconds", type=seconds, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def cap_blas_threads(nproc: int) -> None:
    """Keep BLAS pools at most nproc wide; must run before numpy loads."""
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, read by asking it."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        if not path.startswith(os.sep):
            continue
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def git_sha() -> str | None:
    """HEAD commit read from .git, or None outside a git checkout."""
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
    return None


def source_digest(*dirs: Path) -> str:
    """SHA-256 over the Python sources under `dirs`, for checkouts without .git."""
    h = hashlib.sha256()
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(nproc: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "git_sha": git_sha(),
        "src_sha256": source_digest(SRC / "airgaplab"),
        "machine": platform.machine(),
    }


class Run:
    """State of one benchmark invocation: the tally and run-level problems."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.tally = Tally()
        self.problems: list[str] = []
        self._reported_raise = False

    def one_op(self, index: int, tracer: Tracer | None = None, workload=None,
               redecode: bool = False):
        """Make, run and check one op; returns (seconds or None, Checked)."""
        workload = workload or self.workload
        op_id = index if workload is self.workload else f"cover:{workload.name}:{index}"
        inp = workload.make_input(index)
        try:
            start = perf_counter()
            out = workload.run(inp) if tracer is None else tracer.op(op_id, workload.run, inp)
            seconds = perf_counter() - start
        except Exception as exc:  # a raising op is a failed op; the run goes on
            if not self._reported_raise:
                traceback.print_exc(file=sys.stderr)
                self._reported_raise = True
            checked = Checked([f"raised {type(exc).__name__}"], ["raised", type(exc).__name__],
                              0, 1)
            self.tally.record(checked.problems)
            return None, checked
        checked = workload.check(inp, out, index < workload.window, redecode)
        self.tally.record(checked.problems)
        return seconds, checked

    def loop(self, seconds: float, min_ops: int):
        """Closed loop from op 0 for `seconds`, and at least `min_ops` ops.
        Returns the per-op latencies and the per-op outcomes."""
        times, outcomes = [], []
        start = perf_counter()
        while len(outcomes) < min_ops or perf_counter() - start < seconds:
            took, checked = self.one_op(len(outcomes))
            if took is not None:
                times.append(took)
            outcomes.append(checked)
        return times, outcomes

    def window_summary(self, outcomes) -> tuple[str, float]:
        """Digest and key recovery rate of the first `window` ops, and the
        cross-run determinism check against earlier runs of this seed with
        the same program and benchmark sources."""
        window = outcomes[: self.workload.window]
        digest = outcome_digest([c.record for c in window])
        recovery = sum(c.recovered for c in window) / sum(c.transfers for c in window)
        ledger_path = OUT_DIR / "digests.json"
        key = (f"{self.workload.name}/seed={self.workload.seed}/ops={len(window)}"
               f"/src={source_digest(SRC / 'airgaplab', BENCH_DIR)[:16]}")
        ledger = json.loads(ledger_path.read_text()) if ledger_path.is_file() else {}
        if ledger.get(key, digest) != digest:
            self.problems.append(
                f"DETERMINISM: digest {digest} differs from {ledger[key]} of an earlier run "
                f"with the same seed ({key})")
        ledger[key] = digest
        ledger_path.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
        return digest, recovery

    def compare(self, first, second, what: str) -> None:
        for i, (a, b) in enumerate(zip(first, second)):
            if a.record != b.record:
                self.problems.append(f"DETERMINISM: op {i} outcome differs {what}")
                return


def fresh_interpreter(cmd: list[str], env=None) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT_S)


def setup_seconds(args) -> list[float]:
    """Imports plus one warm-up op, each in a fresh interpreter."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        proc = fresh_interpreter(cmd)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe exited {proc.returncode}: {proc.stderr[-2000:]}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def cli_startup_seconds(run: Run) -> list[float]:
    """Wall time of `python -m airgaplab.cli presets` in fresh interpreters,
    with its output checked against the catalog."""
    from airgaplab import channel

    expected = channel.catalog_csv()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    samples = []
    for _ in range(CLI_PROBES):
        start = perf_counter()
        proc = fresh_interpreter([sys.executable, "-m", "airgaplab.cli", "presets"], env)
        samples.append(perf_counter() - start)
        if proc.returncode != 0 or proc.stdout != expected:
            run.problems.append(f"cli presets exited {proc.returncode} or printed another catalog")
    return samples


def plain_run(args, run: Run, report: dict) -> dict:
    w = run.workload
    times, outcomes = run.loop(args.seconds, w.window)
    replayed = [run.one_op(i, redecode=True)[1] for i in range(w.replay)]
    run.compare(outcomes, replayed, "when replayed in the same process")
    digest, recovery = run.window_summary(outcomes)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = setup_seconds(args)
    t = tail(times)
    report.update(
        timed_ops=len(times), timed_seconds=sum(times), replayed_ops=len(replayed),
        digest=digest, window_ops=min(len(outcomes), w.window),
        tail={"quantile": t.quantile, "beyond": t.beyond, "ops": t.samples},
        setup_samples_s=setups,
    )
    print(f"ops: {len(times)} timed in {sum(times):.3f} s, {len(replayed)} replayed; "
          f"digest {digest} over ops 0..{report['window_ops'] - 1}")
    print(f"op_tail_ms is p{round(100 * t.quantile)} of {t.samples} ops, {t.beyond} beyond it")
    return {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_ms": (1e3 * median(times), "ms"),
        "op_tail_ms": (1e3 * t.value, "ms"),
        "key_recovery_rate": (recovery, "ratio"),
        "peak_rss_mib": (rss_mib, "MiB"),
        "setup_s": (median(setups), "s"),
    }


def traced_run(args, run: Run, report: dict) -> dict:
    import layers
    from workloads import WORKLOADS

    w = run.workload
    tracer = Tracer()

    def traced_op(index, workload=None):
        layers.install(tracer)
        try:
            return run.one_op(index, tracer, workload)
        finally:
            tracer.restore()

    # Each op runs once untraced and once traced, in alternating order, so
    # that drift in machine speed cancels out of the overhead estimate.
    plain_times, plain_outcomes, traced_times, traced_outcomes = [], [], [], []
    start = perf_counter()
    index = 0
    while index < w.window or perf_counter() - start < args.seconds:
        order = [(run.one_op, plain_times, plain_outcomes),
                 (traced_op, traced_times, traced_outcomes)]
        # Thue-Morse order: balanced over any op cycle of 2^k, unlike parity.
        for do_op, times, outcomes in order[:: -1 if bin(index).count("1") % 2 else 1]:
            took, checked = do_op(index)
            if took is not None:
                times.append(took)
            outcomes.append(checked)
        index += 1
    for name, cls in WORKLOADS.items():
        if name != w.name:
            for i in range(COVERAGE_OPS):
                traced_op(i, cls(w.seed))
    run.compare(plain_outcomes, traced_outcomes, "between its untraced and traced runs")
    digest, _ = run.window_summary(traced_outcomes)
    metrics, accounting = layers.per_layer_metrics(tracer, w.window)
    if accounting["worst_gap_s"] > ACCOUNTING_TOLERANCE_S:
        run.problems.append(f"span self times miss an op's wall time by "
                            f"{accounting['worst_gap_s']:.3g} s")
    plain_rate = len(plain_times) / sum(plain_times)
    traced_rate = len(traced_times) / sum(traced_times)
    metrics["trace.overhead_pct"] = (100.0 * (1.0 - traced_rate / plain_rate), "%")
    metrics["trace.layer_share"] = (accounting["layer_share"], "ratio")
    metrics["cli.startup_s"] = (median(cli_startup_seconds(run)), "s")
    spans_path = OUT_DIR / f"spans-{w.name}-seed{w.seed}.jsonl"
    tracer.dump(spans_path)
    report.update(
        untraced_ops=len(plain_times), untraced_ops_per_s=plain_rate,
        traced_ops=len(traced_times), traced_ops_per_s=traced_rate,
        spans=len(tracer.spans), spans_file=str(spans_path.relative_to(ROOT)),
        accounting=accounting, digest=digest,
    )
    print(f"ops: {len(plain_times)} untraced at {plain_rate:.4f}/s, {len(traced_times)} traced "
          f"at {traced_rate:.4f}/s; {len(tracer.spans)} spans; digest {digest}")
    print(f"layer spans cover a median {accounting['layer_share']:.4f} of each op; self times "
          f"account for op wall time within {accounting['worst_gap_s']:.2g} s")
    return metrics


def declared_metrics(trace: int) -> set[str] | None:
    """Metric names BENCHMARK.json declares for this mode, if it is present."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def setup_probe(args, started: float) -> int:
    """Child side of setup_seconds: report imports plus one warm-up op."""
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    workload.run(workload.make_input(0))
    print(perf_counter() - started)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    cap_blas_threads(nproc)
    if not (SRC / "airgaplab").is_dir():
        sys.stderr.write(f"error: no airgaplab sources under {SRC}; run from a source checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    started = perf_counter()
    try:
        from workloads import WORKLOADS
    except ImportError as exc:
        sys.stderr.write(f"error: cannot import airgaplab: {exc}\n")
        return 2
    import airgaplab

    if Path(airgaplab.__file__).resolve().parent != SRC / "airgaplab":
        sys.stderr.write(f"error: imported airgaplab from {airgaplab.__file__}, not {SRC}\n")
        return 2
    if args.setup_probe:
        return setup_probe(args, started)

    run = Run(WORKLOADS[args.workload](args.seed))
    run.one_op(0)  # warm-up, checked like every other op
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "setup_in_process_s": perf_counter() - started,
        "provenance": provenance(nproc),
    }
    if (report["provenance"]["blas_threads"] or 0) > nproc:
        run.problems.append(f"BLAS runs {report['provenance']['blas_threads']} threads > {nproc}")
    print(f"airgaplab benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("provenance: " + json.dumps(report["provenance"], sort_keys=True))
    OUT_DIR.mkdir(exist_ok=True)
    metrics = (traced_run if args.trace else plain_run)(args, run, report)
    declared = declared_metrics(args.trace)
    if declared is not None and declared != set(metrics):
        run.problems.append(
            f"metrics differ from BENCHMARK.json: {sorted(declared ^ set(metrics))}")

    for name, (value, unit) in metrics.items():
        if not isinstance(value, (int, float)) or value != value:
            run.problems.append(f"metric {name} has no value")
        print(f"{name:32s} {value!r} {unit}")
    for problem in run.problems:
        sys.stderr.write(f"FAILED CHECK: {problem}\n")
    for reason, count in run.tally.reasons.most_common():
        sys.stderr.write(f"failed op ({count}x): {reason}\n")
    correct = not run.problems and run.tally.failed == 0
    result = {
        "correct": correct,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    report.update(result=result, problems=run.problems, failure_reasons=dict(run.tally.reasons))
    out = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"failed {run.tally.failed} of {run.tally.attempted} ops attempted; full record in "
          f"{out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
