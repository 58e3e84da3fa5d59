"""Paired A/B runs of the benchmark: a base revision against this checkout.

    python3 tools/ab.py --base HEAD~1 --pairs 10 --out BENCH_<n>.json \\
        [--seeds 1,7] [--workloads artifact-roundtrip,acoustic-exfil] [--seconds 30] [--trace 1]

The committed files of ``--base`` are exported with ``git archive`` into a
temporary directory (``TMPDIR`` chooses where); the other side, HEAD, is
the working tree this script sits in.  For each workload and seed, each
pair runs ``bench/run.py`` once from the base and once from HEAD, every
run a fresh interpreter and one run at a time, and the side that goes
first alternates from pair to pair.  Nothing under ``bench/`` changes: the
script only runs it and reads what it prints and writes to ``.bench_out/``.

The output file holds, per workload and seed, every run (metrics, digest,
``setup_samples_s``, checks passed), per metric each side's median and
quartiles, the pair wins and the claim below, and under ``setup_probes``
the quartiles of each side's ``setup_samples_s`` probes pooled over its
runs.  It also holds both sides' commit SHAs, the machine facts ``run.py``
records, and under ``src_lines`` each side's count of lines in
``src/**/*.py`` with the net change.  ``--trace 1`` runs the traced
benchmark, so the same summary covers the per-layer metrics.

Claim rule.  HEAD may claim a gain on a metric only when it wins at least
9 of every 10 pairs run (at least 10 pairs; a tie counts for neither side;
a sign test puts 9 of 10 at p = 0.011), and the two medians differ, in
HEAD's favour, by more than the base's interquartile range.  Which way is
better comes from ``BENCHMARK.json``.

A run still going ``RUN_TIMEOUT_S`` past ``--seconds`` is killed and
recorded as failed ("timed out"), and the session goes on to the next.  A
failed run drops only its own pair from the metric summary.  SIGTERM kills
the running benchmark, removes the base export and exits with status 143.

A metric whose BENCHMARK.json entry has a ``bound`` (the end-to-end ones)
is flagged ``beyond_bound`` when HEAD's median is worse than the base's by
more than that bound, as a share of the base's median (never when that
median is 0).  Each hit prints a ``BEYOND BOUND:`` line; it is a warning
and leaves the exit status alone.  The line lists each side's run values
of that metric, sorted, so a reader can see whether one run in a slow
mode moved a median.  The line for ``setup_s`` also quotes both sides'
pooled probe medians, since setup_s is the median of only a few probes
per run and swings between two levels on identical code.

Exit status: 0 when every run passed its checks and both sides produced
the same digests; 1 otherwise; 2 for a usage error.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "head")
WIN_SHARE = 0.9
MIN_PAIRS = 10
CLAIM_RULE = (f"HEAD wins >= {WIN_SHARE:.0%} of >= {MIN_PAIRS} pairs (ties count for neither) "
              f"and the medians differ in HEAD's favour by more than the base's IQR")
RUN_TIMEOUT_S = 900  # beyond --seconds: the setup and CLI probes of one run


def quartiles(values: list[float]) -> dict:
    """Linear interpolation between order statistics, as bench/measure.py's
    percentile; at least two values."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def compare(base: list[float], head: list[float], better: str | None, bound: float | None = None) -> dict:
    """Quartiles of each side and, given which way is better, the pair wins,
    whether the claim rule holds and, given a bound, whether HEAD's median is
    worse by more than it.  base[i] and head[i] are pair i."""
    out = {"base": quartiles(base), "head": quartiles(head)}
    if better is None:
        return out
    sign = 1 if better == "higher" else -1
    head_wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    base_wins = sum(sign * (h - b) < 0 for b, h in zip(base, head))
    gap = sign * (out["head"]["median"] - out["base"]["median"])
    iqr = out["base"]["q3"] - out["base"]["q1"]
    base_median = out["base"]["median"]
    out.update(
        better=better, head_wins=head_wins, base_wins=base_wins,
        ties=len(base) - head_wins - base_wins,
        change=(out["head"]["median"] - base_median) / base_median if base_median else None,
        claim=len(base) >= MIN_PAIRS and head_wins >= WIN_SHARE * len(base) and gap > iqr,
    )
    if bound is not None:
        out["bound"] = bound
        out["beyond_bound"] = out["change"] is not None and -sign * out["change"] > bound
    return out


def pair_order(pair: int) -> tuple[str, str]:
    """Base first on even pairs, HEAD first on odd ones."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def run_bench(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of root's bench/run.py in a fresh interpreter."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                              timeout=seconds + RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed it; the session goes on
        return {"exit": None, "correct": False, "reason": "timed out", "metrics": {}, "digest": None}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"exit": proc.returncode, "correct": False, "metrics": {}, "digest": None,
                "stderr": proc.stderr[-2000:]}
    record_path = root / ".bench_out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    record = json.loads(record_path.read_text())
    return {
        "exit": proc.returncode,
        "correct": result["correct"] and proc.returncode == 0,
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "digest": record.get("digest"),
        "setup_samples_s": record.get("setup_samples_s"),
        "provenance": record.get("provenance"),
        "stderr": proc.stderr[-2000:] if proc.returncode else "",
    }


def declared(root: Path) -> dict[str, dict]:
    """Metric name -> its BENCHMARK.json entry: "better" ("higher" or
    "lower") and, for the end-to-end metrics, "bound"."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec.get("per_layer", [])}


def paired_values(runs: list[dict], name: str) -> dict[str, list[float]]:
    """Per side, in pair order, the metric's value from each pair whose two
    runs both report it; runs hold "pair" and "side"."""
    metrics = {(r["pair"], r["side"]): r["metrics"] for r in runs}
    both = [p for p in sorted({r["pair"] for r in runs}) if all(name in metrics[p, side] for side in SIDES)]
    return {side: [metrics[p, side][name] for p in both] for side in SIDES}


def summarize(runs: list[dict], spec: dict[str, dict]) -> dict:
    """Per-metric comparison of one workload and seed.  Each metric is
    compared over the pairs whose two runs both report it, so a failed run
    costs its pair only; a metric with fewer than two such pairs is left out."""
    out = {}
    for name in sorted(set().union(*(r["metrics"] for r in runs))):
        values = paired_values(runs, name)
        if len(values["base"]) >= 2:
            entry = spec.get(name, {})
            out[name] = {"pairs": len(values["base"]),
                         **compare(values["base"], values["head"], entry.get("better"), entry.get("bound"))}
    return out


def pooled_setup(runs: list[dict]) -> dict:
    """Per side, the quartiles of every ``setup_samples_s`` probe of its
    runs pooled together: setup_s is each run's median of a few probes, and
    pooling them shows whether a move in setup_s is the code or the spread
    of the probes.  A side with fewer than two probes is left out."""
    out = {}
    for side in SIDES:
        probes = [s for r in runs if r["side"] == side for s in r.get("setup_samples_s") or ()]
        if len(probes) >= 2:
            out[side] = {"probes": len(probes), **quartiles(probes)}
    return out


def measure(roots: dict[str, Path], workloads: list[str], seeds: list[int], pairs: int,
            seconds: float, trace: int, log=print) -> dict:
    """Every pair of every workload and seed, with the per-metric summary."""
    spec = declared(roots["head"])
    out = {}
    for workload in workloads:
        for seed in seeds:
            runs = []
            for pair in range(pairs):
                for side in pair_order(pair):
                    run = run_bench(roots[side], workload, seed, seconds, trace)
                    runs.append({"pair": pair, "side": side, **run})
                    log(f"{workload} seed {seed} pair {pair} {side}: correct={run['correct']} "
                        f"digest={(run['digest'] or '')[:8]} "
                        + " ".join(f"{k}={v:.4g}" for k, v in run["metrics"].items()
                                   if k in ("ops_per_s", "op_p50_ms")))
            out[f"{workload}/seed{seed}"] = {
                "digests": {side: sorted({r["digest"] for r in runs if r["side"] == side and r["correct"]},
                                         key=str)
                            for side in SIDES},
                "metrics": summarize(runs, spec),
                "setup_probes": pooled_setup(runs),
                "runs": runs,
            }
    return out


def problems(results: dict) -> list[str]:
    """Failed runs, and digests of passed runs that differ within a side or
    between sides."""
    found = []
    for key, res in results.items():
        failed = [f"{r['side']} pair {r['pair']}" + (f" ({r['reason']})" if "reason" in r else "")
                  for r in res["runs"] if not r["correct"]]
        if failed:
            found.append(f"{key}: runs failed their checks: {', '.join(failed)}")
        base, head = res["digests"]["base"], res["digests"]["head"]
        if len(base) != 1 or len(head) != 1:
            found.append(f"{key}: a side produced other than one digest: base {base}, head {head}")
        elif base != head:
            found.append(f"{key}: digest {head[0]} differs from the base's {base[0]}")
    return found


def beyond_bounds(results: dict) -> list[str]:
    """One line per metric whose HEAD median is worse than the base's by more
    than its bound, with each side's compared run values sorted; the setup_s
    line also quotes both sides' pooled probe medians."""
    lines = []
    for key, res in results.items():
        for name, m in res["metrics"].items():
            if not m.get("beyond_bound"):
                continue
            values = paired_values(res["runs"], name)
            line = (f"{key}: {name} {m['base']['median']:.4g} -> {m['head']['median']:.4g} "
                    f"({m['change']:+.1%}) is beyond its bound of {m['bound']:.0%}; runs "
                    + ", ".join(f"{side} [{' '.join(f'{v:.4g}' for v in sorted(values[side]))}]"
                                for side in SIDES))
            pooled = res["setup_probes"]
            if name == "setup_s" and set(pooled) == set(SIDES):
                line += (f"; pooled setup probes {pooled['base']['median']:.4g} -> "
                         f"{pooled['head']['median']:.4g}")
            lines.append(line)
    return lines


def src_lines(roots: dict[str, Path]) -> dict[str, int]:
    """Lines of ``src/**/*.py`` in each side's tree, and HEAD's net change."""
    counts = {side: sum(len(path.read_text().splitlines())
                        for path in (roots[side] / "src").glob("**/*.py"))
              for side in SIDES}
    return {**counts, "net": counts["head"] - counts["base"]}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, into: Path) -> None:
    """The committed files of `rev`, as a fresh directory tree."""
    into.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise subprocess.CalledProcessError(archive.returncode, "git archive")


def parse_args(argv):
    def names(text):
        return [t for t in text.split(",") if t]

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="revision to compare against")
    p.add_argument("--pairs", type=int, default=MIN_PAIRS)
    p.add_argument("--seeds", type=lambda t: [int(s) for s in names(t)], default=[1])
    p.add_argument("--workloads", type=names, default=["artifact-roundtrip"])
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, required=True, help="summary JSON, e.g. BENCH_17.json")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2: one pair has no spread")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an exception: subprocess.run kills the running
    # benchmark and the base export is removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        base_sha = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    except subprocess.CalledProcessError:
        sys.stderr.write(f"error: {args.base!r} is not a commit\n")
        return 2
    with tempfile.TemporaryDirectory(prefix="ab-base-") as tmp:
        base_root = Path(tmp) / "tree"
        export(base_sha, base_root)
        roots = {"base": base_root, "head": ROOT}
        lines = src_lines(roots)
        results = measure(roots, args.workloads, args.seeds, args.pairs, args.seconds, args.trace,
                          log=lambda line: print(line, flush=True))
    found = problems(results)
    first = next(iter(results.values()))["runs"][0]
    summary = {
        "claim_rule": CLAIM_RULE,
        "base": {"rev": args.base, "sha": base_sha},
        "head": {"sha": git("rev-parse", "HEAD"),
                 "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))},
        "pairs": args.pairs, "seconds": args.seconds, "trace": args.trace,
        "machine": {k: v for k, v in (first.get("provenance") or {}).items()
                    if k not in ("git_sha", "src_sha256")},
        "problems": found,
        "results": results,
        "src_lines": lines,
    }
    args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    for line in beyond_bounds(results):
        sys.stderr.write(f"BEYOND BOUND: {line}\n")
    for line in found:
        sys.stderr.write(f"FAILED: {line}\n")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
