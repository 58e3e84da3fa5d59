"""tools/ab.py: the claim rule, the pair order, the summary's shape and the
digest gate, against stub benchmarks rather than real runs."""

import importlib.util
import json
import os
import shutil
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab.py"
_SPEC = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)


def test_loading_leaves_bench_off_sys_path():
    """bench/'s generic module names (measure, run, workloads) must not shadow
    later imports.  A fresh interpreter, since pytest itself puts bench/ on
    sys.path when it collects bench/test_bench.py."""
    probe = textwrap.dedent("""
        import importlib.util, pathlib, sys
        spec = importlib.util.spec_from_file_location("ab", sys.argv[1])
        spec.loader.exec_module(importlib.util.module_from_spec(spec))
        bench = pathlib.Path(sys.argv[1]).resolve().parent.parent / "bench"
        print(any(pathlib.Path(p or ".").resolve() == bench for p in sys.path), "measure" in sys.modules)
    """)
    out = subprocess.run([sys.executable, "-c", probe, str(_PATH)], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "False"]


class TestClaimRule:
    BASE = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]

    def test_nine_of_ten_wins_past_the_iqr_claims(self):
        head = [b * 1.2 for b in self.BASE]
        head[3] = 90.0  # one lost pair
        got = ab.compare(self.BASE, head, "higher")
        assert (got["head_wins"], got["base_wins"], got["ties"]) == (9, 1, 0)
        assert got["claim"] is True
        assert got["change"] == pytest.approx(got["head"]["median"] / got["base"]["median"] - 1)

    def test_eight_wins_do_not_claim(self):
        head = [b * 1.2 for b in self.BASE]
        head[3] = head[4] = 90.0
        assert ab.compare(self.BASE, head, "higher")["claim"] is False

    def test_ties_count_for_neither_side(self):
        head = [b * 1.2 for b in self.BASE]
        head[0] = self.BASE[0]
        got = ab.compare(self.BASE, head, "higher")
        assert (got["head_wins"], got["base_wins"], got["ties"]) == (9, 0, 1)
        assert got["claim"] is True

    def test_every_pair_won_inside_the_iqr_does_not_claim(self):
        head = [b + 0.5 for b in self.BASE]
        got = ab.compare(self.BASE, head, "higher")
        assert got["head_wins"] == 10
        assert got["head"]["median"] - got["base"]["median"] < got["base"]["q3"] - got["base"]["q1"]
        assert got["claim"] is False

    def test_lower_is_better(self):
        head = [b * 0.7 for b in self.BASE]
        assert ab.compare(self.BASE, head, "lower")["claim"] is True
        assert ab.compare(self.BASE, head, "higher")["claim"] is False

    def test_fewer_than_ten_pairs_never_claim(self):
        assert ab.compare(self.BASE[:9], [b * 2 for b in self.BASE[:9]], "higher")["claim"] is False

    def test_no_direction_gives_quartiles_only(self):
        assert set(ab.compare(self.BASE, self.BASE, None)) == {"base", "head"}

    # 0.174 -> 0.219 s is the +26 % lowrate-cliff setup_s move against its 0.25 bound.
    @pytest.mark.parametrize("base,head,better,flags", [
        (0.174, 0.219, "lower", True),
        (0.174, 0.20, "lower", False),
        (100.0, 74.0, "higher", True),
        (100.0, 80.0, "higher", False),
    ])
    def test_beyond_bound(self, base, head, better, flags):
        got = ab.compare([base] * 10, [head] * 10, better, bound=0.25)
        assert (got["bound"], got["beyond_bound"]) == (0.25, flags)

    def test_a_better_median_never_flags(self):
        for factor in (1.01, 1.5, 10.0):
            assert not ab.compare(self.BASE, [b * factor for b in self.BASE], "higher", bound=0.25)["beyond_bound"]
            assert not ab.compare(self.BASE, [b / factor for b in self.BASE], "lower", bound=0.25)["beyond_bound"]

    def test_no_bound_records_no_flag(self):
        assert "beyond_bound" not in ab.compare(self.BASE, self.BASE, "higher")

    def test_pair_order_alternates(self):
        assert [ab.pair_order(p) for p in range(3)] == [("base", "head"), ("head", "base"), ("base", "head")]


_STUB = textwrap.dedent('''
    """Stand-in for bench/run.py: its value and digest come from files beside it.
    "value" holds one value per call, used in turn; "none" prints no result."""
    import argparse, json, pathlib, sys
    root = pathlib.Path(__file__).resolve().parent.parent
    p = argparse.ArgumentParser()
    for name in ("--workload", "--seed", "--seconds", "--trace"):
        p.add_argument(name)
    a = p.parse_args()
    calls = root.parent / "calls"
    done = calls.read_text().split().count(root.name) if calls.exists() else 0
    values = (root / "value").read_text().split()
    with open(calls, "a") as fh:
        fh.write(root.name + "\\n")
    if values[done % len(values)] == "none":
        sys.exit(0)
    value = float(values[done % len(values)])
    out = root / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / f"result-{a.workload}-seed{a.seed}-trace{a.trace}.json").write_text(json.dumps(
        {"digest": (root / "digest").read_text(), "setup_samples_s": [0.1, 0.2, 0.3],
         "provenance": {"nproc": 2, "git_sha": None}}))
    print("metrics follow")
    print(json.dumps({"correct": True, "attempted": 5, "failed": 0, "metrics": {
        "ops_per_s": {"value": value, "unit": "1/s"}, "op_p50_ms": {"value": 1000 / value, "unit": "ms"},
        "undeclared": {"value": 1.0, "unit": "count"}}}))
''')


def _stub_root(path: Path, value: float | str, digest: str) -> Path:
    (path / "bench").mkdir(parents=True)
    (path / "bench" / "run.py").write_text(_STUB)
    (path / "value").write_text(str(value))
    (path / "digest").write_text(digest)
    (path / "BENCHMARK.json").write_text(json.dumps({
        "end_to_end": [{"name": "ops_per_s", "better": "higher"}, {"name": "op_p50_ms", "better": "lower"}]}))
    return path


def _measure(tmp_path, base_digest="d1", head_digest="d1"):
    roots = {"base": _stub_root(tmp_path / "base", 100.0, base_digest),
             "head": _stub_root(tmp_path / "head", 150.0, head_digest)}
    return ab.measure(roots, ["artifact-roundtrip"], [1, 7], pairs=2, seconds=0.1, trace=0, log=lambda line: None)


def test_summary_shape_and_run_order(tmp_path):
    results = _measure(tmp_path)
    assert list(results) == ["artifact-roundtrip/seed1", "artifact-roundtrip/seed7"]
    res = results["artifact-roundtrip/seed1"]
    assert res["digests"] == {"base": ["d1"], "head": ["d1"]}
    assert [(r["pair"], r["side"]) for r in res["runs"]] == [(0, "base"), (0, "head"), (1, "head"), (1, "base")]
    assert all(r["correct"] and r["setup_samples_s"] == [0.1, 0.2, 0.3] for r in res["runs"])
    ops = res["metrics"]["ops_per_s"]
    assert (ops["base"]["median"], ops["head"]["median"]) == (100.0, 150.0)
    assert (ops["head_wins"], ops["better"], ops["claim"]) == (2, "higher", False)  # two pairs only
    assert res["metrics"]["op_p50_ms"]["head_wins"] == 2
    assert "better" not in res["metrics"]["undeclared"]
    calls = (tmp_path / "calls").read_text().split()
    assert calls == ["base", "head", "head", "base"] * 2
    assert ab.problems(results) == []
    json.dumps(results)


def test_digest_gate(tmp_path):
    results = _measure(tmp_path, head_digest="d2")
    found = ab.problems(results)
    assert len(found) == 2 and all("differs from the base's d1" in line for line in found)


def test_beyond_bound_is_reported_but_is_no_problem(tmp_path):
    """HEAD at 70 ops/s against the base's 100 is 30 % worse, beyond a 0.25
    bound read from BENCHMARK.json; the flag is a warning, not a failed run."""
    roots = {"base": _stub_root(tmp_path / "base", 100.0, "d1"),
             "head": _stub_root(tmp_path / "head", 70.0, "d1")}
    (roots["head"] / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "ops_per_s", "better": "higher", "bound": 0.25},
        {"name": "op_p50_ms", "better": "lower", "bound": 0.5}]}))
    results = ab.measure(roots, ["artifact-roundtrip"], [1], pairs=2, seconds=0.1, trace=0, log=lambda line: None)
    metrics = results["artifact-roundtrip/seed1"]["metrics"]
    assert (metrics["ops_per_s"]["beyond_bound"], metrics["op_p50_ms"]["beyond_bound"]) == (True, False)
    assert "beyond_bound" not in metrics["undeclared"]
    assert ab.beyond_bounds(results) == [
        "artifact-roundtrip/seed1: ops_per_s 100 -> 70 (-30.0%) is beyond its bound of 25%; "
        "runs base [100 100], head [70 70]"]
    assert ab.problems(results) == []


def test_setup_probes_pool_per_side(tmp_path):
    """Each side's three probes from each of its two runs, pooled."""
    res = _measure(tmp_path)["artifact-roundtrip/seed1"]
    for side in ab.SIDES:
        assert res["setup_probes"][side] == pytest.approx(
            {"probes": 6, "q1": 0.125, "median": 0.2, "q3": 0.275})
    runs = [{"side": "base", "setup_samples_s": [0.17, 0.18, 0.40]},
            {"side": "base", "setup_samples_s": None},  # a run that printed no result
            {"side": "head", "setup_samples_s": [0.21]}]
    assert ab.pooled_setup(runs) == {"base": {"probes": 3, **ab.quartiles([0.17, 0.18, 0.40])}}


BOUNDED = {"setup_s": {"better": "lower", "bound": 0.25}, "op_p50_ms": {"better": "lower", "bound": 0.25}}


def _results(key: str, values: dict[str, tuple[list, list]], probes: dict | None = None) -> dict:
    """A measure() result for one workload and seed from each metric's
    (base, head) values in pair order; None stands for a run that reported
    nothing."""
    pairs = len(next(iter(values.values()))[0])
    runs = []
    for pair in range(pairs):
        for i, side in enumerate(ab.SIDES):
            got = {name: sides[i][pair] for name, sides in values.items() if sides[i][pair] is not None}
            runs.append({"pair": pair, "side": side, "metrics": got})
    return {key: {"metrics": ab.summarize(runs, BOUNDED), "setup_probes": probes or {}, "runs": runs}}


def test_setup_s_beyond_bound_quotes_the_pooled_probes():
    """The +26 % lowrate-cliff setup_s move, with probe medians 0.18 and
    0.19 s that show the move is the probes' spread, not the code."""
    probes = {"base": ab.quartiles([0.17, 0.18, 0.40]), "head": ab.quartiles([0.18, 0.19, 0.41])}
    results = _results("lowrate-cliff/seed1",
                       {"setup_s": ([0.174] * 2, [0.219] * 2), "op_p50_ms": ([1.0] * 2, [2.0] * 2)}, probes)
    assert ab.beyond_bounds(results) == [
        "lowrate-cliff/seed1: op_p50_ms 1 -> 2 (+100.0%) is beyond its bound of 25%; runs base [1 1], head [2 2]",
        "lowrate-cliff/seed1: setup_s 0.174 -> 0.219 (+25.9%) is beyond its bound of 25%; "
        "runs base [0.174 0.174], head [0.219 0.219]; pooled setup probes 0.18 -> 0.19"]
    del results["lowrate-cliff/seed1"]["setup_probes"]["head"]
    assert ab.beyond_bounds(results)[1].endswith("head [0.219 0.219]")


def test_beyond_bound_lists_each_sides_sorted_run_values():
    """The artifact-roundtrip seed-7 op_p50_ms move of 3.08 -> 4.14 ms: the
    sorted runs show one more HEAD run in the slow mode, not a slower HEAD.
    The last pair's HEAD run reported nothing, so that pair is left out."""
    base = [4.36, 2.95, 3.08, 4.90, 2.96, 2.90]
    head = [3.94, 4.57, 3.04, 5.31, 4.14, None]
    results = _results("artifact-roundtrip/seed7", {"op_p50_ms": (base, head)})
    assert ab.beyond_bounds(results) == [
        "artifact-roundtrip/seed7: op_p50_ms 3.08 -> 4.14 (+34.4%) is beyond its bound of 25%; "
        "runs base [2.95 2.96 3.08 4.36 4.9], head [3.04 3.94 4.14 4.57 5.31]"]


def test_verdicts_give_one_line_per_end_to_end_metric():
    """In the order asked for; a metric no pair reported is left out."""
    base = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]
    results = _results("acoustic-exfil/seed7", {"op_p50_ms": (base, [b * 0.8 for b in base]),
                                                "setup_s": ([0.2] * 10, [0.2] * 9 + [0.25])})
    assert ab.verdicts(results, ["ops_per_s", "setup_s", "op_p50_ms"]) == [
        "acoustic-exfil/seed7: setup_s 0.2 -> 0.2 (+0.0%), HEAD won 0 of 10 pairs, claim rule not met",
        "acoustic-exfil/seed7: op_p50_ms 100 -> 80 (-20.0%), HEAD won 10 of 10 pairs, claim rule met"]


def test_a_run_without_a_result_fails(tmp_path):
    results = _measure(tmp_path)
    results["artifact-roundtrip/seed1"]["runs"][1]["correct"] = False
    assert ab.problems(results) == ["artifact-roundtrip/seed1: runs failed their checks: head pair 0"]
    (tmp_path / "head" / "bench" / "run.py").write_text("import sys; sys.exit(3)\n")
    run = ab.run_bench(tmp_path / "head", "artifact-roundtrip", 1, 0.1, 0)
    assert (run["exit"], run["correct"], run["metrics"]) == (3, False, {})


def test_a_timed_out_run_fails_and_the_session_goes_on(tmp_path, monkeypatch):
    roots = {"base": _stub_root(tmp_path / "base", 100.0, "d1"),
             "head": _stub_root(tmp_path / "head", 150.0, "d1")}
    (roots["head"] / "bench" / "run.py").write_text("import time; time.sleep(60)\n")
    monkeypatch.setattr(ab, "RUN_TIMEOUT_S", 0.5)
    results = ab.measure(roots, ["artifact-roundtrip"], [1], pairs=2, seconds=0.1, trace=0, log=lambda line: None)
    runs = results["artifact-roundtrip/seed1"]["runs"]
    assert [(r["side"], r["correct"], r.get("reason")) for r in runs] == [
        ("base", True, None), ("head", False, "timed out"), ("head", False, "timed out"), ("base", True, None)]
    assert ab.problems(results)[0] == (
        "artifact-roundtrip/seed1: runs failed their checks: head pair 0 (timed out), head pair 1 (timed out)")
    json.dumps(results)


def test_a_failed_run_costs_only_its_pair(tmp_path):
    """Pair 1's head run prints no result; pairs 0 and 2 are still compared,
    base and head matched by pair.  Base's pair-1 value would move both its
    median and the pair wins if it were kept or paired with another pair."""
    roots = {"base": _stub_root(tmp_path / "base", "100 200 120", "d1"),
             "head": _stub_root(tmp_path / "head", "150 none 170", "d1")}
    results = ab.measure(roots, ["artifact-roundtrip"], [1], pairs=3, seconds=0.1, trace=0, log=lambda line: None)
    res = results["artifact-roundtrip/seed1"]
    assert [(r["pair"], r["side"], r["correct"]) for r in res["runs"]] == [
        (0, "base", True), (0, "head", True), (1, "head", False), (1, "base", True),
        (2, "base", True), (2, "head", True)]
    ops = res["metrics"]["ops_per_s"]
    assert ops["pairs"] == 2
    assert (ops["base"]["median"], ops["head"]["median"]) == (110.0, 160.0)
    assert (ops["head_wins"], ops["base_wins"], ops["ties"]) == (2, 0, 0)
    assert res["metrics"]["op_p50_ms"]["head_wins"] == 2
    assert ab.problems(results) == ["artifact-roundtrip/seed1: runs failed their checks: head pair 1"]


def test_src_lines_counts_python_under_src_only(tmp_path):
    """Nested modules count; files outside src/ and non-Python files do not."""
    trees = {
        "base": {"src/pkg/__init__.py": "", "src/pkg/a.py": "x = 1\ny = 2\nz = 3\n",
                 "src/pkg/notes.txt": "1\n2\n"},
        "head": {"src/pkg/__init__.py": "", "src/pkg/a.py": "x = 1\n", "src/pkg/sub/b.py": "b = 1\n\nc = 2",
                 "tests/test_a.py": "def test():\n    pass\n"},
    }
    for side, files in trees.items():
        for name, text in files.items():
            (tmp_path / side / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / side / name).write_text(text)
    assert ab.src_lines({side: tmp_path / side for side in ab.SIDES}) == {"base": 3, "head": 4, "net": 1}


def test_one_pair_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        ab.parse_args(["--base", "HEAD", "--pairs", "1", "--out", "x.json"])
    assert exc.value.code == 2
    assert "--pairs must be at least 2" in capsys.readouterr().err


def test_sigterm_removes_the_base_export_and_the_running_benchmark(tmp_path):
    """In a throwaway repository whose bench/run.py records its pid and sleeps."""
    repo, scratch, pid_file = tmp_path / "repo", tmp_path / "tmp", tmp_path / "bench.pid"
    (repo / "tools").mkdir(parents=True)
    (repo / "bench").mkdir()
    scratch.mkdir()
    shutil.copy(_PATH, repo / "tools" / "ab.py")
    (repo / "BENCHMARK.json").write_text(json.dumps({"end_to_end": []}))
    (repo / "bench" / "run.py").write_text(
        f"import os, pathlib, time\npathlib.Path({str(pid_file)!r}).write_text(str(os.getpid()))\ntime.sleep(60)\n")
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "stub"]):
        subprocess.run(["git", "-c", "user.name=ab", "-c", "user.email=ab@example.invalid",
                        "-c", "commit.gpgsign=false", *args], cwd=repo, check=True, capture_output=True)
    cmd = [sys.executable, "tools/ab.py", "--base", "HEAD", "--pairs", "2", "--seconds", "1",
           "--out", str(tmp_path / "out.json")]
    with subprocess.Popen(cmd, cwd=repo, env={**os.environ, "TMPDIR": str(scratch)},
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True) as proc:
        try:
            deadline = time.monotonic() + 60
            while not (pid_file.exists() and pid_file.read_text()):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.05)
            assert [p.name[:8] for p in scratch.iterdir()] == ["ab-base-"]
            proc.send_signal(signal.SIGTERM)
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
    assert proc.returncode == 143, err
    assert list(scratch.iterdir()) == []
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid_file.read_text()), 0)
