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
    assert ab.problems(results)[0] == "artifact-roundtrip/seed1: runs failed their checks: head pair 1"


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
