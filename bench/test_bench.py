"""Tests of the benchmark's own arithmetic on tiny synthetic inputs.

    python3 -m pytest bench -q

None of these import airgaplab: the ops, spans and outcomes are made up.
"""

import hashlib
import math
import types

import numpy as np
import pytest

import run
from layers import raw_bit_errors
from measure import Checked, Tally, outcome_digest, percentile, self_times, tail, tail_quantile
from spans import Tracer


class TestTail:
    @pytest.mark.parametrize("n, q", [(48, 0.79), (100, 0.90), (1000, 0.99), (20, 0.50)])
    def test_highest_whole_percentile_with_ten_beyond(self, n, q):
        assert tail_quantile(n) == q
        assert n * (1 - q) >= 10 - 1e-9
        assert n * (1 - (q + 0.01)) < 10 or q == 0.99

    def test_never_below_the_median(self):
        assert tail_quantile(5) == 0.5

    def test_value_and_count_beyond(self):
        t = tail([float(v) for v in range(1, 101)])
        assert (t.quantile, t.samples, t.beyond) == (0.90, 100, 10)
        assert t.value == pytest.approx(90.1)

    @pytest.mark.parametrize("q", [0.0, 0.25, 0.5, 0.79, 0.9, 1.0])
    def test_percentile_matches_numpy_linear(self, q):
        values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
        assert percentile(values, q) == pytest.approx(float(np.percentile(values, 100 * q)))


class TestSelfTimes:
    def test_nested_spans(self):
        spans = [
            (0.0, 10.0, -1),  # root
            (1.0, 4.0, 0),  # child
            (2.0, 3.0, 1),  # grandchild
            (5.0, 9.0, 0),  # second child
        ]
        assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
        assert sum(self_times(spans)) == pytest.approx(10.0)

    def test_overlap_and_overhang_count_once(self):
        spans = [(0.0, 10.0, -1), (1.0, 5.0, 0), (3.0, 7.0, 0), (8.0, 12.0, 0)]
        assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 2.0)

    def test_tracer_spans_account_for_the_op(self):
        fake = types.ModuleType("fake")
        fake.inner = lambda x: x + 1
        fake.outer = lambda x: fake.inner(x) * fake.inner(x)
        originals = (fake.inner, fake.outer)
        tracer = Tracer()
        tracer.wrap(fake, "inner", "fake.inner", note=lambda args, result: result)
        tracer.wrap(fake, "outer", "fake.outer")
        assert fake.outer(1) == 4  # outside an op: nothing recorded
        assert tracer.spans == []
        assert tracer.op(7, fake.outer, 2) == 9
        tracer.restore()
        assert (fake.inner, fake.outer) == originals
        names = [(s.name, s.parent, s.op, s.note) for s in tracer.spans]
        assert names == [("op", -1, 7, None), ("fake.outer", 0, 7, None),
                         ("fake.inner", 1, 7, 3), ("fake.inner", 1, 7, 3)]
        selfs = self_times([(s.start, s.end, s.parent) for s in tracer.spans])
        assert sum(selfs) == pytest.approx(tracer.spans[0].seconds, abs=1e-9)

    def test_raising_call_is_recorded_and_restore_detects_foreign_patch(self):
        fake = types.ModuleType("fake")

        def boom():
            raise KeyError("x")

        fake.boom = boom
        tracer = Tracer()
        tracer.wrap(fake, "boom", "fake.boom")
        with pytest.raises(KeyError):
            tracer.op(0, fake.boom)
        assert tracer.spans[1].raised == "KeyError"
        fake.boom = len
        with pytest.raises(RuntimeError, match="fake.boom"):
            tracer.restore()
        assert fake.boom is boom


class FakeWorkload:
    """Op i returns i; op 1 raises and op 2 gives a wrong output."""

    name = "fake"
    window = 3
    seed = 5

    def make_input(self, index):
        return index

    def run(self, inp):
        if inp == 1:
            raise ValueError("op 1 always raises")
        return inp

    def check(self, inp, out, in_window, redecode=False):
        problems = ["wrong output"] if out == 2 else []
        return Checked(problems, [inp, out, 0.1 * out], int(not problems), 1)


class TestFailureCounting:
    def test_tally(self):
        tally = Tally()
        for problems in ([], ["a", "b"], ["a"]):
            tally.record(problems)
        assert (tally.attempted, tally.failed, tally.reasons) == (3, 2, {"a": 2, "b": 1})

    def test_raising_and_wrong_ops_fail(self, capsys):
        r = run.Run(FakeWorkload())
        times, outcomes = r.loop(0.0, 4)
        assert len(outcomes) == 4 and len(times) == 3  # a raising op has no latency
        assert (r.tally.attempted, r.tally.failed) == (4, 2)
        assert r.tally.reasons == {"raised ValueError": 1, "wrong output": 1}
        assert "op 1 always raises" in capsys.readouterr().err


class TestDigest:
    def test_empty_and_order(self):
        assert outcome_digest([]) == hashlib.sha256(b"").hexdigest()
        assert outcome_digest([[1], [2]]) != outcome_digest([[2], [1]])

    def test_last_float_digit_and_key_order(self):
        assert outcome_digest([{"ber": 0.1}]) != outcome_digest([{"ber": math.nextafter(0.1, 1)}])
        assert outcome_digest([{"a": 1, "b": 2}]) == outcome_digest([{"b": 2, "a": 1}])

    def test_same_seed_same_digest_and_ledger_catches_a_change(self, tmp_path, monkeypatch):
        monkeypatch.setattr(run, "OUT_DIR", tmp_path)
        first, second = run.Run(FakeWorkload()), run.Run(FakeWorkload())
        digest_a, rate = first.window_summary(first.loop(0.0, 3)[1])
        digest_b, _ = second.window_summary(second.loop(0.0, 3)[1])
        assert digest_a == digest_b and rate == pytest.approx(1 / 3)
        assert not first.problems and not second.problems
        changed = run.Run(FakeWorkload())
        outcomes = changed.loop(0.0, 3)[1]
        outcomes[0].record[2] = 1e-300
        changed.window_summary(outcomes)
        assert any("DETERMINISM" in p for p in changed.problems)

    def test_compare_flags_first_differing_op(self):
        r = run.Run(FakeWorkload())
        a = [Checked([], [i], 1, 1) for i in range(3)]
        b = [Checked([], [i if i != 1 else 9], 1, 1) for i in range(3)]
        r.compare(a, b, "in a test")
        assert r.problems == ["DETERMINISM: op 1 outcome differs in a test"]


def test_raw_bit_errors_count_missing_tail():
    assert raw_bit_errors([0, 1, 1, 0], [0, 0, 1]) == 2
    assert raw_bit_errors([1, 0], [1, 0, 1, 1]) == 2
    assert raw_bit_errors([1, 0, 1], [1, 0, 1]) == 0
