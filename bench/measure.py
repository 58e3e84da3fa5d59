"""The benchmark's own arithmetic: percentiles, tail selection, span self
times, failure tallies and outcome digests.

Nothing here imports airgaplab, so the unit tests in test_bench.py exercise
it on tiny synthetic inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass, field

# A tail percentile is only reported with at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def percentile(values: list[float], q: float) -> float:
    """Quantile q in [0, 1] by linear interpolation between order statistics
    (numpy's default 'linear' method)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q} outside [0, 1]")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return percentile(values, 0.5)


def tail_quantile(n: int, min_beyond: int = TAIL_MIN_BEYOND) -> float:
    """Highest whole-percent quantile with at least `min_beyond` of `n`
    samples expected beyond it, never below the median.

    With n = 48 and min_beyond = 10 this is p79: 48 * 0.21 = 10.08 samples
    lie beyond it, while p80 would leave only 9.6.
    """
    if n < 1:
        raise ValueError("tail quantile of an empty sample")
    whole = math.floor(100 * (1.0 - min_beyond / n) + 1e-9)
    return max(50, whole) / 100.0


@dataclass
class Tail:
    value: float
    quantile: float
    beyond: int  # samples strictly above the value
    samples: int


def tail(values: list[float], min_beyond: int = TAIL_MIN_BEYOND) -> Tail:
    q = tail_quantile(len(values), min_beyond)
    value = percentile(values, q)
    return Tail(value, q, sum(1 for v in values if v > value), len(values))


def self_times(spans: list[tuple[float, float, int]]) -> list[float]:
    """Per span: its duration minus the part of it that its children cover.

    `spans` holds (start, end, parent_index) with -1 for a root.  Children
    are clipped to their parent's interval and overlapping children are
    counted once, so self times of one tree always sum to the root's
    duration when every child lies inside its parent.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (start, end, _parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, [])):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


@dataclass
class Checked:
    """What the checks found on one op."""

    problems: list[str]  # empty when every output is right
    record: object  # deterministic outcome of the op, JSON-serializable
    recovered: int  # exact-key recoveries
    transfers: int  # key transfers attempted


@dataclass
class Tally:
    """Failed ops counted against attempted ops, with the reasons seen."""

    attempted: int = 0
    failed: int = 0
    reasons: Counter = field(default_factory=Counter)

    def record(self, problems: list[str]) -> None:
        """Count one op; it failed if any check reported a problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.reasons.update(problems)


def outcome_digest(records: list) -> str:
    """SHA-256 over canonical JSON of per-op outcome records, in op order.

    Floats serialize by their shortest round-trip repr, so equal bit
    decisions and equal BER values give equal digests.
    """
    h = hashlib.sha256()
    for rec in records:
        h.update(json.dumps(rec, sort_keys=True, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()
