"""Which program attributes the traced run wraps, and the per-layer metrics
computed from the spans it records.

Layers are the airgaplab modules: harness, keyframe, modem, channel,
optstego, mediahide (and cli, timed as a fresh interpreter in run.py).
Time metrics are medians per call over every traced op; counts and ratios
cover only the first ``window`` ops, so they repeat exactly for one seed.
A layer that the workload never calls is measured on the coverage ops (two
ops of each other workload, traced after the main ones), so that every
metric has a value on every workload.
"""

from __future__ import annotations

from measure import median, self_times
from spans import ROOT, Tracer

OPTSTEGO_CALLS = (
    "stego_embed", "stego_extract", "qr_decode", "to_pbm", "from_pbm",
    "invisible_embed", "invisible_extract",
)
MEDIAHIDE_CALLS = (
    "create_image", "add_file", "hide_slack", "hide_entry", "fsck",
    "extract_slack", "extract_entry", "read_file",
)
RAISED_COUNTS = {
    "keyframe.sync_not_found": "SyncNotFound",
    "keyframe.crc_mismatch": "CrcMismatch",
    "keyframe.length_out_of_range": "LengthOutOfRange",
}


def _result(args, result):
    return result


def _demod_note(args, result):
    return result, len(args[0].samples)


def _samples_in(args, result):
    return len(args[0].samples)


def install(tracer: Tracer) -> None:
    """Wrap the stage functions run_scenario resolves at call time, and the
    optstego and mediahide entry points the artifact ops call."""
    from airgaplab import channel, harness, keyframe, mediahide, modem, optstego

    tracer.wrap(harness, "run_scenario", "harness.run_scenario")
    tracer.wrap(harness, "payload_ber", "harness.payload_ber")
    tracer.wrap(keyframe, "frame_encode", "keyframe.frame_encode", note=_result)
    tracer.wrap(keyframe, "frame_decode", "keyframe.frame_decode")
    for scheme in ("bfsk", "ook"):
        tracer.wrap(modem, f"{scheme}_modulate", f"modem.{scheme}_modulate")
        tracer.wrap(modem, f"{scheme}_demodulate", f"modem.{scheme}_demodulate",
                    note=_demod_note)
    tracer.wrap(modem, "trace_modulate", "modem.trace_modulate")
    tracer.wrap(modem, "trace_demodulate", "modem.trace_demodulate", note=_result)
    tracer.wrap(channel, "apply_waveform_channel", "channel.apply_waveform_channel",
                note=_samples_in)
    tracer.wrap(channel, "apply_trace_channel", "channel.apply_trace_channel")
    for name in OPTSTEGO_CALLS:
        note = (lambda args, m: m.size * m.size) if name == "stego_embed" else None
        tracer.wrap(optstego, name, f"optstego.{name}", note=note)
    for name in MEDIAHIDE_CALLS:
        note = (lambda args, img: len(img.data) / 2**20) if name == "create_image" else None
        tracer.wrap(mediahide, name, f"mediahide.{name}", note=note)


def raw_bit_errors(sent: list[int], received: list[int]) -> int:
    """Pre-FEC bit errors; bits missing or extra at the tail count as errors."""
    return sum(a != b for a, b in zip(sent, received)) + abs(len(sent) - len(received))


class SpanView:
    """Spans of one set of ops, indexed for the metric definitions."""

    def __init__(self, spans, indices: list[int], selfs: list[float]):
        self.spans = spans
        self.selfs = selfs
        self.indices = indices
        self.children: dict[int, list[int]] = {}
        for i in indices:
            if spans[i].parent >= 0:
                self.children.setdefault(spans[i].parent, []).append(i)

    def named(self, *names: str, boundary: bool = True) -> list[int]:
        """Spans with one of `names`; with `boundary`, only calls made from
        another layer (a call a layer makes to itself is its internals)."""
        out = []
        for i in self.indices:
            s = self.spans[i]
            if s.name in names:
                if boundary and s.parent >= 0 and self.spans[s.parent].layer == s.layer:
                    continue
                out.append(i)
        return out

    def ms(self, *names: str, boundary: bool = True) -> list[float]:
        return [1e3 * self.spans[i].seconds for i in self.named(*names, boundary=boundary)]

    def per_parent_ms(self, parent_name: str, *names: str) -> list[float]:
        """Per `parent_name` span, the summed time of its `names` children."""
        out = []
        for p in self.named(parent_name, boundary=False):
            kids = [k for k in self.children.get(p, []) if self.spans[k].name in names]
            if kids:
                out.append(1e3 * sum(self.spans[k].seconds for k in kids))
        return out

    def notes(self, *names: str) -> list:
        return [self.spans[i].note for i in self.named(*names)]

    def rate(self, *names: str, unpack=lambda note: note) -> list[float]:
        """Msamples per second over all `names` spans, as a one-sample list."""
        picked = self.named(*names)
        seconds = sum(self.spans[i].seconds for i in picked)
        if not picked or seconds <= 0:
            return []
        return [sum(unpack(self.spans[i].note) for i in picked) / seconds / 1e6]

    def scenario_raw_errors(self) -> list[int]:
        out = []
        for p in self.named("harness.run_scenario", boundary=False):
            kids = {self.spans[k].name: self.spans[k] for k in self.children.get(p, [])}
            sent = kids.get("keyframe.frame_encode")
            got = [kids[n] for n in ("modem.bfsk_demodulate", "modem.ook_demodulate",
                                     "modem.trace_demodulate") if n in kids]
            if sent is not None and got and got[0].note is not None:
                note = got[0].note
                bits = note[0] if isinstance(note, tuple) else note
                out.append(raw_bit_errors(sent.note, bits))
        return out


TIME_METRICS = {
    "harness.self_ms": lambda v: [1e3 * v.selfs[i] for i in v.named("harness.run_scenario")],
    "harness.payload_ber_ms": lambda v: v.ms("harness.payload_ber", boundary=False),
    "keyframe.encode_ms": lambda v: v.ms("keyframe.frame_encode"),
    "keyframe.decode_ms": lambda v: v.ms("keyframe.frame_decode"),
    "modem.modulate_ms": lambda v: v.ms("modem.bfsk_modulate", "modem.ook_modulate"),
    "modem.demodulate_ms": lambda v: v.ms("modem.bfsk_demodulate", "modem.ook_demodulate"),
    "modem.demod_msamples_per_s": lambda v: v.rate(
        "modem.bfsk_demodulate", "modem.ook_demodulate", unpack=lambda note: note[1]),
    "modem.trace_ms": lambda v: v.per_parent_ms(
        "harness.run_scenario", "modem.trace_modulate", "modem.trace_demodulate"),
    "channel.apply_ms": lambda v: v.ms("channel.apply_waveform_channel"),
    "channel.msamples_per_s": lambda v: v.rate("channel.apply_waveform_channel"),
    "optstego.stego_embed_ms": lambda v: v.ms("optstego.stego_embed"),
    "optstego.stego_extract_ms": lambda v: v.ms("optstego.stego_extract"),
    "optstego.qr_decode_ms": lambda v: v.ms("optstego.qr_decode"),
    "optstego.pbm_ms": lambda v: v.per_parent_ms(ROOT, "optstego.to_pbm", "optstego.from_pbm"),
    "optstego.invisible_embed_ms": lambda v: v.ms("optstego.invisible_embed"),
    "optstego.invisible_extract_ms": lambda v: v.ms("optstego.invisible_extract"),
    "mediahide.create_ms": lambda v: v.ms("mediahide.create_image"),
    "mediahide.add_file_ms": lambda v: v.ms("mediahide.add_file"),
    "mediahide.hide_ms": lambda v: v.per_parent_ms(
        ROOT, "mediahide.hide_slack", "mediahide.hide_entry"),
    "mediahide.extract_ms": lambda v: v.per_parent_ms(
        ROOT, "mediahide.extract_slack", "mediahide.extract_entry", "mediahide.read_file"),
    "mediahide.fsck_ms": lambda v: v.ms("mediahide.fsck"),
}


def _decode_ok_ratio(v: SpanView) -> list[float]:
    decodes = [v.spans[i] for i in v.named("keyframe.frame_decode")]
    return [sum(not s.raised for s in decodes) / len(decodes)] if decodes else []


def _raised_count(kind: str):
    def count(v: SpanView) -> list[int]:
        decodes = [v.spans[i] for i in v.named("keyframe.frame_decode")]
        return [sum(s.raised == kind for s in decodes)] if decodes else []
    return count


def _total(*names: str):
    def total(v: SpanView) -> list[float]:
        notes = v.notes(*names)
        return [sum(notes)] if notes else []
    return total


WINDOW_METRICS = {
    "keyframe.decode_ok_ratio": ("ratio", _decode_ok_ratio),
    **{name: ("count", _raised_count(kind)) for name, kind in RAISED_COUNTS.items()},
    "modem.raw_bit_errors": ("count", lambda v: [sum(e)] if (e := v.scenario_raw_errors()) else []),
    "optstego.modules": ("count", _total("optstego.stego_embed")),
    "mediahide.image_mib": ("MiB", _total("mediahide.create_image")),
}


def time_unit(name: str) -> str:
    return "Msamples/s" if name.endswith("_per_s") else "ms"


def op_groups(spans, window: int) -> tuple[list[int], list[int], list[int]]:
    """Span indices of (all main ops, main ops inside the window, coverage ops)."""
    main, in_window, cover = [], [], []
    for i, s in enumerate(spans):
        if isinstance(s.op, int):
            main.append(i)
            if s.op < window:
                in_window.append(i)
        elif s.op is not None:
            cover.append(i)
    return main, in_window, cover


def per_layer_metrics(tracer: Tracer, window: int) -> tuple[dict, dict]:
    """(metrics, accounting): per-layer metrics as {name: (value, unit)},
    and how much of each main op the layer spans account for."""
    spans = tracer.spans
    selfs = self_times([(s.start, s.end, s.parent) for s in spans])
    main, in_window, cover = op_groups(spans, window)
    views = {key: SpanView(spans, idx, selfs)
             for key, idx in (("main", main), ("window", in_window), ("cover", cover))}
    metrics: dict[str, tuple[float, str]] = {}
    for name, fn in TIME_METRICS.items():
        samples = fn(views["main"]) or fn(views["cover"])
        metrics[name] = (median(samples) if samples else float("nan"), time_unit(name))
    for name, (unit, fn) in WINDOW_METRICS.items():
        samples = fn(views["window"]) or fn(views["cover"])
        metrics[name] = (samples[0] if samples else float("nan"), unit)

    trees: dict[int, list[int]] = {}
    for i in main:
        trees.setdefault(spans[i].op, []).append(i)
    shares, worst_gap = [], 0.0
    for tree in trees.values():
        root = tree[0]  # an op's root span is recorded before its children
        wall = spans[root].seconds
        worst_gap = max(worst_gap, abs(sum(selfs[i] for i in tree) - wall))
        shares.append(sum(selfs[i] for i in tree[1:]) / wall)
    accounting = {"ops": len(trees), "layer_share": median(shares) if shares else float("nan"),
                  "worst_gap_s": worst_gap}
    return metrics, accounting
