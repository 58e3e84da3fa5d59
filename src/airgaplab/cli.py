"""Batch command-line interface.

Subcommands: exfil, sweep, table4, presets, qr-stego, usb.  Exit codes:
0 success, 1 decode/verdict failure, 2 usage error.  All randomness flows
from --seed, so identical invocations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import sys

from . import channel as chan
from . import harness, keyframe, mediahide, modem
from .errors import AirgapError
from .optstego import from_pbm, stego_embed, stego_extract, to_pbm

PRESET_NAMES = [p.name for p in chan.preset_catalog()]


def _parse_hex(parser: argparse.ArgumentParser, text: str, expect_len: int | None = None) -> bytes:
    try:
        data = bytes.fromhex(text)
    except ValueError:
        parser.error(f"invalid hex string: {text!r}")
    if expect_len is not None and len(data) != expect_len:
        parser.error(f"expected {expect_len} bytes ({2 * expect_len} hex chars), got {len(data)}")
    return data


def _cmd_presets(args: argparse.Namespace) -> int:
    text = chan.catalog_csv()
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_table4(args: argparse.Namespace) -> int:
    rows, all_pass = harness.table4_report()
    text = harness.table4_csv(rows)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    sys.stdout.write(text)
    sys.stdout.write(f"overall: {'pass' if all_pass else 'fail'}\n")
    return 0 if all_pass else 1


def _cmd_exfil(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    key = _parse_hex(parser, args.key, keyframe.KEY_BYTES) if args.key else None
    cfg = harness.ScenarioConfig(
        channel=args.channel,
        key=key,
        snr_db=args.snr,
        seed=args.seed,
        symbol_rate=args.symbol_rate,
        f0=args.f0,
        f1=args.f1,
    )
    try:
        result = harness.run_scenario(cfg)
    except ValueError as exc:
        parser.error(str(exc))
    report = result.report
    if args.wav:
        if not isinstance(result.received, modem.Waveform):
            parser.error(f"--wav needs a waveform preset, {args.channel} is a trace channel")
        modem.write_wav(args.wav, result.received)
    if args.trace:
        if not isinstance(result.received, modem.EventTrace):
            parser.error(f"--trace needs a trace preset, {args.channel} is a waveform channel")
        modem.write_trace_csv(args.trace, result.received)
    sys.stdout.write(harness.RUN_CSV_HEADER + "\n" + report.csv_row() + "\n")
    if report.success:
        sys.stdout.write(f"recovered key: {result.key.hex()}\n")
    return 0 if report.success else 1


def _cmd_sweep(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    key = _parse_hex(parser, args.key, keyframe.KEY_BYTES) if args.key else None
    try:
        reports = harness.sweep(
            args.channel, args.snr_from, args.snr_to, args.step, args.trials,
            base_seed=args.seed, key=key,
        )
    except ValueError as exc:
        parser.error(str(exc))
    text = harness.sweep_csv(reports)
    with open(args.out, "w", newline="") as fh:
        fh.write(text)
    ok = sum(1 for r in reports if r.success)
    sys.stdout.write(f"{len(reports)} runs, {ok} successful -> {args.out}\n")
    return 0


def _cmd_qr_stego(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.action == "embed":
        with open(args.text, "rb") as fh:
            text = fh.read()
        secret = _parse_hex(parser, args.secret)
        matrix = stego_embed(text, secret, args.ec_level)
        with open(args.pbm, "w", newline="") as fh:
            fh.write(to_pbm(matrix))
        sys.stdout.write(
            f"version {matrix.version} symbol written to {args.pbm} (airtime: a snapshot)\n"
        )
        return 0
    with open(args.pbm) as fh:
        matrix = from_pbm(fh.read())
    secret = stego_extract(matrix)
    sys.stdout.write(secret.hex() + "\n")
    return 0


def _cmd_usb(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.action in ("hide-slack", "hide-entry"):
        secret = _parse_hex(parser, args.secret)
        if len(secret) > mediahide.MAX_SECRET:
            parser.error(f"secret is {len(secret)} bytes, at most {mediahide.MAX_SECRET} fit")
    if args.action == "create":
        img = mediahide.create_image(args.size_mib * 1024 * 1024)
        with open(args.image, "wb") as fh:
            fh.write(img.data)
        sys.stdout.write(f"formatted {args.size_mib} MiB FAT16 image -> {args.image}\n")
        return 0

    with open(args.image, "rb") as fh:
        img = mediahide.load_image(fh.read())

    if args.action == "add":
        with open(args.data, "rb") as fh:
            contents = fh.read()
        mediahide.add_file(img, args.file, contents)
    elif args.action == "ls":
        for name, size, attr in mediahide.list_files(img, include_hidden=args.all):
            flags = "".join(
                ch for bit, ch in ((0x01, "r"), (0x02, "h"), (0x04, "s"), (0x20, "a")) if attr & bit
            )
            sys.stdout.write(f"{name:<14} {size:>10} {flags}\n")
        return 0
    elif args.action == "fsck":
        report = mediahide.fsck(img)
        for finding in report.findings:
            sys.stdout.write(f"fsck: {finding}\n")
        sys.stdout.write("fsck: clean\n" if report.ok else "fsck: inconsistent\n")
        return 0 if report.ok else 1
    elif args.action == "hide-slack":
        mediahide.hide_slack(img, args.file, secret)
        sys.stdout.write(f"secret hidden in slack of {args.file} (airtime: <0.01 s)\n")
    elif args.action == "extract-slack":
        sys.stdout.write(mediahide.extract_slack(img, args.file).hex() + "\n")
        return 0
    elif args.action == "hide-entry":
        mediahide.hide_entry(img, secret, entry_name=args.entry_name)
        sys.stdout.write(f"secret hidden in entry {args.entry_name} (airtime: <0.01 s)\n")
    elif args.action == "extract-entry":
        sys.stdout.write(mediahide.extract_entry(img, entry_name=args.entry_name).hex() + "\n")
        return 0

    with open(args.image, "wb") as fh:
        fh.write(img.data)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="airgaplab",
        description="Air-gap covert-channel exfiltration lab: run scenarios, "
        "reproduce time budgets, hide and recover 256-bit keys.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("presets", help="dump the channel preset catalog as CSV")
    p.add_argument("--out")

    p = sub.add_parser("table4", help="framed-airtime vs published time budgets")
    p.add_argument("--out")

    p = sub.add_parser("exfil", help="run one end-to-end exfiltration scenario")
    p.add_argument("--channel", required=True, choices=PRESET_NAMES)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--key", help="64 hex chars (256-bit key)")
    group.add_argument("--random", action="store_true", help="derive the key from --seed (default)")
    p.add_argument("--snr", type=float, default=None, help="SNR override in dB")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--symbol-rate", type=float, default=None)
    p.add_argument("--f0", type=float, default=None)
    p.add_argument("--f1", type=float, default=None)
    p.add_argument("--wav", help="write the received waveform as WAV")
    p.add_argument("--trace", help="write the received event trace as CSV")

    p = sub.add_parser("sweep", help="SNR sweep with per-run CSV rows")
    p.add_argument("--channel", required=True, choices=PRESET_NAMES)
    p.add_argument("--snr-from", type=float, required=True)
    p.add_argument("--snr-to", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--key", help="fixed key (64 hex chars) instead of per-trial keys")
    p.add_argument("--out", required=True)

    p = sub.add_parser("qr-stego", help="embed/extract secrets in QR padding codewords")
    p.add_argument("action", choices=["embed", "extract"])
    p.add_argument("--text", help="file with the visible payload (embed)")
    p.add_argument("--secret", help="secret bytes as hex (embed)")
    p.add_argument("--pbm", required=True, help="symbol file, ASCII PBM")
    p.add_argument("--ec-level", default="M", choices=["L", "M", "Q", "H"])

    p = sub.add_parser("usb", help="FAT16 image hiding: slack space and hidden entries")
    p.add_argument(
        "action",
        choices=["create", "add", "ls", "fsck", "hide-slack", "extract-slack",
                 "hide-entry", "extract-entry"],
    )
    p.add_argument("--image", required=True)
    p.add_argument("--size-mib", type=int, default=16)
    p.add_argument("--file", help="carrier file name (8.3)")
    p.add_argument("--data", help="local file with carrier contents (add)")
    p.add_argument("--secret", help="secret bytes as hex")
    p.add_argument("--entry-name", default=mediahide.HIDDEN_ENTRY_NAME)
    p.add_argument("--all", action="store_true", help="include hidden entries in ls")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "presets":
            return _cmd_presets(args)
        if args.command == "table4":
            return _cmd_table4(args)
        if args.command == "exfil":
            return _cmd_exfil(args, parser)
        if args.command == "sweep":
            return _cmd_sweep(args, parser)
        if args.command == "qr-stego":
            if args.action == "embed" and not (args.text and args.secret):
                parser.error("embed requires --text and --secret")
            return _cmd_qr_stego(args, parser)
        if args.command == "usb":
            needs_file = args.action in ("add", "hide-slack", "extract-slack")
            if needs_file and not args.file:
                parser.error(f"{args.action} requires --file")
            if args.action == "add" and not args.data:
                parser.error("add requires --data")
            if args.action in ("hide-slack", "hide-entry") and not args.secret:
                parser.error(f"{args.action} requires --secret")
            return _cmd_usb(args, parser)
    except AirgapError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    raise AssertionError("unreachable")


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
