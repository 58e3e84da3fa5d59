"""Batch command-line interface.

Subcommands: exfil, sweep, table4, presets, qr-stego, usb.  Exit codes:
0 success, 1 decode/verdict failure, 2 usage error.  argparse converts the
options; main() alone maps an exception to an exit code (AirgapError and
OSError exit 1, ValueError is a usage error).  All randomness flows from
--seed, so identical invocations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import sys

from . import channel as chan
from . import harness, keyframe, mediahide, modem
from .errors import AirgapError, MalformedInput
from .optstego import from_pbm, stego_embed, stego_extract, to_pbm

PRESET_NAMES = [p.name for p in chan.preset_catalog()]


def _hex_key(text: str) -> bytes:
    """argparse type of --key: 64 hex digits."""
    key = bytes.fromhex(text)
    if len(key) != keyframe.KEY_BYTES:
        raise argparse.ArgumentTypeError(f"expected {keyframe.KEY_BYTES} bytes, got {len(key)}")
    return key


# Options that an action of qr-stego or usb cannot run without.
_REQUIRED = {
    "embed": ("text", "secret"),
    "add": ("file", "data"),
    "hide-slack": ("file", "secret"),
    "extract-slack": ("file",),
    "hide-entry": ("secret",),
}


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


def _cmd_exfil(args: argparse.Namespace) -> int:
    kind = chan.lookup(args.channel).kind
    if args.wav and kind != chan.WAVEFORM:
        raise ValueError(f"--wav needs a waveform preset, {args.channel} is a trace channel")
    if args.trace and kind != chan.TRACE:
        raise ValueError(f"--trace needs a trace preset, {args.channel} is a waveform channel")
    cfg = harness.ScenarioConfig(
        channel=args.channel,
        key=args.key,
        snr_db=args.snr,
        seed=args.seed,
        symbol_rate=args.symbol_rate,
        f0=args.f0,
        f1=args.f1,
    )
    result = harness.run_scenario(cfg)
    report = result.report
    if args.wav:
        modem.write_wav(args.wav, result.received)
    if args.trace:
        modem.write_trace_csv(args.trace, result.received)
    sys.stdout.write(harness.RUN_CSV_HEADER + "\n" + report.csv_row() + "\n")
    if report.success:
        sys.stdout.write(f"recovered key: {result.key.hex()}\n")
    return 0 if report.success else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    reports = harness.sweep(
        args.channel, args.snr_from, args.snr_to, args.step, args.trials,
        base_seed=args.seed, key=args.key,
    )
    text = harness.sweep_csv(reports)
    with open(args.out, "w", newline="") as fh:
        fh.write(text)
    ok = sum(1 for r in reports if r.success)
    sys.stdout.write(f"{len(reports)} runs, {ok} successful -> {args.out}\n")
    return 0


def _cmd_qr_stego(args: argparse.Namespace) -> int:
    if args.action == "embed":
        with open(args.text, "rb") as fh:
            text = fh.read()
        matrix = stego_embed(text, args.secret, args.ec_level)
        with open(args.pbm, "w", newline="") as fh:
            fh.write(to_pbm(matrix))
        sys.stdout.write(
            f"version {matrix.version} symbol written to {args.pbm} (airtime: a snapshot)\n"
        )
        return 0
    with open(args.pbm, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedInput(f"PBM is not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    secret = stego_extract(from_pbm(text))
    sys.stdout.write(secret.hex() + "\n")
    return 0


def _cmd_usb(args: argparse.Namespace) -> int:
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
        mediahide.hide_slack(img, args.file, args.secret)
        sys.stdout.write(f"secret hidden in slack of {args.file} (airtime: <0.01 s)\n")
    elif args.action == "extract-slack":
        sys.stdout.write(mediahide.extract_slack(img, args.file).hex() + "\n")
        return 0
    elif args.action == "hide-entry":
        mediahide.hide_entry(img, args.secret, entry_name=args.entry_name)
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
    p.set_defaults(run=_cmd_presets)
    p.add_argument("--out")

    p = sub.add_parser("table4", help="framed-airtime vs published time budgets")
    p.set_defaults(run=_cmd_table4)
    p.add_argument("--out")

    p = sub.add_parser("exfil", help="run one end-to-end exfiltration scenario")
    p.set_defaults(run=_cmd_exfil)
    p.add_argument("--channel", required=True, choices=PRESET_NAMES)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--key", type=_hex_key, help="64 hex chars (256-bit key)")
    group.add_argument("--random", action="store_true", help="derive the key from --seed (default)")
    p.add_argument("--snr", type=float, default=None, help="SNR override in dB")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--symbol-rate", type=float, default=None)
    p.add_argument("--f0", type=float, default=None)
    p.add_argument("--f1", type=float, default=None)
    p.add_argument("--wav", help="write the received waveform as WAV")
    p.add_argument("--trace", help="write the received event trace as CSV")

    p = sub.add_parser("sweep", help="SNR sweep with per-run CSV rows")
    p.set_defaults(run=_cmd_sweep)
    p.add_argument("--channel", required=True, choices=PRESET_NAMES)
    p.add_argument("--snr-from", type=float, required=True)
    p.add_argument("--snr-to", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--key", type=_hex_key, help="fixed key (64 hex chars) instead of per-trial keys")
    p.add_argument("--out", required=True)

    p = sub.add_parser("qr-stego", help="embed/extract secrets in QR padding codewords")
    p.set_defaults(run=_cmd_qr_stego)
    p.add_argument("action", choices=["embed", "extract"])
    p.add_argument("--text", help="file with the visible payload (embed)")
    p.add_argument("--secret", type=bytes.fromhex, help="secret bytes as hex (embed)")
    p.add_argument("--pbm", required=True, help="symbol file, ASCII PBM")
    p.add_argument("--ec-level", default="M", choices=["L", "M", "Q", "H"])

    p = sub.add_parser("usb", help="FAT16 image hiding: slack space and hidden entries")
    p.set_defaults(run=_cmd_usb)
    p.add_argument(
        "action",
        choices=["create", "add", "ls", "fsck", "hide-slack", "extract-slack",
                 "hide-entry", "extract-entry"],
    )
    p.add_argument("--image", required=True)
    p.add_argument("--size-mib", type=int, default=16)
    p.add_argument("--file", help="carrier file name (8.3)")
    p.add_argument("--data", help="local file with carrier contents (add)")
    p.add_argument("--secret", type=bytes.fromhex, help="secret bytes as hex")
    p.add_argument("--entry-name", default=mediahide.HIDDEN_ENTRY_NAME)
    p.add_argument("--all", action="store_true", help="include hidden entries in ls")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    required = _REQUIRED.get(getattr(args, "action", None), ())
    if not all(getattr(args, name) for name in required):
        parser.error(f"{args.action} requires {' and '.join('--' + name for name in required)}")
    try:
        return args.run(args)
    except AirgapError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except ValueError as exc:
        parser.error(str(exc))


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
