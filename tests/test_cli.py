"""CLI tests: subcommand behavior, exit codes, byte-identical reruns."""

import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import airgaplab
from airgaplab.cli import main
from airgaplab.mediahide import add_file, create_image
from airgaplab.optstego import to_pbm


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPresets:
    def test_catalog_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "presets")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "name,rate,snr,band_lo,band_hi,jitter,tmin,tmax,kind"
        assert len(lines) == 12

    def test_catalog_to_file(self, capsys, tmp_path):
        path = str(tmp_path / "presets.csv")
        code, _, _ = run_cli(capsys, "presets", "--out", path)
        assert code == 0
        assert Path(path).read_text().startswith("name,rate")


class TestTable4:
    def test_pass_and_csv(self, capsys, tmp_path):
        path = str(tmp_path / "table4.csv")
        code, out, _ = run_cli(capsys, "table4", "--out", path)
        assert code == 0
        assert "overall: pass" in out
        lines = Path(path).read_text().strip().splitlines()
        assert len(lines) == 12


class TestExfil:
    def test_success_exit_zero_and_key_echo(self, capsys):
        key = "ab" * 32
        code, out, _ = run_cli(capsys, "exfil", "--channel", "radiot", "--key", key, "--snr", "35", "--seed", "3")
        assert code == 0
        assert f"recovered key: {key}" in out

    def test_failure_exit_one(self, capsys):
        code, out, _ = run_cli(capsys, "exfil", "--channel", "powerhammer", "--snr", "-20", "--seed", "1")
        assert code == 1
        assert "false" in out

    def test_unknown_channel_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["exfil", "--channel", "thermal"])
        assert exc.value.code == 2

    def test_bad_key_hex_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["exfil", "--channel", "radiot", "--key", "zz"])
        assert exc.value.code == 2

    def test_wav_on_trace_channel_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["exfil", "--channel", "kbd_led", "--wav", str(tmp_path / "x.wav")])
        assert exc.value.code == 2

    def test_trace_output_written(self, capsys, tmp_path):
        path = str(tmp_path / "trace.csv")
        code, _, _ = run_cli(capsys, "exfil", "--channel", "kbd_led", "--seed", "4", "--trace", path)
        assert code == 0
        with open(path) as fh:
            assert fh.readline().strip() == "state,duration_ms"

    @pytest.mark.parametrize("snr", ["-inf", "nan"])
    def test_unusable_snr_usage_error(self, capsys, tmp_path, snr):
        wav = tmp_path / "rx.wav"
        with pytest.raises(SystemExit) as exc:
            main(["exfil", "--channel", "radiot", "--random", "--seed", "7", f"--snr={snr}", "--wav", str(wav)])
        assert exc.value.code == 2
        assert "SNR" in capsys.readouterr().err
        assert not wav.exists()

    @pytest.mark.parametrize("channel, rate", [("ultrasonic", "1e-6"), ("gsmem", "0.001")])
    def test_oversized_waveform_usage_error(self, capsys, channel, rate):
        # 358 GiB and 3.9 GiB of transmit rows: refused before any is allocated.
        tracemalloc.start()
        try:
            with pytest.raises(SystemExit) as exc:
                main(["exfil", "--channel", channel, "--seed", "1", "--symbol-rate", rate])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err
        assert peak < 2**22

    @pytest.mark.parametrize(
        "channel, option, code",
        [
            ("gsmem", "--symbol-rate=inf", 2),
            ("gsmem", "--symbol-rate=1e306", 1),
            ("kbd_led", "--symbol-rate=0", 2),
            ("ultrasonic", "--symbol-rate=inf", 2),
            ("ultrasonic", "--symbol-rate=1e-320", 2),
            ("gsmem", "--symbol-rate=1e-320", 2),
            ("ultrasonic", "--f0=nan", 2),
            ("gsmem", "--f0=-inf", 2),
        ],
    )
    def test_unusable_rate_or_tone_exits_without_traceback(self, capsys, channel, option, code):
        try:
            got = main(["exfil", "--channel", channel, "--seed", "1", option])
        except SystemExit as exc:
            got = exc.code
        assert got == code
        assert ("usage:" if code == 2 else "error: NyquistViolation") in capsys.readouterr().err

    def test_f1_on_an_ook_preset_is_a_usage_error(self, capsys):
        """An OOK preset has one tone; a mark tone for it is refused, not ignored."""
        with pytest.raises(SystemExit) as exc:
            main(["exfil", "--channel", "gsmem", "--seed", "1", "--f1", "900"])
        assert exc.value.code == 2
        assert "gsmem sends OOK on one tone, set by f0" in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["--f0=5", "--f1=900"])
    def test_tone_on_a_trace_preset_is_a_usage_error(self, capsys, option):
        """An event-trace preset has no tones; --f0 and --f1 are refused, not ignored."""
        with pytest.raises(SystemExit) as exc:
            main(["exfil", "--channel", "kbd_led", "--seed", "1", option])
        assert exc.value.code == 2
        assert "trace" in capsys.readouterr().err


class TestSweep:
    def test_non_finite_snr_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--channel", "radiot", "--snr-from", "0", "--snr-to", "inf", "--step", "1",
                  "--out", str(tmp_path / "sweep.csv")])
        assert exc.value.code == 2

    def test_rows_and_exit(self, capsys, tmp_path):
        path = str(tmp_path / "sweep.csv")
        code, out, _ = run_cli(
            capsys, "sweep", "--channel", "radiot", "--snr-from", "30", "--snr-to", "34",
            "--step", "2", "--trials", "2", "--out", path,
        )
        assert code == 0
        lines = Path(path).read_text().strip().splitlines()
        assert len(lines) == 1 + 3 * 2
        assert all(len(line.split(",")) == 8 for line in lines)


class TestQrStego:
    def test_embed_extract_round_trip(self, capsys, tmp_path):
        rng = random.Random(0)
        secret = bytes(rng.randrange(256) for _ in range(32)).hex()
        text_path = tmp_path / "txn.txt"
        text_path.write_bytes(b"0100000001deadbeef" * 5)
        pbm_path = str(tmp_path / "sym.pbm")
        code, out, _ = run_cli(capsys, "qr-stego", "embed", "--text", str(text_path),
                               "--secret", secret, "--pbm", pbm_path)
        assert code == 0 and "snapshot" in out
        code, out, _ = run_cli(capsys, "qr-stego", "extract", "--pbm", pbm_path)
        assert code == 0
        assert out.strip() == secret

    def test_extract_plain_symbol_fails(self, capsys, tmp_path):
        from airgaplab.optstego import qr_encode, to_pbm

        pbm_path = tmp_path / "plain.pbm"
        pbm_path.write_text(to_pbm(qr_encode(b"plain", "M")))
        code, _, err = run_cli(capsys, "qr-stego", "extract", "--pbm", str(pbm_path))
        assert code == 1
        assert "NoSecret" in err

    @pytest.mark.parametrize(
        "raw",
        [b"P1\n21\n", b"P1\n21 21\n\xff\xfe\n", b"P1 " + b"1" * 5000 + b" 0\n"],
        ids=["truncated", "not-utf8", "5000-digit-width"],
    )
    def test_extract_truncated_pbm_fails_cleanly(self, capsys, tmp_path, raw):
        pbm_path = tmp_path / "bad.pbm"
        pbm_path.write_bytes(raw)
        code, _, err = run_cli(capsys, "qr-stego", "extract", "--pbm", str(pbm_path))
        assert code == 1
        assert err.startswith("error: MalformedInput")

    def test_extract_numeric_mode_symbol_fails_cleanly(self, capsys, tmp_path):
        from airgaplab.optstego.qr import matrix_from_data_codewords

        # A conformant v2-M symbol holding the numeric segment "01234567".
        bits = "0001" + f"{8:010b}" + f"{12:010b}" + f"{345:010b}" + f"{67:07b}" + "0000"
        bits += "0" * (-len(bits) % 8)
        codewords = [int(bits[i : i + 8], 2) for i in range(0, len(bits), 8)]
        codewords += [(0xEC, 0x11)[i % 2] for i in range(28 - len(codewords))]
        pbm_path = tmp_path / "numeric.pbm"
        pbm_path.write_text(to_pbm(matrix_from_data_codewords(codewords, 2, "M")))
        code, _, err = run_cli(capsys, "qr-stego", "extract", "--pbm", str(pbm_path))
        assert code == 1
        assert err.startswith("error: MalformedInput")

    def test_embed_requires_text_and_secret(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["qr-stego", "embed", "--pbm", str(tmp_path / "x.pbm")])
        assert exc.value.code == 2


def _fat_too_small(img):
    img.data[22:24] = (1).to_bytes(2, "little")  # FAT size field: 1 sector for 2039 clusters


def _non_ascii_name(img):
    img.data[img.root_offset] = 0xC3


def _looped_chain(img):
    first, second = img.chain(2)
    img.fat_set(second, first)


def _boot_field(offset, width, value):
    """Corruption that rewrites one little-endian boot-sector field."""

    def corrupt(img):
        img.data[offset : offset + width] = value.to_bytes(width, "little")

    return corrupt


class TestUsb:
    def test_full_flow(self, capsys, tmp_path):
        img = str(tmp_path / "w.img")
        data = tmp_path / "txn.bin"
        data.write_bytes(b"signed transaction bytes" * 4)
        secret = "cc" * 32

        assert run_cli(capsys, "usb", "create", "--image", img, "--size-mib", "16")[0] == 0
        assert run_cli(capsys, "usb", "add", "--image", img, "--file", "TXN.DAT", "--data", str(data))[0] == 0
        assert run_cli(capsys, "usb", "hide-slack", "--image", img, "--file", "TXN.DAT", "--secret", secret)[0] == 0
        code, out, _ = run_cli(capsys, "usb", "extract-slack", "--image", img, "--file", "TXN.DAT")
        assert code == 0 and out.strip() == secret
        assert run_cli(capsys, "usb", "hide-entry", "--image", img, "--secret", secret)[0] == 0
        code, out, _ = run_cli(capsys, "usb", "extract-entry", "--image", img)
        assert code == 0 and out.strip() == secret
        code, out, _ = run_cli(capsys, "usb", "ls", "--image", img)
        assert "TXN.DAT" in out and "~$CACHE.BIN" not in out
        code, out, _ = run_cli(capsys, "usb", "ls", "--image", img, "--all")
        assert "~$CACHE.BIN" in out
        assert run_cli(capsys, "usb", "fsck", "--image", img)[0] == 0

    def test_extract_from_pristine_carrier_exit_one(self, capsys, tmp_path):
        img = str(tmp_path / "w.img")
        data = tmp_path / "c.bin"
        data.write_bytes(b"clean")
        run_cli(capsys, "usb", "create", "--image", img, "--size-mib", "4")
        run_cli(capsys, "usb", "add", "--image", img, "--file", "C.BIN", "--data", str(data))
        code, _, err = run_cli(capsys, "usb", "extract-slack", "--image", img, "--file", "C.BIN")
        assert code == 1 and "NoPayload" in err

    def test_missing_args_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["usb", "hide-slack", "--image", str(tmp_path / "w.img")])
        assert exc.value.code == 2

    def test_fsck_on_tiny_file_fails_cleanly(self, capsys, tmp_path):
        img = tmp_path / "tiny.img"
        img.write_bytes(bytes(10))
        code, out, err = run_cli(capsys, "usb", "fsck", "--image", str(img))
        assert code == 1 and out == ""
        assert err.startswith("error: MalformedInput")

    @pytest.mark.parametrize(
        "corrupt, argv",
        [
            (_fat_too_small, ["add", "--file", "BIG.BIN", "--data", "{big}"]),
            (_non_ascii_name, ["ls"]),
            (_non_ascii_name, ["fsck"]),
            (_looped_chain, ["extract-slack", "--file", "A.BIN"]),
            (_boot_field(14, 2, 2), ["fsck"]),
            (_boot_field(16, 1, 1), ["fsck"]),
            (_boot_field(17, 2, 256), ["add", "--file", "BIG.BIN", "--data", "{big}"]),
        ],
        ids=[
            "fat-too-small-add", "non-ascii-name-ls", "non-ascii-name-fsck", "looped-chain-extract-slack",
            "two-reserved-sectors-fsck", "one-fat-fsck", "256-root-entries-add",
        ],
    )
    def test_hostile_image_fails_cleanly(self, capsys, tmp_path, corrupt, argv):
        img = create_image(4 * 1024 * 1024)
        add_file(img, "A.BIN", bytes(3000))
        corrupt(img)
        path = tmp_path / "hostile.img"
        path.write_bytes(img.data)
        big = tmp_path / "big.bin"
        big.write_bytes(bytes(600 * 2048))
        argv = [arg.format(big=big) for arg in argv]
        code, _, err = run_cli(capsys, "usb", argv[0], "--image", str(path), *argv[1:])
        assert code == 1
        assert err.startswith("error: MalformedInput")
        assert path.read_bytes() == bytes(img.data)

    @pytest.mark.parametrize("action", ["hide-slack", "hide-entry"])
    def test_oversized_secret_usage_error(self, tmp_path, action):
        img = create_image(4 * 1024 * 1024)
        add_file(img, "A.BIN", bytes(3000))
        path = tmp_path / "w.img"
        path.write_bytes(img.data)
        with pytest.raises(SystemExit) as exc:
            main(["usb", action, "--image", str(path), "--file", "A.BIN", "--secret", "ab" * 251])
        assert exc.value.code == 2
        assert path.read_bytes() == bytes(img.data)


class TestDeterminism:
    def test_repeat_invocations_byte_identical(self, capsys, tmp_path):
        outputs = []
        for tag in ("a", "b"):
            wav = str(tmp_path / f"{tag}.wav")
            csv = str(tmp_path / f"{tag}.csv")
            pbm = str(tmp_path / f"{tag}.pbm")
            img = str(tmp_path / f"{tag}.img")
            tr = str(tmp_path / f"{tag}_trace.csv")
            text = tmp_path / f"{tag}.txt"
            text.write_bytes(b"deterministic payload")
            run_cli(capsys, "exfil", "--channel", "ultrasonic", "--seed", "99", "--wav", wav)
            run_cli(capsys, "exfil", "--channel", "hdd_led", "--seed", "99", "--trace", tr)
            run_cli(capsys, "sweep", "--channel", "radiot", "--snr-from", "10", "--snr-to", "20",
                    "--step", "10", "--trials", "2", "--out", csv)
            run_cli(capsys, "qr-stego", "embed", "--text", str(text), "--secret", "dd" * 32, "--pbm", pbm)
            run_cli(capsys, "usb", "create", "--image", img, "--size-mib", "4")
            run_cli(capsys, "usb", "hide-entry", "--image", img, "--secret", "dd" * 32)
            outputs.append(
                tuple(Path(p).read_bytes() for p in (wav, csv, pbm, img, tr))
            )
        assert outputs[0] == outputs[1]


class TestStartup:
    def test_scipy_signal_loads_only_for_banded_presets(self, tmp_path):
        # A fresh interpreter: this one has scipy.signal loaded already.
        image = str(tmp_path / "usb.img")
        script = f"""
import sys
from airgaplab.cli import main
codes = [main(["presets"]), main(["table4"]), main(["usb", "create", "--image", {image!r}, "--size-mib", "4"])]
print("futures", "concurrent.futures" in sys.modules)
codes.append(main(["exfil", "--channel", "radiot", "--seed", "1"]))
print(codes, "scipy.signal" in sys.modules)
print("futures", "concurrent.futures" in sys.modules)
codes.append(main(["exfil", "--channel", "ultrasonic", "--seed", "1"]))
print(codes, "scipy.signal" in sys.modules)
"""
        src = str(Path(airgaplab.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
        verdicts = [line for line in result.stdout.splitlines() if line.startswith("[")]
        assert verdicts == ["[0, 0, 0, 0] False", "[0, 0, 0, 0, 0] True"]
        # The noise worker: no executor module before the first noisy run.
        futures = [line for line in result.stdout.splitlines() if line.startswith("futures ")]
        assert futures == ["futures False", "futures True"]
