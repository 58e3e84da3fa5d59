"""CLI tests: subcommand behavior, exit codes, byte-identical reruns."""

import random

import pytest

from airgaplab.cli import main


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
        assert open(path).read().startswith("name,rate")


class TestTable4:
    def test_pass_and_csv(self, capsys, tmp_path):
        path = str(tmp_path / "table4.csv")
        code, out, _ = run_cli(capsys, "table4", "--out", path)
        assert code == 0
        assert "overall: pass" in out
        lines = open(path).read().strip().splitlines()
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
        assert open(path).readline().strip() == "state,duration_ms"


class TestSweep:
    def test_rows_and_exit(self, capsys, tmp_path):
        path = str(tmp_path / "sweep.csv")
        code, out, _ = run_cli(
            capsys, "sweep", "--channel", "radiot", "--snr-from", "30", "--snr-to", "34",
            "--step", "2", "--trials", "2", "--out", path,
        )
        assert code == 0
        lines = open(path).read().strip().splitlines()
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

    def test_extract_truncated_pbm_fails_cleanly(self, capsys, tmp_path):
        pbm_path = tmp_path / "bad.pbm"
        pbm_path.write_text("P1\n21\n")
        code, _, err = run_cli(capsys, "qr-stego", "extract", "--pbm", str(pbm_path))
        assert code == 1
        assert err.startswith("error: MalformedInput")

    def test_embed_requires_text_and_secret(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["qr-stego", "embed", "--pbm", str(tmp_path / "x.pbm")])
        assert exc.value.code == 2


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
                tuple(open(p, "rb").read() for p in (wav, csv, pbm, img, tr))
            )
        assert outputs[0] == outputs[1]
