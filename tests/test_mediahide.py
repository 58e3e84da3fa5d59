"""FAT16 media-hiding tests: geometry, transparency, slack and entry payloads."""

import random
import struct
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airgaplab.errors import (
    AirgapError,
    DiskFull,
    DuplicateName,
    InsufficientSlack,
    InvalidName,
    MalformedInput,
    NoPayload,
    NoSuchFile,
    SizeOutOfRange,
)
from airgaplab.mediahide import (
    ATTR_HIDDEN,
    ATTR_SYSTEM,
    CLUSTER_BYTES,
    HIDDEN_ENTRY_NAME,
    NUM_FATS,
    add_file,
    create_image,
    extract_entry,
    extract_slack,
    fsck,
    hide_entry,
    hide_slack,
    list_files,
    load_image,
    name_to_83,
    read_file,
)

MIB = 1024 * 1024


@pytest.fixture
def image():
    return create_image(16 * MIB)


class TestCreateImage:
    def test_boot_signature(self, image):
        assert bytes(image.data[510:512]) == b"\x55\xAA"

    def test_fresh_image_passes_fsck_with_no_files(self, image):
        report = fsck(image)
        assert report.ok and report.findings == []
        assert list_files(image) == []

    def test_cluster_count_in_fat16_range_for_16_mib(self, image):
        assert 4085 <= image.cluster_count <= 65524

    def test_geometry_arithmetic(self, image):
        # 2 KiB clusters over a 16 MiB volume minus boot, FATs and root
        data_sectors = image.total_sectors - 1 - 2 * image.fat_sectors - 32
        assert image.cluster_count == data_sectors // 4
        assert image.total_sectors == 16 * MIB // 512

    def test_size_bounds(self):
        with pytest.raises(SizeOutOfRange):
            create_image(2 * MIB)
        with pytest.raises(SizeOutOfRange):
            create_image(65 * MIB)
        for size in (4 * MIB, 64 * MIB):
            assert fsck(create_image(size)).ok

    def test_image_bytes_deterministic(self):
        assert create_image(4 * MIB).data == create_image(4 * MIB).data

    def test_load_round_trip(self, image):
        clone = load_image(bytes(image.data))
        assert clone.cluster_count == image.cluster_count
        assert fsck(clone).ok


class TestLoadImage:
    def test_buffer_shorter_than_boot_sector_rejected(self):
        with pytest.raises(MalformedInput):
            load_image(bytes(10))

    def test_truncated_image_rejected(self):
        raw = bytes(create_image(4 * MIB).data)
        with pytest.raises(MalformedInput):
            load_image(raw[: 64 * 1024])

    def test_fat_overrunning_volume_rejected(self):
        raw = bytearray(create_image(4 * MIB).data)
        raw[22:24] = (0xFFFF).to_bytes(2, "little")  # sectors per FAT
        with pytest.raises(MalformedInput):
            load_image(bytes(raw))


class TestAddAndRead:
    def test_write_read_round_trip(self, image):
        rng = random.Random(0)
        payload = bytes(rng.randrange(256) for _ in range(5000))
        add_file(image, "TXN.DAT", payload)
        assert read_file(image, "TXN.DAT") == payload
        assert fsck(image).ok

    def test_zero_length_file_occupies_no_clusters(self, image):
        free_before = len(image.free_clusters())
        add_file(image, "EMPTY.BIN", b"")
        assert len(image.free_clusters()) == free_before
        assert read_file(image, "EMPTY.BIN") == b""
        assert fsck(image).ok

    def test_fill_to_capacity_then_one_more_byte(self):
        image = create_image(4 * MIB)
        free = len(image.free_clusters())
        add_file(image, "FILL.BIN", bytes(free * CLUSTER_BYTES))
        assert fsck(image).ok
        with pytest.raises(DiskFull):
            add_file(image, "MORE.BIN", b"x")

    def test_duplicate_name_rejected(self, image):
        add_file(image, "A.TXT", b"first")
        with pytest.raises(DuplicateName):
            add_file(image, "A.TXT", b"second")

    def test_invalid_names_rejected(self, image):
        for bad in ("", "WAYTOOLONGNAME.TXT", "BAD NAME.TXT", "DOT..EXT", "A.LONGX"):
            with pytest.raises(InvalidName):
                add_file(image, bad, b"x")

    def test_83_packing(self):
        assert name_to_83("readme.txt") == b"README  TXT"
        assert name_to_83("KEY") == b"KEY        "
        assert name_to_83("~$CACHE.BIN") == b"~$CACHE BIN"

    def test_missing_file(self, image):
        with pytest.raises(NoSuchFile):
            read_file(image, "GHOST.BIN")


class TestSlackHiding:
    def test_round_trip_100_byte_carrier(self, image):
        rng = random.Random(1)
        carrier = bytes(rng.randrange(256) for _ in range(100))
        secret = bytes(rng.randrange(256) for _ in range(32))
        add_file(image, "TXN.DAT", carrier)
        hide_slack(image, "TXN.DAT", secret)
        assert extract_slack(image, "TXN.DAT") == secret

    def test_carrier_contents_unchanged(self, image):
        rng = random.Random(2)
        carrier = bytes(rng.randrange(256) for _ in range(100))
        add_file(image, "TXN.DAT", carrier)
        hide_slack(image, "TXN.DAT", bytes(32))
        assert read_file(image, "TXN.DAT") == carrier
        assert fsck(image).ok

    def test_exact_cluster_multiple_has_no_slack(self, image):
        add_file(image, "FULL.BIN", bytes(2 * CLUSTER_BYTES))
        with pytest.raises(InsufficientSlack):
            hide_slack(image, "FULL.BIN", b"s")

    def test_slack_needs_room_for_header(self, image):
        add_file(image, "TIGHT.BIN", bytes(CLUSTER_BYTES - 8))
        with pytest.raises(InsufficientSlack):
            hide_slack(image, "TIGHT.BIN", bytes(4))  # needs 9, only 8 left
        hide_slack(image, "TIGHT.BIN", bytes(3))
        assert extract_slack(image, "TIGHT.BIN") == bytes(3)

    def test_pristine_carrier_no_payload(self, image):
        add_file(image, "CLEAN.DAT", b"nothing hidden")
        with pytest.raises(NoPayload):
            extract_slack(image, "CLEAN.DAT")

    def test_each_corrupted_magic_byte_detected(self, image):
        rng = random.Random(3)
        add_file(image, "TXN.DAT", bytes(100))
        secret = bytes(rng.randrange(256) for _ in range(16))
        hide_slack(image, "TXN.DAT", secret)
        from airgaplab.mediahide import _slack_window

        start, _ = _slack_window(image, "TXN.DAT")
        for i in range(4):
            image.data[start + i] ^= 0xFF
            with pytest.raises(NoPayload):
                extract_slack(image, "TXN.DAT")
            image.data[start + i] ^= 0xFF
        assert extract_slack(image, "TXN.DAT") == secret

    def test_missing_carrier(self, image):
        with pytest.raises(NoSuchFile):
            hide_slack(image, "GHOST.BIN", b"s")

    def test_maximum_secret_size(self, image):
        rng = random.Random(7)
        secret = bytes(rng.randrange(256) for _ in range(250))
        add_file(image, "TXN.DAT", bytes(100))
        hide_slack(image, "TXN.DAT", secret)
        assert extract_slack(image, "TXN.DAT") == secret
        hide_entry(image, secret)
        assert extract_entry(image) == secret
        with pytest.raises(ValueError):
            hide_slack(image, "TXN.DAT", bytes(251))

    def test_extraction_idempotent_and_nonmutating(self, image):
        add_file(image, "TXN.DAT", bytes(100))
        hide_slack(image, "TXN.DAT", b"repeatable")
        snapshot = bytes(image.data)
        assert extract_slack(image, "TXN.DAT") == b"repeatable"
        assert extract_slack(image, "TXN.DAT") == b"repeatable"
        assert bytes(image.data) == snapshot


class TestEntryHiding:
    def test_round_trip(self, image):
        rng = random.Random(4)
        secret = bytes(rng.randrange(256) for _ in range(32))
        hide_entry(image, secret)
        assert extract_entry(image) == secret
        assert fsck(image).ok

    def test_hidden_from_filtered_listing(self, image):
        add_file(image, "VISIBLE.TXT", b"hello")
        hide_entry(image, b"secret")
        visible = [name for name, _, _ in list_files(image, include_hidden=False)]
        everything = [name for name, _, _ in list_files(image, include_hidden=True)]
        assert HIDDEN_ENTRY_NAME not in visible
        assert HIDDEN_ENTRY_NAME in everything

    def test_entry_carries_hidden_and_system_attributes(self, image):
        hide_entry(image, b"s")
        attr = next(a for n, _, a in list_files(image) if n == HIDDEN_ENTRY_NAME)
        assert attr & ATTR_HIDDEN and attr & ATTR_SYSTEM

    def test_custom_entry_name(self, image):
        hide_entry(image, b"alt", entry_name="~$TMP.SYS")
        assert extract_entry(image, entry_name="~$TMP.SYS") == b"alt"

    def test_absent_entry_no_payload(self, image):
        with pytest.raises(NoPayload):
            extract_entry(image)

    def test_plain_file_with_same_name_rejected(self, image):
        add_file(image, HIDDEN_ENTRY_NAME, b"BCN1\x01x")  # right bytes, wrong attrs
        with pytest.raises(NoPayload):
            extract_entry(image)

    @pytest.mark.parametrize("contents", [b"BCN", b"BCN1", b"BCN1\x03ab"], ids=["short-magic", "no-length", "one-short"])
    def test_truncated_payload_no_payload(self, image, contents):
        add_file(image, HIDDEN_ENTRY_NAME, contents, attr=ATTR_HIDDEN | ATTR_SYSTEM)
        with pytest.raises(NoPayload):
            extract_entry(image)


class TestFsck:
    def test_detects_desynchronized_fats(self, image):
        add_file(image, "A.BIN", bytes(5000))
        image.data[image.fat_offset(1) + 64] ^= 0x01
        report = fsck(image)
        assert not report.ok
        assert any("FAT copies differ" in f for f in report.findings)

    def test_detects_bad_signature(self, image):
        image.data[510] = 0
        assert not fsck(image).ok

    def test_detects_size_chain_disagreement(self, image):
        import struct

        from airgaplab.mediahide import _find_entry

        add_file(image, "A.BIN", bytes(3000))  # 2 clusters
        entry = _find_entry(image, "A.BIN")
        struct.pack_into("<I", image.data, entry + 28, 9000)  # lie about the size
        report = fsck(image)
        assert not report.ok
        assert any("clusters" in f for f in report.findings)

    def test_detects_cross_linked_chains(self, image):
        import struct

        from airgaplab.mediahide import _find_entry

        add_file(image, "A.BIN", bytes(3000))
        add_file(image, "B.BIN", bytes(3000))
        a_first = struct.unpack_from("<H", image.data, _find_entry(image, "A.BIN") + 26)[0]
        b_entry = _find_entry(image, "B.BIN")
        struct.pack_into("<H", image.data, b_entry + 26, a_first)
        report = fsck(image)
        assert not report.ok
        assert any("cross-linked" in f for f in report.findings)


class TestTransparency:
    def test_visible_files_unchanged_after_all_hiding(self, image):
        rng = random.Random(5)
        files = {
            f"FILE{i}.DAT": bytes(rng.randrange(256) for _ in range(rng.randint(1, 6000)))
            for i in range(5)
        }
        for name, contents in files.items():
            add_file(image, name, contents)
        secret = bytes(rng.randrange(256) for _ in range(32))
        hide_slack(image, "FILE0.DAT", secret)
        hide_entry(image, secret)
        for name, contents in files.items():
            assert read_file(image, name) == contents
        listed = {name for name, _, _ in list_files(image, include_hidden=False)}
        assert listed == set(files)
        assert fsck(image).ok
        assert extract_slack(image, "FILE0.DAT") == secret
        assert extract_entry(image) == secret


@lru_cache(maxsize=None)
def _populated_image() -> bytes:
    """A 4 MiB image with two files, a slack secret and a hidden entry."""
    img = create_image(4 * MIB)
    add_file(img, "TXN.DAT", bytes(range(256)) * 12)
    add_file(img, "NOTE.TXT", b"cold wallet notes\n" * 200)
    hide_slack(img, "TXN.DAT", bytes(range(32)))
    hide_entry(img, bytes(range(32)))
    return bytes(img.data)


def _hostile_flips():
    """(offset, xor) byte flips anywhere in the boot sector, both FATs or the root directory."""
    img = load_image(_populated_image())
    regions = [(0, 512), (img.fat_offset(0), img.root_offset), (img.root_offset, img.data_offset)]
    offset = st.one_of(*[st.integers(0, end - start - 1).map(lambda i, s=start: s + i) for start, end in regions])
    return st.lists(st.tuples(offset, st.integers(1, 255)), min_size=1, max_size=6)


class TestHostileImage:
    @settings(deadline=None, max_examples=300)
    @given(flips=_hostile_flips())
    def test_readers_raise_only_airgap_errors(self, flips):
        data = bytearray(_populated_image())
        for offset, xor in flips:
            data[offset] ^= xor
        try:
            img = load_image(bytes(data))
        except AirgapError:
            return
        readers = [
            list_files,
            fsck,
            lambda i: read_file(i, "TXN.DAT"),
            lambda i: read_file(i, "NOTE.TXT"),
            lambda i: extract_slack(i, "TXN.DAT"),
            extract_entry,
        ]
        for reader in readers:
            try:
                reader(img)
            except AirgapError:
                pass


def _fat_entries_oracle(data: bytes, img) -> list[list[int]]:
    """Every FAT entry of each copy, one `struct` unpack per entry."""
    entries = img.fat_sectors * 512 // 2
    return [
        [struct.unpack_from("<H", data, img.fat_offset(copy) + 2 * c)[0] for c in range(entries)]
        for copy in range(NUM_FATS)
    ]


def _fat_flips():
    """(offset, value) byte overwrites inside the two FAT copies."""
    img = load_image(_populated_image())
    offset = st.integers(img.fat_offset(0), img.root_offset - 1)
    return st.lists(st.tuples(offset, st.integers(0, 255)), min_size=1, max_size=8)


class TestFatView:
    @settings(deadline=None, max_examples=100)
    @given(flips=_fat_flips(), cluster=st.integers(2, 2040), value=st.integers(0, 0xFFFF))
    def test_fat_access_matches_bytewise_scan(self, flips, cluster, value):
        data = bytearray(_populated_image())
        for offset, byte in flips:
            data[offset] = byte
        img = load_image(bytes(data))
        fats = _fat_entries_oracle(bytes(data), img)
        assert img.fats.tolist() == fats
        assert [img.fat_get(c) for c in range(img.cluster_count + 2)] == fats[0][: img.cluster_count + 2]
        assert img.free_clusters() == [c for c in range(2, img.cluster_count + 2) if fats[0][c] == 0]
        assert ("FAT copies differ" in fsck(img).findings) == (fats[0] != fats[1])

        cluster = min(cluster, img.cluster_count + 1)
        img.fat_set(cluster, value)
        for entries in fats:
            entries[cluster] = value
        assert _fat_entries_oracle(bytes(img.data), img) == fats
