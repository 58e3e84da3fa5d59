"""Removable-media hiding: FAT16 images with secrets parked where nobody looks.

Two concealment paths over a byte-exact FAT16 layout:

  * file slack - the payload sits in the carrier file's final cluster after
    its end-of-file offset, so directory entry, size, and contents are
    untouched and any consistency check still passes;
  * hidden directory entry - a commodity-temp-file-looking name carrying
    hidden+system attributes, skipped by normal listings.

Images are plain `.img` byte buffers mountable by standard OS FAT drivers.
Everything (volume id, timestamps) is fixed, so identical operations yield
byte-identical images.  Mutating operations act on the caller's exclusively
owned image and return it; nothing here is safe for concurrent mutation of
one image, while reads and distinct images need no coordination.
"""

from __future__ import annotations

import struct
from contextlib import suppress
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DiskFull,
    DuplicateName,
    InsufficientSlack,
    InvalidName,
    MalformedInput,
    NoPayload,
    NoSuchFile,
    SizeOutOfRange,
)

BYTES_PER_SECTOR = 512
SECTORS_PER_CLUSTER = 4  # 2 KiB clusters
RESERVED_SECTORS = 1
NUM_FATS = 2
ROOT_ENTRIES = 512
MEDIA_DESCRIPTOR = 0xF8

MIN_IMAGE = 4 * 1024 * 1024
MAX_IMAGE = 64 * 1024 * 1024

# On-disk records (Microsoft FAT specification, fatgen103).  BPB: jump, OEM
# name, bytes/sector, sectors/cluster, reserved sectors, FAT count, root
# entries, 16-bit total sectors, media, sectors/FAT, sectors/track, heads,
# hidden sectors, 32-bit total sectors, drive number, boot signature, volume
# id, volume label, filesystem type.  Directory entry: 8.3 name, attributes,
# creation time and date, access date, write time and date, first cluster,
# size in bytes.
_BOOT = struct.Struct("<3s8sHBHBHHBHHHIIBxBI11s8s")
_DIRENT = struct.Struct("<11sB2xHHH2xHHHI")

CLUSTER_BYTES = BYTES_PER_SECTOR * SECTORS_PER_CLUSTER
ROOT_SECTORS = ROOT_ENTRIES * _DIRENT.size // BYTES_PER_SECTOR

FAT_FREE = 0x0000
FAT_BAD = 0xFFF7
FAT_EOC = 0xFFFF  # written end-of-chain; >= 0xFFF8 accepted on read

ATTR_READ_ONLY = 0x01
ATTR_HIDDEN = 0x02
ATTR_SYSTEM = 0x04
ATTR_VOLUME_ID = 0x08
ATTR_DIRECTORY = 0x10
ATTR_ARCHIVE = 0x20

PAYLOAD_MAGIC = b"BCN1"
MAX_SECRET = 250
HIDDEN_ENTRY_NAME = "~$CACHE.BIN"

# Fixed stamps keep image bytes reproducible run to run.
VOLUME_ID = 0x20180401
FIXED_DATE = ((2018 - 1980) << 9) | (4 << 5) | 1  # 2018-04-01
FIXED_TIME = 12 << 11  # 12:00:00

_NAME_CHARS = set("ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789!#$%&'()-@^_`{}~")


@dataclass
class FatImage:
    """A raw FAT16 volume plus its parsed geometry."""

    data: bytearray
    total_sectors: int = field(init=False)
    fat_sectors: int = field(init=False)
    cluster_count: int = field(init=False)
    # (NUM_FATS, entries) little-endian uint16 view of both FAT copies in `data`.
    fats: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._parse_geometry()

    def _parse_geometry(self) -> None:
        if len(self.data) < BYTES_PER_SECTOR:
            raise MalformedInput(f"{len(self.data)} bytes cannot hold a boot sector")
        (_, _, bps, spc, reserved, fats, roots, tot16, _, self.fat_sectors,
         _, _, _, tot32, *_) = _BOOT.unpack_from(self.data)
        if (bps, spc, reserved, fats, roots) != (
            BYTES_PER_SECTOR, SECTORS_PER_CLUSTER, RESERVED_SECTORS, NUM_FATS, ROOT_ENTRIES
        ):
            raise MalformedInput(
                f"unsupported geometry: {bps} B/sector, {spc} sectors/cluster, "
                f"{reserved} reserved sectors, {fats} FATs, {roots} root entries"
            )
        self.total_sectors = tot16 or tot32
        if self.total_sectors * BYTES_PER_SECTOR > len(self.data):
            raise MalformedInput(
                f"boot sector declares {self.total_sectors} sectors, image has {len(self.data)} bytes"
            )
        data_sectors = self.total_sectors - RESERVED_SECTORS - NUM_FATS * self.fat_sectors - ROOT_SECTORS
        if data_sectors < 0:
            raise MalformedInput(f"{self.fat_sectors}-sector FATs and root directory overrun the volume")
        self.cluster_count = data_sectors // SECTORS_PER_CLUSTER
        entries = self.fat_sectors * BYTES_PER_SECTOR // 2
        if entries < self.cluster_count + 2:
            raise MalformedInput(f"{self.fat_sectors}-sector FAT cannot map {self.cluster_count} clusters")
        self.fats = np.frombuffer(
            self.data, "<u2", NUM_FATS * entries, self.fat_offset(0)
        ).reshape(NUM_FATS, entries)

    # -- region offsets (bytes) --

    def fat_offset(self, copy: int) -> int:
        return (RESERVED_SECTORS + copy * self.fat_sectors) * BYTES_PER_SECTOR

    @property
    def root_offset(self) -> int:
        return (RESERVED_SECTORS + NUM_FATS * self.fat_sectors) * BYTES_PER_SECTOR

    @property
    def data_offset(self) -> int:
        return self.root_offset + ROOT_ENTRIES * _DIRENT.size

    def cluster_offset(self, cluster: int) -> int:
        if not 2 <= cluster < self.cluster_count + 2:
            raise ValueError(f"cluster {cluster} out of range")
        return self.data_offset + (cluster - 2) * CLUSTER_BYTES

    # -- FAT access through `fats` (writes mirror into both copies) --

    def fat_get(self, cluster: int) -> int:
        return int(self.fats[0, cluster])

    def fat_set(self, cluster: int, value: int) -> None:
        self.fats[:, cluster] = value

    def free_clusters(self) -> list[int]:
        return (np.flatnonzero(self.fats[0, 2 : self.cluster_count + 2] == FAT_FREE) + 2).tolist()

    def chain(self, first: int) -> list[int]:
        out = []
        cluster = first
        cap = self.cluster_count + 4
        while 2 <= cluster < self.cluster_count + 2:
            out.append(cluster)
            if len(out) > cap:
                raise MalformedInput(f"cluster chain from {first} exceeds {cap} links (loop?)")
            cluster = self.fat_get(cluster)
            if cluster >= 0xFFF8:
                return out
        raise MalformedInput(f"chain from {first} ends in invalid entry 0x{cluster:04X}")


def create_image(total_size: int) -> FatImage:
    """Freshly formatted FAT16 volume: 512-byte sectors, 2 KiB clusters."""
    if not MIN_IMAGE <= total_size <= MAX_IMAGE:
        raise SizeOutOfRange(f"image size {total_size} outside {MIN_IMAGE}..{MAX_IMAGE}")
    if total_size % BYTES_PER_SECTOR:
        raise SizeOutOfRange(f"image size {total_size} is not sector-aligned")
    total_sectors = total_size // BYTES_PER_SECTOR

    fat_sectors = 1
    for _ in range(8):  # fixpoint: FAT size depends on cluster count and vice versa
        data_sectors = total_sectors - RESERVED_SECTORS - NUM_FATS * fat_sectors - ROOT_SECTORS
        clusters = data_sectors // SECTORS_PER_CLUSTER
        needed = -(-((clusters + 2) * 2) // BYTES_PER_SECTOR)
        if needed == fat_sectors:
            break
        fat_sectors = needed

    img = bytearray(total_size)
    small = total_sectors < 0x10000  # else the 32-bit total-sectors field holds it
    _BOOT.pack_into(
        img, 0, b"\xEB\x3C\x90", b"MSDOS5.0", BYTES_PER_SECTOR, SECTORS_PER_CLUSTER,
        RESERVED_SECTORS, NUM_FATS, ROOT_ENTRIES, total_sectors if small else 0, MEDIA_DESCRIPTOR,
        fat_sectors, 32, 64, 0, 0 if small else total_sectors, 0x80, 0x29, VOLUME_ID,
        b"NO NAME    ", b"FAT16   ",
    )
    img[510:512] = b"\x55\xAA"

    image = FatImage(img)
    image.fat_set(0, 0xFF00 | MEDIA_DESCRIPTOR)
    image.fat_set(1, 0xFFFF)
    return image


def load_image(raw: bytes) -> FatImage:
    return FatImage(bytearray(raw))


def name_to_83(name: str) -> bytes:
    """Validate and pack a DOS 8.3 filename into its 11-byte on-disk form."""
    name = name.upper()
    if "." in name:
        stem, _, ext = name.partition(".")
    else:
        stem, ext = name, ""
    if not 1 <= len(stem) <= 8 or len(ext) > 3 or "." in ext:
        raise InvalidName(f"{name!r} is not a valid 8.3 name")
    for ch in stem + ext:
        if ch not in _NAME_CHARS:
            raise InvalidName(f"character {ch!r} not allowed in 8.3 names")
    return stem.ljust(8).encode("ascii") + ext.ljust(3).encode("ascii")


def name_from_83(raw: bytes) -> str:
    try:
        stem = raw[:8].decode("ascii").rstrip()
        ext = raw[8:11].decode("ascii").rstrip()
    except UnicodeDecodeError:
        raise MalformedInput(f"directory entry name {bytes(raw[:11])!r} is not ASCII") from None
    return f"{stem}.{ext}" if ext else stem


def _iter_root(img: FatImage):
    """Yield (entry_offset, raw_name, attr) for every used root entry."""
    for off in range(img.root_offset, img.data_offset, _DIRENT.size):
        raw, attr = _DIRENT.unpack_from(img.data, off)[:2]
        if raw[0] == 0x00:
            return
        if raw[0] == 0xE5:
            continue
        yield off, raw, attr


def _find_entry(img: FatImage, name: str) -> int:
    packed = name_to_83(name)
    for off, raw, attr in _iter_root(img):
        if raw == packed and not attr & ATTR_VOLUME_ID:
            return off
    raise NoSuchFile(f"{name!r} not found in root directory")


def _extent(img: FatImage, off: int) -> tuple[int, int]:
    """(first cluster, size in bytes) of the root entry at `off`."""
    return _DIRENT.unpack_from(img.data, off)[-2:]


def _free_root_slot(img: FatImage) -> int:
    for off in range(img.root_offset, img.data_offset, _DIRENT.size):
        if img.data[off] in (0x00, 0xE5):
            return off
    raise DiskFull("root directory is full")


def list_files(img: FatImage, include_hidden: bool = True) -> list[tuple[str, int, int]]:
    """(name, size, attr) for each root file, optionally skipping hidden ones."""
    out = []
    for off, raw, attr in _iter_root(img):
        if attr & ATTR_VOLUME_ID:
            continue
        if not include_hidden and attr & ATTR_HIDDEN:
            continue
        out.append((name_from_83(raw), _extent(img, off)[1], attr))
    return out


def add_file(img: FatImage, name: str, contents: bytes, attr: int = ATTR_ARCHIVE) -> FatImage:
    """Create a root-directory file; returns the (mutated) image."""
    with suppress(NoSuchFile):
        _find_entry(img, name)
        raise DuplicateName(f"{name!r} already exists")
    needed = -(-len(contents) // CLUSTER_BYTES)
    free = img.free_clusters()
    if len(free) < needed:
        raise DiskFull(f"{needed} clusters needed, {len(free)} free")
    slot = _free_root_slot(img)
    clusters = free[:needed]
    for i, cluster in enumerate(clusters):
        img.fat_set(cluster, clusters[i + 1] if i + 1 < needed else FAT_EOC)
        start = img.cluster_offset(cluster)
        chunk = contents[i * CLUSTER_BYTES : (i + 1) * CLUSTER_BYTES]
        img.data[start : start + CLUSTER_BYTES] = chunk.ljust(CLUSTER_BYTES, b"\x00")
    _DIRENT.pack_into(
        img.data, slot, name_to_83(name), attr, FIXED_TIME, FIXED_DATE, FIXED_DATE,
        FIXED_TIME, FIXED_DATE, clusters[0] if clusters else 0, len(contents),
    )
    return img


def read_file(img: FatImage, name: str) -> bytes:
    first, size = _extent(img, _find_entry(img, name))
    if size == 0:
        return b""
    out = bytearray()
    for cluster in img.chain(first):
        start = img.cluster_offset(cluster)
        out += img.data[start : start + CLUSTER_BYTES]
    return bytes(out[:size])


def _slack_window(img: FatImage, name: str) -> tuple[int, int]:
    """(byte offset of slack start, slack length) for a carrier file."""
    first, size = _extent(img, _find_entry(img, name))
    slack = (CLUSTER_BYTES - size % CLUSTER_BYTES) % CLUSTER_BYTES
    if size == 0 or slack == 0:
        return 0, 0
    last_cluster = img.chain(first)[-1]
    return img.cluster_offset(last_cluster) + size % CLUSTER_BYTES, slack


def _seal(secret: bytes) -> bytes:
    """The hidden payload: magic, one length byte, then the secret."""
    if len(secret) > MAX_SECRET:
        raise ValueError(f"secret exceeds {MAX_SECRET} bytes")
    return PAYLOAD_MAGIC + bytes([len(secret)]) + secret


def _unseal(buf: bytes) -> bytes:
    """The secret of a payload that `_seal` wrote at the start of `buf`."""
    if len(buf) < 5 or buf[:4] != PAYLOAD_MAGIC:
        raise NoPayload("payload magic absent")
    length = buf[4]
    if 5 + length > len(buf):
        raise NoPayload(f"declared length {length} exceeds the {len(buf) - 5} bytes after the header")
    return buf[5 : 5 + length]


def hide_slack(img: FatImage, carrier_name: str, secret: bytes) -> FatImage:
    """Park magic+length+secret in the carrier's final-cluster slack."""
    payload = _seal(secret)
    start, slack = _slack_window(img, carrier_name)
    if slack < len(payload):
        raise InsufficientSlack(f"{slack} slack bytes < {len(payload)} payload bytes")
    img.data[start : start + len(payload)] = payload
    return img


def extract_slack(img: FatImage, carrier_name: str) -> bytes:
    start, slack = _slack_window(img, carrier_name)
    return _unseal(bytes(img.data[start : start + slack]))


def hide_entry(img: FatImage, secret: bytes, entry_name: str = HIDDEN_ENTRY_NAME) -> FatImage:
    """Stash the payload in a hidden+system temp-file-looking entry."""
    return add_file(img, entry_name, _seal(secret), attr=ATTR_HIDDEN | ATTR_SYSTEM)


def extract_entry(img: FatImage, entry_name: str = HIDDEN_ENTRY_NAME) -> bytes:
    try:
        off = _find_entry(img, entry_name)
    except NoSuchFile:
        raise NoPayload(f"hidden entry {entry_name!r} absent") from None
    attr = _DIRENT.unpack_from(img.data, off)[1]
    if not (attr & ATTR_HIDDEN and attr & ATTR_SYSTEM):
        raise NoPayload(f"{entry_name!r} lacks hidden+system attributes")
    return _unseal(read_file(img, entry_name))


@dataclass
class FsckReport:
    ok: bool
    findings: list[str]


def fsck(img: FatImage) -> FsckReport:
    """Consistency check: signature, FAT mirroring, chains, sizes, cross-links."""
    findings: list[str] = []
    if bytes(img.data[510:512]) != b"\x55\xAA":
        findings.append("boot sector signature missing")
    if not np.array_equal(img.fats[0], img.fats[1]):
        findings.append("FAT copies differ")
    if img.fat_get(0) & 0xFF != MEDIA_DESCRIPTOR:
        findings.append("FAT[0] does not carry the media descriptor")

    owner: dict[int, str] = {}
    for off, raw, attr in _iter_root(img):
        if attr & ATTR_VOLUME_ID:
            continue
        name = name_from_83(raw)
        first, size = _extent(img, off)
        if size == 0:
            if first != 0:
                findings.append(f"{name}: zero-size file owns cluster {first}")
            continue
        if first == 0:
            findings.append(f"{name}: nonzero size but no cluster chain")
            continue
        try:
            clusters = img.chain(first)
        except ValueError as exc:
            findings.append(f"{name}: {exc}")
            continue
        for cluster in clusters:
            if cluster in owner:
                findings.append(f"{name}: cluster {cluster} cross-linked with {owner[cluster]}")
            owner[cluster] = name
        expected = -(-size // CLUSTER_BYTES)
        if len(clusters) != expected:
            findings.append(
                f"{name}: size {size} needs {expected} clusters, chain has {len(clusters)}"
            )
    return FsckReport(not findings, findings)
