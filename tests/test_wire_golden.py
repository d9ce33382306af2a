"""Golden frames: the wire codec's exact bytes, pinned.

Every value type, and request, reply and error frames, encode to the
bytes recorded here.  An encoder rewrite (for speed, say) must keep
them byte-identical — changing them is a wire version bump, not a
refactor.  Each value is encoded as a reply frame with request id 9.
"""

from __future__ import annotations

import pytest

from repro.block.server import TasResult
from repro.block.sharding import PlacementMap, ShardRange
from repro.block.stable import _Intention
from repro.capability import Capability
from repro.core.cache import Lease
from repro.core.service import VersionHandle
from repro.errors import CommitConflict
from repro.net import wire

CAP = Capability(port=0x1234_5678_9ABC, obj=42, rights=0xFF, check=0xDEAD_BEEF_CAFE)
FILE = Capability(port=0x1234_5678_9ABC, obj=7, rights=0x0F, check=0x1)

VALUES = {
    "none": None,
    "true": True,
    "false": False,
    "int_zero": 0,
    "int_small": 127,
    "int_edge": 128,
    "int_neg": -129,
    "int_big": 1 << 200,
    "int_bigneg": -(1 << 100),
    "float": 3.25,
    "bytes": b"\x00page\xff",
    "bytearray": bytearray(b"ba"),
    "memoryview": memoryview(b"mv"),
    "str": "päth/☃",
    "list": [1, "a", b"b", None],
    "tuple": ("0/1", b"data"),
    "dict": {"k": [1, (2, 3)], 5: {b"x": False}},
    "cap": CAP,
    "handle": VersionHandle(CAP, FILE),
    "tas": TasResult(True, b"\x01\x02"),
    "intention": _Intention("write", 3, 99, b"blk"),
    "lease": Lease(5, 1000),
    "placement": PlacementMap(
        2, (ShardRange(1, 100, 0x10), ShardRange(101, 200, 0x11))
    ),
    "nested": [[[(1, [b"deep"])]]],
}

GOLDEN = {
    "none": "41460202000000090000000100",
    "true": "41460202000000090000000101",
    "false": "41460202000000090000000102",
    "int_zero": "414602020000000900000003030100",
    "int_small": "41460202000000090000000303017f",
    "int_edge": "41460202000000090000000403020080",
    "int_neg": "4146020200000009000000040302ff7f",
    "int_big": (
        "41460202000000090000001c031a010000000000000000000000000000000000"
        "0000000000000000"
    ),
    "int_bigneg": "41460202000000090000000f030df0000000000000000000000000",
    "float": "41460202000000090000000904400a000000000000",
    "bytes": "41460202000000090000000b05000000060070616765ff",
    "bytearray": "41460202000000090000000705000000026261",
    "memoryview": "41460202000000090000000705000000026d76",
    "str": "41460202000000090000000e060000000970c3a474682fe29883",
    "list": "414602020000000900000015070000000403010106000000016105000000016200",
    "tuple": "41460202000000090000001608000000020600000003302f31050000000464617461",
    "dict": (
        "41460202000000090000002d090000000206000000016b070000000203010108"
        "00000002030102030103030105090000000105000000017802"
    ),
    "cap": "4146020200000009000000170a123456789abc000000000000002a00ffdeadbeefcafe",
    "handle": (
        "41460202000000090000002d0b123456789abc000000000000002a00ffdeadbe"
        "efcafe123456789abc0000000000000007000f000000000001"
    ),
    "tas": "4146020200000009000000080c01000000020102",
    "intention": (
        "4146020200000009000000190d06000000057772697465030103030163050000"
        "0003626c6b"
    ),
    "lease": "4146020200000009000000080e030105030203e8",
    "placement": (
        "41460202000000090000001b0f03010200000002030101030164030110030165"
        "030200c8030111"
    ),
    "nested": (
        "4146020200000009000000250700000001070000000107000000010800000002"
        "0301010700000001050000000464656570"
    ),
}

# A commit request carrying two page writes (request id 77).
GOLDEN_REQUEST = (
    "414602010000004d0000007f08000000030600000004686f7374060000000663"
    "6f6d6d69740900000002060000000b76657273696f6e5f6361700a123456789a"
    "bc000000000000002a00ffdeadbeefcafe060000000677726974657307000000"
    "02080000000206000000000500000004726f6f7408000000020600000003302f"
    "3305000000057878787878"
)
GOLDEN_ERROR = (
    "41460203000000030000002a0800000002060000000e436f6d6d6974436f6e66"
    "6c696374060000000d6c6f7374207468652072616365"
)
GOLDEN_BUILTIN_ERROR = (
    "41460203000000040000001c0800000002060000000a56616c75654572726f72"
    "0600000003626164"
)


def test_every_value_type_is_pinned():
    assert set(GOLDEN) == set(VALUES)


@pytest.mark.parametrize("name", sorted(VALUES))
def test_reply_frame_bytes(name):
    frame = wire.encode_reply(VALUES[name], request_id=9)
    assert frame.hex() == GOLDEN[name]
    assert wire.encode_value(VALUES[name]) == frame[wire.HEADER_SIZE :]


def test_request_frame_bytes():
    params = {"version_cap": CAP, "writes": [("", b"root"), ("0/3", b"x" * 5)]}
    frame = wire.encode_request("host", "commit", params, request_id=77)
    assert frame.hex() == GOLDEN_REQUEST
    assert wire.decode_request(frame[wire.HEADER_SIZE :]) == (
        "host",
        "commit",
        {"version_cap": CAP, "writes": [("", b"root"), ("0/3", b"xxxxx")]},
    )


def test_error_frame_bytes():
    assert (
        wire.encode_error(CommitConflict("lost the race"), request_id=3).hex()
        == GOLDEN_ERROR
    )
    assert wire.encode_error(ValueError("bad"), request_id=4).hex() == (
        GOLDEN_BUILTIN_ERROR
    )


def test_encode_value_appends_to_a_given_buffer():
    out = bytearray(b"prefix")
    assert wire.encode_value(None, out) == b"prefix\x00"
    assert out == b"prefix\x00"


def test_write_size_matches_the_encoding():
    for path, data in [("", b""), ("0/3", b"x" * 100), ("ä", b"\x00")]:
        entry = wire.encode_value([(path, data)])[5:]  # drop the list header
        assert wire.write_size(path, data) == len(entry)
