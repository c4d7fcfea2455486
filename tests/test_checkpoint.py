"""Binary parameter container: exact layout and round-trips."""

import struct

import numpy as np
import pytest

from dynssm.checkpoint import MAGIC, VERSION, load_params, save_params
from dynssm.errors import ParseError


class TestContainerLayout:
    def test_header_bytes(self, tmp_path):
        path = tmp_path / "p.dyns"
        save_params(path, {"w": np.array([1.0, 2.0])})
        raw = path.read_bytes()
        assert raw[:4] == b"DYNS"
        assert struct.unpack_from("<I", raw, 4)[0] == VERSION

    def test_record_layout(self, tmp_path):
        path = tmp_path / "p.dyns"
        arr = np.arange(6.0).reshape(2, 3)
        save_params(path, {"ab": arr})
        raw = path.read_bytes()
        pos = 8
        name_len = struct.unpack_from("<I", raw, pos)[0]
        assert name_len == 2
        assert raw[pos + 4:pos + 6] == b"ab"
        rank = struct.unpack_from("<I", raw, pos + 6)[0]
        assert rank == 2
        extents = struct.unpack_from("<2Q", raw, pos + 10)
        assert extents == (2, 3)
        payload = np.frombuffer(raw, dtype="<f8", count=6, offset=pos + 26)
        assert np.array_equal(payload.reshape(2, 3), arr)

    def test_round_trip_many_params(self, tmp_path):
        rng = np.random.default_rng(0)
        params = {
            "scalarish": rng.normal(size=(1,)),
            "matrix": rng.normal(size=(4, 5)),
            "tensor3": rng.normal(size=(2, 3, 4)),
            "lora.block0.q.A": rng.normal(size=(2, 8)),
            "unicode_名前": rng.normal(size=(3,)),
        }
        path = tmp_path / "many.dyns"
        save_params(path, params)
        back = load_params(path)
        assert set(back) == set(params)
        for k in params:
            assert np.array_equal(back[k], params[k])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.dyns"
        path.write_bytes(b"NOPE" + b"\x00" * 10)
        with pytest.raises(ParseError, match="magic"):
            load_params(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v.dyns"
        path.write_bytes(MAGIC + struct.pack("<I", 999))
        with pytest.raises(ParseError, match="version"):
            load_params(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.dyns"
        save_params(path, {"w": np.ones(8)})
        raw = path.read_bytes()
        (tmp_path / "t2.dyns").write_bytes(raw[:-8])
        with pytest.raises(ParseError):
            load_params(tmp_path / "t2.dyns")

    def test_duplicate_name_rejected(self, tmp_path):
        first, second = tmp_path / "a.dyns", tmp_path / "b.dyns"
        save_params(first, {"x": np.zeros(2)})
        save_params(second, {"x": np.ones(2)})
        joined = tmp_path / "dup.dyns"
        joined.write_bytes(first.read_bytes() + second.read_bytes()[8:])
        with pytest.raises(ParseError, match="duplicate.*'x'"):
            load_params(joined)
