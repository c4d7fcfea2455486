"""Binary parameter container: exact layout and round-trips."""

import os
import struct

import numpy as np
import pytest

from dynssm.checkpoint import MAGIC, V1_DROPPED, VERSION, load_params, save_params
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

    @pytest.mark.parametrize("extents", [(2**32, 2**32), (2**63,), (0, 2**63)])
    def test_impossible_extents_rejected(self, tmp_path, extents):
        # 2**32 * 2**32 wraps to 0 in int64, and 2**63 overflows it
        path = tmp_path / "big.dyns"
        path.write_bytes(MAGIC + struct.pack("<I", VERSION) + struct.pack("<I", 1) + b"w"
                         + struct.pack(f"<I{len(extents)}Q", len(extents), *extents)
                         + b"\x00" * 16)
        with pytest.raises(ParseError, match="'w'"):
            load_params(path)


def with_version(path, version):
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", version)
    path.write_bytes(bytes(raw))


class TestVersions:
    RECORDS = {"encoder.attn.wk": np.ones(2), V1_DROPPED: np.full(2, 3.0),
               "encoder.attn.wv": np.zeros(2)}

    def test_v1_file_drops_only_the_key_bias(self, tmp_path):
        path = tmp_path / "v1.dyns"
        save_params(path, self.RECORDS)
        with_version(path, 1)
        assert list(load_params(path)) == ["encoder.attn.wk", "encoder.attn.wv"]

    def test_v2_file_keeps_every_record_in_order(self, tmp_path):
        path = tmp_path / "v2.dyns"
        save_params(path, self.RECORDS)
        assert list(load_params(path)) == list(self.RECORDS)


class TestCrashSafeWrites:
    def test_failed_rename_keeps_the_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "p.dyns"
        save_params(path, {"w": np.ones(3)})
        assert [p.name for p in tmp_path.iterdir()] == ["p.dyns"]
        before = path.read_bytes()

        def fail(src, dst):
            raise OSError("simulated crash before the rename")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="simulated"):
            save_params(path, {"w": np.zeros(3), "v": np.zeros(2)})
        assert path.read_bytes() == before
        assert np.array_equal(load_params(path)["w"], np.ones(3))
        assert [p.name for p in tmp_path.iterdir()] == ["p.dyns"]
