import struct

import numpy as np
import pytest

from fungi import store


def sample_sections():
    rng = np.random.default_rng(0)
    return {
        "weights": rng.normal(size=(4, 5)).astype(np.float32),
        "labels": np.arange(7, dtype=np.int32),
        "mask": (rng.random((3, 3)) * 255).astype(np.uint8),
        "precise": rng.normal(size=6),
        "note": store.encode_text("hello κόσμε"),
    }


class TestRoundTrip:
    def test_values_and_order_preserved(self, tmp_path):
        path = tmp_path / "t.fngi"
        sections = sample_sections()
        store.write_sections(path, sections)
        back = store.read_sections(path, ())
        assert list(back) == list(sections)
        for name in sections:
            np.testing.assert_array_equal(back[name], sections[name])
            assert back[name].dtype == sections[name].dtype
        assert store.decode_text(back["note"]) == "hello κόσμε"

    def test_write_read_write_is_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.fngi", tmp_path / "b.fngi"
        store.write_sections(p1, sample_sections())
        store.write_sections(p2, store.read_sections(p1, ()))
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("dtype", [np.int64, np.float16, np.bool_])
    def test_untagged_dtype_refused(self, tmp_path, dtype):
        path = tmp_path / "c.fngi"
        sections = {"ok": np.ones(2, dtype=np.float32), "x": np.arange(4).astype(dtype)}
        with pytest.raises(store.StoreError, match=rf"^section 'x' has unsupported dtype {np.dtype(dtype)}$"):
            store.write_sections(path, sections)
        assert list(tmp_path.iterdir()) == []


class TestValidation:
    def test_missing_required_sections_named(self, tmp_path):
        path = tmp_path / "r.fngi"
        store.write_sections(path, sample_sections())
        assert list(store.read_sections(path, ("labels", "note"))) == list(sample_sections())
        with pytest.raises(store.StoreError, match=r"r\.fngi: missing required section\(s\) 'images', 'masks'$"):
            store.read_sections(path, ("images", "labels", "masks"))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.fngi"
        path.write_bytes(b"NOPE" + bytes(16))
        with pytest.raises(store.StoreError):
            store.read_sections(path, ())

    def test_crc_corruption_detected(self, tmp_path):
        path = tmp_path / "c.fngi"
        store.write_sections(path, {"x": np.ones(8, dtype=np.float32)})
        raw = bytearray(path.read_bytes())
        raw[-10] ^= 0xFF  # flip a payload byte
        path.write_bytes(bytes(raw))
        with pytest.raises(store.StoreError):
            store.read_sections(path, ())

    def test_unknown_dtype_section_rejected(self, tmp_path):
        path = tmp_path / "u.fngi"
        store.write_sections(path, {"keep": np.ones(2, dtype=np.float32)})
        raw = bytearray(path.read_bytes())
        # append a section with dtype tag 250 (unknown)
        name = b"future"
        payload = b"\x01\x02\x03\x04"
        extra = struct.pack("<H", len(name)) + name
        extra += struct.pack("<BB", 250, 1)
        extra += struct.pack("<Q", 4)
        extra += struct.pack("<Q", len(payload)) + payload
        extra += struct.pack("<I", __import__("zlib").crc32(payload))
        raw += extra
        count = struct.unpack_from("<I", raw, 6)[0]
        struct.pack_into("<I", raw, 6, count + 1)
        path.write_bytes(bytes(raw))
        with pytest.raises(store.StoreError, match="unknown dtype tag 250 in section 'future'"):
            store.read_sections(path, ())

    def test_newer_version_rejected(self, tmp_path):
        # a reader takes its own version only: newer and older ones alike are refused
        path = tmp_path / "v.fngi"
        store.write_sections(path, {"x": np.ones(1, dtype=np.float32)})
        for version in (99, store.FORMAT_VERSION - 1):
            raw = bytearray(path.read_bytes())
            struct.pack_into("<H", raw, 4, version)
            bad = tmp_path / f"v{version}.fngi"
            bad.write_bytes(bytes(raw))
            with pytest.raises(store.StoreError, match=f"unsupported format version {version}"):
                store.read_sections(bad, ())


class TestMalformedFiles:
    def test_every_truncation_and_bit_flip_reads_or_raises_store_error(self, tmp_path):
        good = tmp_path / "good.fngi"
        store.write_sections(good, {
            "w": np.arange(6, dtype=np.float32).reshape(2, 3),
            "note": store.encode_text("ok"),
        })
        raw = good.read_bytes()
        bad = tmp_path / "bad.fngi"
        for length in range(len(raw)):
            bad.write_bytes(raw[:length])
            with pytest.raises(store.StoreError):
                store.read_sections(bad, ())
        for bit in range(8 * len(raw)):
            flipped = bytearray(raw)
            flipped[bit // 8] ^= 1 << (bit % 8)
            bad.write_bytes(bytes(flipped))
            try:
                store.read_sections(bad, ())
            except store.StoreError:
                pass
