"""Kernel parity: every selectable DES kernel must equal the reference.

The fast kernel (fused SP tables, cached forward/reverse key schedules,
bulk entry points) and the numpy vector kernel (all 16 rounds as ndarray
gathers over whole buffers) exist purely for throughput -- benchmark C10
-- so these tests pin the one property that makes them admissible:
byte-identical output, identical operation counts, on the FIPS
known-answer vectors and on randomized inputs.  The reference kernel is
the FIPS oracle, not a selectable kernel, so it is called directly via
:func:`reference_crypt`.  When numpy is absent the vector kernel silently
drops out of the parametrised matrix (and the selection machinery must
fall back to ``fast``, which is tested too).
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import des as des_module
from repro.crypto.base import CountingBlockCipher
from repro.crypto.des import (
    DES,
    FastDESKernel,
    ReferenceDESKernel,
    default_kernel,
    schedule_derivations,
    set_default_kernel,
    vector_available,
)
from repro.crypto.modes import CBCCipher, ECBCipher
from repro.exceptions import KeyError_, MessageRangeError

from test_des import KAT_VECTORS  # same directory; pytest puts it on sys.path

KERNELS = ("fast",) + (("vector",) if vector_available() else ())


def reference_crypt(key: bytes, data: bytes, decrypt: bool = False) -> bytes:
    """``data`` through :class:`ReferenceDESKernel` under ``key``'s schedule."""
    des = DES(key)
    subkeys = des._subkeys_dec if decrypt else des._subkeys
    return ReferenceDESKernel.crypt_blocks(data, subkeys)


def kat_block(kernel: str, key: bytes, block: bytes, decrypt: bool) -> bytes:
    """One block through ``kernel``: the FIPS oracle is called directly."""
    if kernel != "reference":
        des = DES(key, kernel=kernel)
        return des.decrypt_block(block) if decrypt else des.encrypt_block(block)
    des = DES(key)
    subkeys = des._subkeys_dec if decrypt else des._subkeys
    value = ReferenceDESKernel.crypt_block(int.from_bytes(block, "big"), subkeys)
    return value.to_bytes(8, "big")


class TestKnownAnswersBothKernels:
    @pytest.mark.parametrize("kernel", KERNELS + ("reference",))
    @pytest.mark.parametrize("key_hex,plain_hex,cipher_hex", KAT_VECTORS)
    def test_encrypt(self, kernel, key_hex, plain_hex, cipher_hex):
        out = kat_block(kernel, bytes.fromhex(key_hex), bytes.fromhex(plain_hex), False)
        assert out == bytes.fromhex(cipher_hex)

    @pytest.mark.parametrize("kernel", KERNELS + ("reference",))
    @pytest.mark.parametrize("key_hex,plain_hex,cipher_hex", KAT_VECTORS)
    def test_decrypt(self, kernel, key_hex, plain_hex, cipher_hex):
        out = kat_block(kernel, bytes.fromhex(key_hex), bytes.fromhex(cipher_hex), True)
        assert out == bytes.fromhex(plain_hex)

    @pytest.mark.parametrize("key_hex,plain_hex,cipher_hex", KAT_VECTORS)
    def test_bulk_kat(self, key_hex, plain_hex, cipher_hex):
        """The whole vector table as one buffer through each bulk path."""
        plains = b"".join(bytes.fromhex(p) for _, p, _ in KAT_VECTORS)
        for kernel in KERNELS:
            des = DES(bytes.fromhex(key_hex), kernel=kernel)
            expected = b"".join(
                des.encrypt_block(plains[off : off + 8])
                for off in range(0, len(plains), 8)
            )
            assert des.encrypt_blocks(plains) == expected
            assert des.decrypt_blocks(expected) == plains


class TestCrossKernelParity:
    @given(st.binary(min_size=8, max_size=8), st.binary(min_size=8, max_size=8))
    @settings(max_examples=60)
    def test_single_block_identical(self, key, block):
        fast = DES(key, kernel="fast")
        ct_fast, ct_ref = fast.encrypt_block(block), reference_crypt(key, block)
        assert ct_fast == ct_ref
        assert fast.decrypt_block(ct_fast) == block
        assert reference_crypt(key, ct_ref, decrypt=True) == block

    @given(st.binary(min_size=8, max_size=8), st.binary(min_size=0, max_size=40))
    @settings(max_examples=60)
    def test_bulk_identical(self, key, raw):
        data = raw[: len(raw) - len(raw) % 8]
        for kernel in KERNELS:
            des = DES(key, kernel=kernel)
            assert des.encrypt_blocks(data) == reference_crypt(key, data)
            assert des.decrypt_blocks(data) == reference_crypt(key, data, True)

    def test_kernels_expose_names(self):
        assert FastDESKernel.name == "fast"
        assert DES(b"k" * 8, kernel="fast").kernel == "fast"


class TestBulkApi:
    def test_accepts_sequences_of_blocks(self):
        des = DES(b"\x01" * 8)
        blocks = [bytes([i]) * 8 for i in range(5)]
        assert des.encrypt_blocks(blocks) == des.encrypt_blocks(b"".join(blocks))

    def test_rejects_partial_blocks(self):
        des = DES(b"\x01" * 8)
        with pytest.raises(MessageRangeError):
            des.encrypt_blocks(b"not a multiple")
        with pytest.raises(MessageRangeError):
            des.decrypt_blocks(b"seven b")

    def test_empty_buffer(self):
        des = DES(b"\x01" * 8)
        assert des.encrypt_blocks(b"") == b""
        assert des.decrypt_blocks(b"") == b""

    def test_counting_wrapper_counts_per_cipher_block(self):
        """Bulk and per-block paths must report identical op counts."""
        data = bytes(range(64))
        per_block = CountingBlockCipher(DES(b"\x02" * 8, kernel="fast"))
        for off in range(0, len(data), 8):
            per_block.encrypt_block(data[off : off + 8])
        bulk = CountingBlockCipher(DES(b"\x02" * 8, kernel="fast"))
        bulk.encrypt_blocks(data)
        assert per_block.counts.snapshot() == bulk.counts.snapshot()
        bulk.decrypt_blocks(data)
        assert bulk.counts.decryptions == 8

    def test_counts_identical_across_kernels(self):
        data = bytes(range(8)) * 40  # past the vector kernel's threshold
        snaps = []
        for kernel in KERNELS:
            counting = CountingBlockCipher(DES(b"\x03" * 8, kernel=kernel))
            counting.encrypt_blocks(data)
            counting.decrypt_blocks(data)
            snaps.append(counting.counts.snapshot())
        assert all(snap == snaps[0] for snap in snaps)


class TestScheduleDerivation:
    """Regression: the key schedule is derived once per key object.

    The classic per-block overhead was re-deriving (or re-reversing) the
    schedule inside chaining loops; a thousand-block stream must cost
    exactly the derivations of its key objects, nothing per block.
    """

    def test_one_derivation_per_key_object(self):
        before = schedule_derivations()
        des = DES(b"\x07" * 8)
        assert schedule_derivations() == before + 1
        for off in range(100):
            des.encrypt_block(off.to_bytes(8, "big"))
            des.decrypt_block(off.to_bytes(8, "big"))
        des.encrypt_blocks(b"\x00" * 800)
        des.decrypt_blocks(b"\x00" * 800)
        assert schedule_derivations() == before + 1

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_chaining_modes_reuse_the_schedule(self, kernel):
        des = DES(b"\x09" * 8, kernel=kernel)
        payload = bytes(range(256)) * 4  # 128 cipher blocks
        before = schedule_derivations()
        ecb = ECBCipher(des)
        assert ecb.decrypt(ecb.encrypt(payload)) == payload
        cbc = CBCCipher(des, iv=b"\xaa" * 8)
        assert cbc.decrypt(cbc.encrypt(payload)) == payload
        assert schedule_derivations() == before, (
            "a chaining mode re-derived the key schedule mid-stream"
        )


class TestKernelSelection:
    def test_default_kernel_follows_environment(self):
        # unset, the default is the best available kernel; CI also forces
        # one via REPRO_DES_KERNEL, and asking for the vector kernel on a
        # host without numpy falls back to fast
        best = "vector" if vector_available() else "fast"
        expected = os.environ.get("REPRO_DES_KERNEL", best)
        if expected == "vector" and not vector_available():
            expected = "fast"
        assert default_kernel() == expected
        assert DES(b"k" * 8).kernel == expected

    @pytest.mark.parametrize(
        "numpy_present, requested, expected",
        [
            (False, None, "fast"),
            (False, "vector", "fast"),
            (False, "fast", "fast"),
            (True, None, "vector"),
            (True, "fast", "fast"),
        ],
    )
    def test_import_time_default(self, numpy_present, requested, expected):
        # a fresh interpreter, so the import-time rule runs for real;
        # a None entry in sys.modules makes ``import numpy`` fail
        if numpy_present and not vector_available():
            pytest.skip("numpy is not installed")
        env = {k: v for k, v in os.environ.items() if k != "REPRO_DES_KERNEL"}
        if requested is not None:
            env["REPRO_DES_KERNEL"] = requested
        src = os.path.join(os.path.dirname(des_module.__file__), "..", "..")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p
        )
        block = "" if numpy_present else "sys.modules['numpy'] = None; "
        script = (
            f"import sys; {block}from repro.crypto import des; "
            "print(des.default_kernel(), des.vector_available())"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, check=True,
        ).stdout.split()
        assert out == [expected, str(numpy_present)]

    def test_set_default_kernel_round_trip(self):
        initial = default_kernel()
        other = "fast" if initial == "vector" else "vector"
        expected = other if vector_available() else "fast"
        previous = set_default_kernel(other)
        try:
            assert previous == initial
            assert DES(b"k" * 8).kernel == expected
        finally:
            set_default_kernel(previous)
        assert DES(b"k" * 8).kernel == initial

    def test_existing_objects_keep_their_kernel(self):
        des = DES(b"k" * 8, kernel="fast")
        previous = set_default_kernel("vector")
        try:
            assert des.kernel == "fast"
        finally:
            set_default_kernel(previous)

    def test_unknown_kernel_rejected(self):
        # the reference kernel is the tests' oracle, not a selectable kernel
        for name in ("quantum", "reference"):
            with pytest.raises(KeyError_):
                DES(b"k" * 8, kernel=name)
            with pytest.raises(KeyError_):
                set_default_kernel(name)

    def test_env_override_honoured_at_import(self):
        # the module validated REPRO_DES_KERNEL at import; here we only
        # check the resolved default is one of the known kernels
        assert default_kernel() in des_module._KERNELS

    def test_vector_registration_matches_availability(self):
        assert vector_available() == ("vector" in des_module._KERNELS)

    def test_vector_request_falls_back_without_numpy(self):
        """``kernel="vector"`` must never raise: it degrades to fast."""
        des = DES(b"k" * 8, kernel="vector")
        assert des.kernel == ("vector" if vector_available() else "fast")
        previous = set_default_kernel("vector")
        try:
            expected = "vector" if vector_available() else "fast"
            assert default_kernel() == expected
        finally:
            set_default_kernel(previous)


@pytest.mark.skipif(not vector_available(), reason="numpy not importable")
class TestVectorKernel:
    """Shapes the scalar matrix cannot hit: wide buffers, odd lengths.

    The vector kernel delegates short buffers to the fast kernel, so the
    sizes here straddle its threshold on both sides -- including empty,
    a single block, and buffers large enough that every gather runs on
    thousand-element arrays.
    """

    @pytest.mark.parametrize("nblocks", (0, 1, 2, 15, 16, 17, 100, 1000))
    def test_matches_fast_at_every_width(self, nblocks):
        import random

        payload = random.Random(nblocks).randbytes(8 * nblocks)
        key = bytes.fromhex("133457799BBCDFF1")
        fast, vec = DES(key, kernel="fast"), DES(key, kernel="vector")
        ct = vec.encrypt_blocks(payload)
        assert ct == fast.encrypt_blocks(payload)
        assert vec.decrypt_blocks(ct) == payload

    @given(st.binary(min_size=8, max_size=8), st.integers(0, 64))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_any_width(self, key, nblocks):
        payload = (b"\xa5\x5a\x00\xff\x13\x37\xc0\xde" * nblocks)
        vec = DES(key, kernel="vector")
        assert vec.decrypt_blocks(vec.encrypt_blocks(payload)) == payload

    def test_single_block_path_is_the_fast_kernels(self):
        key = b"\x0b" * 8
        fast, vec = DES(key, kernel="fast"), DES(key, kernel="vector")
        block = b"\x01\x23\x45\x67\x89\xab\xcd\xef"
        assert vec.encrypt_block(block) == fast.encrypt_block(block)

    def test_kat_vectors_through_the_array_path(self):
        """Each FIPS vector replicated past the vectorisation threshold."""
        for key_hex, plain_hex, cipher_hex in KAT_VECTORS:
            des = DES(bytes.fromhex(key_hex), kernel="vector")
            assert (
                des.encrypt_blocks(bytes.fromhex(plain_hex) * 64)
                == bytes.fromhex(cipher_hex) * 64
            )
            assert (
                des.decrypt_blocks(bytes.fromhex(cipher_hex) * 64)
                == bytes.fromhex(plain_hex) * 64
            )
