"""Kernel parity: every selectable DES kernel must equal the reference.

The fast kernel (fused SP tables, cached forward/reverse key schedules,
bulk entry points) and the openssl kernel (the same calls run by OpenSSL
through ``cryptography``) exist purely for throughput -- benchmark C10
-- so these tests pin the one property that makes them admissible:
byte-identical output, identical operation counts, on the FIPS
known-answer vectors and on randomized inputs, weak, semi-weak and
even-parity keys included, and from several threads sharing one key
object.  The reference kernel is the FIPS oracle, not a selectable
kernel, so it is called directly via :func:`reference_crypt`.  When
``cryptography`` is absent the openssl kernel drops out of the
parametrised matrix (and the selection machinery must fall back to
``fast``, which is tested too).
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crypto import des as des_module
from repro.crypto.base import CountingBlockCipher
from repro.crypto.des import (
    DES,
    FastDESKernel,
    OpenSSLDESKernel,
    ReferenceDESKernel,
    default_kernel,
    openssl_available,
    schedule_derivations,
)
from repro.crypto.modes import CBCCipher, ECBCipher
from repro.exceptions import KeyError_, MessageRangeError

from test_des import KAT_VECTORS  # same directory; pytest puts it on sys.path

KERNELS = ("fast",) + (("openssl",) if openssl_available() else ())
BEST = "openssl" if openssl_available() else "fast"

#: The four weak keys (each its own inverse) and the six semi-weak pairs.
WEAK_KEYS = tuple(
    bytes.fromhex(h)
    for h in (
        "0101010101010101", "FEFEFEFEFEFEFEFE", "E0E0E0E0F1F1F1F1",
        "1F1F1F1F0E0E0E0E",
        "01FE01FE01FE01FE", "FE01FE01FE01FE01", "1FE01FE00EF10EF1",
        "E01FE01FF10EF10E", "01E001E001F101F1", "E001E001F101F101",
        "1FFE1FFE0EFE0EFE", "FE1FFE1FFE0EFE0E", "011F011F010E010E",
        "1F011F010E010E01", "E0FEE0FEF1FEF1FE", "FEE0FEE0FEF1FEF1",
    )
)
#: Keys whose bytes fail odd parity; every kernel ignores parity bits.
EVEN_PARITY_KEYS = (bytes(8), b"\xff" * 8, b"\x03" * 8, b"k" * 8)
KEYS = st.one_of(
    st.sampled_from(WEAK_KEYS + EVEN_PARITY_KEYS), st.binary(min_size=8, max_size=8)
)


def reference_crypt(key: bytes, data: bytes, decrypt: bool = False) -> bytes:
    """``data`` through :class:`ReferenceDESKernel` under ``key``'s schedule."""
    des = DES(key)
    subkeys = des._subkeys_dec if decrypt else des._subkeys
    return ReferenceDESKernel.crypt_blocks(data, subkeys)


def reference_cbc(key: bytes, data: bytes, iv: bytes) -> bytes:
    """``data`` CBC-enciphered from ``iv`` by :class:`ReferenceDESKernel`."""
    return ReferenceDESKernel.cbc_encrypt(data, DES(key)._subkeys, iv)


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
        ct_ref = reference_crypt(key, block)
        assert reference_crypt(key, ct_ref, decrypt=True) == block
        for kernel in KERNELS:
            des = DES(key, kernel=kernel)
            assert des.encrypt_block(block) == ct_ref
            assert des.decrypt_block(ct_ref) == block

    @given(st.binary(min_size=8, max_size=8), st.binary(min_size=0, max_size=40))
    @settings(max_examples=60)
    def test_bulk_identical(self, key, raw):
        data = raw[: len(raw) - len(raw) % 8]
        for kernel in KERNELS:
            des = DES(key, kernel=kernel)
            assert des.encrypt_blocks(data) == reference_crypt(key, data)
            assert des.decrypt_blocks(data) == reference_crypt(key, data, True)

    @given(
        key=KEYS,
        nblocks=st.integers(1, 64),
        iv=st.binary(min_size=8, max_size=8),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(key=WEAK_KEYS[0], nblocks=64, iv=bytes(8), seed=0)
    @example(key=WEAK_KEYS[4], nblocks=1, iv=b"\xff" * 8, seed=1)
    @settings(max_examples=40, deadline=None)
    def test_ecb_and_cbc_equal_the_reference(self, key, nblocks, iv, seed):
        """ECB both ways and CBC from any IV, weak and even-parity keys too."""
        data = random.Random(seed).randbytes(8 * nblocks)
        ecb = reference_crypt(key, data)
        ecb_dec = reference_crypt(key, data, decrypt=True)
        cbc = reference_cbc(key, data, iv)
        for kernel in KERNELS:
            des = DES(key, kernel=kernel)
            assert des.encrypt_blocks(data) == ecb
            assert des.decrypt_blocks(data) == ecb_dec
            assert des.cbc_encrypt_blocks(data, iv) == cbc

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_parity_bits_are_ignored(self, kernel):
        """Flipping each byte's low (parity) bit leaves the cipher alone."""
        data = bytes(range(64))
        for key in WEAK_KEYS[:2] + EVEN_PARITY_KEYS:
            flipped = bytes(b ^ 1 for b in key)
            assert (
                DES(flipped, kernel=kernel).encrypt_blocks(data)
                == DES(key, kernel=kernel).encrypt_blocks(data)
                == reference_crypt(key, data)
            )

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_weak_keys_are_involutions(self, kernel):
        """A weak key's encryption is its own inverse, on every kernel."""
        data = bytes(range(64))
        for key in WEAK_KEYS[:4]:
            des = DES(key, kernel=kernel)
            assert des.encrypt_blocks(des.encrypt_blocks(data)) == data

    def test_kernels_expose_names(self):
        assert FastDESKernel.name == "fast"
        assert OpenSSLDESKernel.name == "openssl"
        for kernel in KERNELS:
            assert DES(b"k" * 8, kernel=kernel).kernel == kernel


class TestConcurrency:
    """Threads sharing one :class:`DES` object get the reference bytes.

    Record reads decipher outside every lock, so a key object's kernel
    state must be safe to share.  OpenSSL releases the GIL inside a
    context's update, and a ``cryptography`` context is not re-entrant:
    the openssl kernel keeps one ECB context per thread, and one shared
    context fails this test (``RuntimeError: Already borrowed``).  Each
    thread makes many short calls, so the updates overlap often.
    """

    THREADS = 6
    ROUNDS = {"fast": 3, "openssl": 500}

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_shared_object_matches_the_reference(self, kernel):
        key = bytes.fromhex("133457799BBCDFF1")
        des = DES(key, kernel=kernel)
        rng = random.Random(24)
        data, iv = rng.randbytes(8 * 64), rng.randbytes(8)
        ecb = reference_crypt(key, data)
        ecb_dec = reference_crypt(key, data, decrypt=True)
        cbc = reference_cbc(key, data, iv)
        slices = range(0, len(data), 64)  # 8 blocks each
        singles = range(0, 128, 8)
        barrier = threading.Barrier(self.THREADS)
        failures: list[object] = []

        def work():
            barrier.wait()
            try:
                for _ in range(self.ROUNDS[kernel]):
                    outputs = (
                        b"".join(des.encrypt_blocks(data[o : o + 64]) for o in slices),
                        b"".join(des.decrypt_blocks(data[o : o + 64]) for o in slices),
                        b"".join(des.encrypt_block(data[o : o + 8]) for o in singles),
                        b"".join(des.decrypt_block(data[o : o + 8]) for o in singles),
                        des.cbc_encrypt_blocks(data, iv),
                    )
                    if outputs != (ecb, ecb_dec, ecb[:128], ecb_dec[:128], cbc):
                        failures.append("mismatch")
                        return
            except Exception as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        threads = [threading.Thread(target=work) for _ in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert failures == []

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_forked_child_reuses_the_parents_object(self, kernel):
        """A forked child keeps the forking thread's contexts and works."""
        key = b"\x5c" * 8
        des = DES(key, kernel=kernel)
        data = bytes(range(128))
        expected = reference_crypt(key, data)
        assert des.encrypt_blocks(data) == expected  # contexts made pre-fork
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the child
            os.close(read)
            ok = des.encrypt_blocks(data) == expected and (
                des.decrypt_blocks(expected) == data
            )
            os.write(write, b"1" if ok else b"0")
            os._exit(0)
        os.close(write)
        try:
            assert os.read(read, 1) == b"1"
        finally:
            os.close(read)
            os.waitpid(pid, 0)


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
        data = bytes(range(8)) * 40
        snaps = []
        for kernel in KERNELS:
            counting = CountingBlockCipher(DES(b"\x03" * 8, kernel=kernel))
            counting.encrypt_blocks(data)
            counting.decrypt_blocks(data)
            snaps.append(counting.counts.snapshot())
        assert all(snap == snaps[0] for snap in snaps)


class TestScheduleDerivation:
    """Regression: the key schedule is derived at most once per key object.

    The classic per-block overhead was re-deriving (or re-reversing) the
    schedule inside chaining loops; a thousand-block stream must cost
    exactly the derivations of its key objects, nothing per block.  A
    Python kernel derives its schedule when the object is built; the
    openssl kernel derives none.
    """

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_derivations_per_key_object(self, kernel):
        per_object = 1 if kernel == "fast" else 0
        before = schedule_derivations()
        des = DES(b"\x07" * 8, kernel=kernel)
        assert schedule_derivations() == before + per_object
        for off in range(100):
            des.encrypt_block(off.to_bytes(8, "big"))
            des.decrypt_block(off.to_bytes(8, "big"))
        des.encrypt_blocks(b"\x00" * 800)
        des.decrypt_blocks(b"\x00" * 800)
        des.cbc_encrypt_blocks(b"\x00" * 800, bytes(8))
        assert schedule_derivations() == before + per_object

    def test_a_swapped_in_python_kernel_derives_on_first_use(self):
        expected = reference_crypt(b"\x07" * 8, bytes(16))
        des = DES(b"\x07" * 8, kernel=BEST)
        des._kernel = ReferenceDESKernel
        before = schedule_derivations()
        assert des.encrypt_blocks(bytes(16)) == expected
        des.decrypt_blocks(bytes(16))
        assert schedule_derivations() == before + (BEST == "openssl")

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


def _import_des(cryptography: bool) -> list[str]:
    """``default_kernel()`` and ``openssl_available()`` in a fresh interpreter.

    A ``None`` entry in ``sys.modules`` makes ``import cryptography`` fail,
    so ``cryptography=False`` runs the import-time rule without it.
    """
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(des_module.__file__), "..", "..")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p
    )
    block = "" if cryptography else "sys.modules['cryptography'] = None; "
    script = (
        f"import sys; {block}from repro.crypto import des; "
        "print(des.default_kernel(), des.openssl_available(), "
        "'numpy' in sys.modules)"
    )
    return subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.split()


class TestKernelSelection:
    def test_default_is_the_best_available_kernel(self):
        assert default_kernel() == BEST
        assert DES(b"k" * 8).kernel == BEST

    @pytest.mark.parametrize("cryptography, expected", [(False, "fast"), (True, "openssl")])
    def test_import_time_default(self, cryptography, expected):
        # a fresh interpreter, so the import-time rule runs for real
        if cryptography and not openssl_available():
            pytest.skip("cryptography is not installed")
        out = _import_des(cryptography)
        assert out == [expected, str(cryptography), "False"]

    def test_unknown_kernel_rejected(self):
        # the reference kernel is the tests' oracle, not a selectable kernel
        for name in ("quantum", "reference"):
            with pytest.raises(KeyError_):
                DES(b"k" * 8, kernel=name)

    def test_openssl_registration_matches_availability(self):
        assert openssl_available() == ("openssl" in des_module._KERNELS)

    def test_openssl_request_falls_back_without_cryptography(self):
        """``kernel="openssl"`` must never raise: it degrades to fast."""
        assert DES(b"k" * 8, kernel="openssl").kernel == BEST
