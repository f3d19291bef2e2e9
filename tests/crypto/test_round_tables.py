"""Key-specific DES round tables: fast-kernel parity and the build policy.

A ``fast`` :class:`~repro.crypto.des.DES` object runs the key-independent
rounds until it has made :data:`~repro.crypto.des.TABLE_BUILD_CALLS` bulk
calls of at least :data:`~repro.crypto.des.MIN_COUNTED_BLOCKS` blocks,
then builds :class:`~repro.crypto.des.RoundTables`.  Either way every
output must equal the FIPS reference kernel's, in both directions and in
CBC, on objects before and after their build.  An ``openssl`` object
never builds tables.
"""

from __future__ import annotations

import gc
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.btree.node import Node
from repro.core.codecs import PageKeyNodeCodec
from repro.crypto.des import (
    DES,
    MIN_COUNTED_BLOCKS,
    TABLE_BUILD_CALLS,
    ReferenceDESKernel,
    RoundTables,
    openssl_available,
    schedule_derivations,
)
from repro.crypto.modes import CBCCipher
from repro.crypto.pagekey import PageKeyScheme

MAX_BLOCKS = 400
#: The smallest bulk call that counts towards the build.
COUNTED = bytes(8 * MIN_COUNTED_BLOCKS)


def _des(key: bytes, tables: bool) -> DES:
    """A ``fast`` DES that has (or has not yet) built its tables."""
    des = DES(key, kernel="fast")
    if tables:
        for _ in range(TABLE_BUILD_CALLS + 1):
            des.encrypt_blocks(COUNTED)
        assert des._tables is not None
    return des


@pytest.fixture
def builds(monkeypatch):
    """Every :class:`RoundTables` build made while the test runs."""
    made = []
    build = RoundTables.build.__func__

    def counting_build(cls, subkeys):
        made.append(subkeys)
        return build(cls, subkeys)

    monkeypatch.setattr(RoundTables, "build", classmethod(counting_build))
    return made


def _reference_block(des: DES, block: bytes, decrypt: bool = False) -> bytes:
    subkeys = des._subkeys_dec if decrypt else des._subkeys
    value = ReferenceDESKernel.crypt_block(int.from_bytes(block, "big"), subkeys)
    return value.to_bytes(8, "big")


@given(
    key=st.binary(min_size=8, max_size=8),
    nblocks=st.integers(0, MAX_BLOCKS),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=30, deadline=None)
def test_bare_and_tabled_rounds_match_the_reference(key, nblocks, seed):
    """ECB both ways and CBC both ways, bare and tabled.

    Both schedules must agree on the whole buffer; the reference kernel
    (bit by bit, slow) checks sampled blocks of each output, which pins
    the whole buffer since ECB is blockwise and CBC block i depends only
    on plaintext i and ciphertext i-1.
    """
    rng = random.Random(seed)
    data = rng.randbytes(8 * nblocks)
    iv = rng.randbytes(8)
    outputs = set()
    for tables in (False, True):
        des = _des(key, tables)
        ecb = des.encrypt_blocks(data)
        cbc = des.cbc_encrypt_blocks(data, iv)
        assert des.decrypt_blocks(ecb) == data
        # the key-independent rounds at every size, whatever the object built
        assert des._kernel.crypt_blocks(data, des._subkeys) == ecb
        assert des._kernel.cbc_encrypt(data, des._subkeys, iv) == cbc
        padded = CBCCipher(des, iv)
        assert padded.decrypt(padded.encrypt(data)) == data
        outputs.add((ecb, cbc, des.decrypt_blocks(data)))
    assert len(outputs) == 1
    ecb, cbc, dec = outputs.pop()
    oracle = DES(key)
    for i in {0, nblocks - 1, rng.randrange(nblocks)} if nblocks else ():
        block = data[8 * i : 8 * i + 8]
        assert ecb[8 * i : 8 * i + 8] == _reference_block(oracle, block)
        assert dec[8 * i : 8 * i + 8] == _reference_block(oracle, block, decrypt=True)
        chained = iv if i == 0 else cbc[8 * i - 8 : 8 * i]
        mixed = bytes(a ^ b for a, b in zip(block, chained))
        assert cbc[8 * i : 8 * i + 8] == _reference_block(oracle, mixed)


def test_reference_kernel_cbc_chains_its_own_blocks():
    des = DES(bytes.fromhex("133457799BBCDFF1"))
    data, iv = bytes(range(64)), b"\x5a" * 8
    expected, previous = b"", iv
    for off in range(0, len(data), 8):
        block = bytes(a ^ b for a, b in zip(data[off : off + 8], previous))
        previous = _reference_block(des, block)
        expected += previous
    assert ReferenceDESKernel.cbc_encrypt(data, des._subkeys, iv) == expected
    assert des.cbc_encrypt_blocks(data, iv) == expected


class TestBuildPolicy:
    KEY = b"\x2b" * 8

    def test_single_blocks_never_build(self):
        des = DES(self.KEY, kernel="fast")
        for i in range(4 * TABLE_BUILD_CALLS):
            des.decrypt_block(des.encrypt_block(i.to_bytes(8, "big")))
        assert des._tables is None

    def test_builds_on_the_call_after_the_count(self):
        des = DES(self.KEY, kernel="fast")
        for i in range(TABLE_BUILD_CALLS - 1):
            [des.encrypt_blocks, des.decrypt_blocks][i % 2](COUNTED)
            des.cbc_encrypt_blocks(COUNTED[8:], bytes(8))  # too short to count
        des.cbc_encrypt_blocks(bytes(8 * MAX_BLOCKS), bytes(8))  # counts once
        assert des._tables is None
        before = schedule_derivations()
        des.decrypt_blocks(COUNTED)
        assert des._tables is not None
        assert schedule_derivations() == before  # tables reuse the schedule

    def test_short_calls_never_build(self):
        """A commit's 3-block superblock, however many commits."""
        des = DES(self.KEY, kernel="fast")
        for _ in range(4 * TABLE_BUILD_CALLS):
            des.cbc_encrypt_blocks(COUNTED[8:], bytes(8))
            des.decrypt_blocks(COUNTED[8:])
        assert des._tables is None

    def test_a_first_call_never_builds(self):
        """However big: one 4096-byte page is 512 blocks."""
        for call in ("encrypt_blocks", "decrypt_blocks"):
            des = DES(self.KEY, kernel="fast")
            getattr(des, call)(bytes(4096))
            assert des._tables is None
        des = DES(self.KEY, kernel="fast")
        des.cbc_encrypt_blocks(bytes(4096), bytes(8))
        assert des._tables is None

    def test_page_keys_never_build(self, builds):
        """Whole-page encipherment and node encoding derive a DES per page
        and make one bulk call with it, so none of them builds tables."""
        page = random.Random(1).randbytes(4096)
        for mode in ("ecb", "cbc"):
            scheme = PageKeyScheme(b"\x01" * 8, mode=mode)
            for page_id in range(3):
                sealed = scheme.encrypt_page(page_id, page)
                assert scheme.decrypt_page(page_id, sealed) == page
        codec = PageKeyNodeCodec(PageKeyScheme(b"\x01" * 8), key_bytes=4)
        keys = list(range(1, 256))  # 255 two-block triplets and a header
        leaf = Node(node_id=9, is_leaf=True, keys=keys, values=keys)
        for _ in range(3):
            data = codec.encode(leaf)
            assert len(data) > 4000  # about one 4 KiB page
            assert codec.decode(9, data).to_node() == leaf
        assert builds == []

    def test_the_reference_kernel_gets_bare_subkeys(self, builds):
        """A swapped-in reference kernel reads no tables, so none are built."""
        des = DES(self.KEY, kernel="fast")
        des._kernel = ReferenceDESKernel
        for _ in range(TABLE_BUILD_CALLS + 1):
            assert des.decrypt_blocks(des.encrypt_blocks(COUNTED)) == COUNTED
        assert des._tables is None
        assert builds == []

    def test_release_drops_the_tables_and_the_count(self):
        des = _des(self.KEY, tables=True)
        ct = des.encrypt_blocks(COUNTED)
        des.release_tables()
        assert des._tables is None
        assert des.encrypt_blocks(COUNTED) == ct
        assert des._tables is None  # one call is below the count again

    def test_decryption_shares_the_encryption_buffer(self):
        des = _des(self.KEY, tables=True)
        encrypt, decrypt = des._tables
        assert decrypt.buffer is encrypt.buffer
        assert decrypt.subkeys == des._subkeys_dec
        assert encrypt.subkeys == des._subkeys
        assert decrypt.rounds == encrypt.rounds[::-1]

    def test_a_keys_tables_take_at_most_256_kib(self):
        encrypt, _ = _des(self.KEY, tables=True)._tables
        assert memoryview(encrypt.buffer).nbytes <= 256 * 1024

    def test_tables_die_with_their_object(self):
        des = _des(self.KEY, tables=True)
        buffer = weakref.ref(des._tables[0].buffer)
        del des
        gc.collect()
        assert buffer() is None

    @pytest.mark.skipif(not openssl_available(), reason="cryptography not installed")
    def test_openssl_objects_never_build(self, builds):
        """OpenSSL keeps its own schedule: no tables, however many calls."""
        des = DES(self.KEY, kernel="openssl")
        for _ in range(4 * TABLE_BUILD_CALLS):
            assert des.decrypt_blocks(des.encrypt_blocks(COUNTED)) == COUNTED
        assert des._tables is None
        assert builds == []
