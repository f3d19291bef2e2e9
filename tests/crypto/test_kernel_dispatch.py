"""Kernel dispatch: what each :class:`DES` call runs on, around the threshold.

A ``fast`` object's bulk calls of at least
:data:`~repro.crypto.des.MIN_COUNTED_BLOCKS` blocks count towards its
round tables; shorter ones and single blocks run the key-independent
rounds.  Whichever side a buffer lands on, and whichever schedule runs
it, the bytes must equal the FIPS reference kernel's, encrypting and
decrypting.  The tabled rounds must also be right below the threshold,
so the constant is a pure speed choice.  An ``openssl`` object hands
every call to OpenSSL and never touches a Python schedule.
"""

from __future__ import annotations

import pytest

from repro.crypto.des import (
    DES,
    MIN_COUNTED_BLOCKS,
    FastDESKernel,
    OpenSSLDESKernel,
    ReferenceDESKernel,
    RoundTables,
    openssl_available,
    schedule_derivations,
)

KEY = bytes.fromhex("133457799BBCDFF1")
AROUND = (MIN_COUNTED_BLOCKS - 1, MIN_COUNTED_BLOCKS, MIN_COUNTED_BLOCKS + 1)
KERNELS = ("fast",) + (("openssl",) if openssl_available() else ())


def payload(nblocks):
    return bytes((i * 37 + 11) & 0xFF for i in range(8 * nblocks))


@pytest.mark.parametrize("nblocks", AROUND)
def test_fast_matches_the_reference_around_the_threshold(nblocks):
    data = payload(nblocks)
    des = DES(KEY, kernel="fast")
    encrypt = RoundTables.build(des._subkeys)
    decrypt = encrypt.reversed()
    for subkeys, tables in ((des._subkeys, encrypt), (des._subkeys_dec, decrypt)):
        out = ReferenceDESKernel.crypt_blocks(data, subkeys)
        assert FastDESKernel.crypt_blocks(data, subkeys) == out
        assert FastDESKernel.crypt_blocks(data, tables) == out


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("nblocks", AROUND)
def test_des_round_trips_around_the_threshold(kernel, nblocks):
    """The same buffers through the public ``DES(kernel=)`` API."""
    data = payload(nblocks)
    des = DES(KEY, kernel=kernel)
    ct = des.encrypt_blocks(data)
    assert ct == ReferenceDESKernel.crypt_blocks(data, DES(KEY)._subkeys)
    assert des.decrypt_blocks(ct) == data


@pytest.mark.parametrize("nblocks", (0, 1) + AROUND + (2 * MIN_COUNTED_BLOCKS,))
def test_the_threshold_decides_what_counts(nblocks):
    des = DES(KEY, kernel="fast")
    des.encrypt_blocks(payload(nblocks))
    des.decrypt_blocks(payload(nblocks))
    des.cbc_encrypt_blocks(payload(nblocks), bytes(8))
    assert des._bulk_calls == (3 if nblocks >= MIN_COUNTED_BLOCKS else 0)


@pytest.mark.parametrize("nblocks", (0, 1, 7))
def test_tabled_rounds_are_exact_below_the_threshold(nblocks):
    data = payload(nblocks)
    subkeys = DES(KEY, kernel="fast")._subkeys
    tables = RoundTables.build(subkeys)
    assert FastDESKernel.crypt_blocks(data, tables) == FastDESKernel.crypt_blocks(
        data, subkeys
    )
    assert FastDESKernel.cbc_encrypt(data, tables, KEY) == FastDESKernel.cbc_encrypt(
        data, subkeys, KEY
    )


@pytest.mark.skipif(not openssl_available(), reason="cryptography not installed")
def test_openssl_calls_run_on_the_objects_contexts(monkeypatch):
    """Every call reaches OpenSSL with the object's own direction."""
    seen = []
    for name in ("crypt_block", "crypt_blocks", "cbc_encrypt"):
        inner = getattr(OpenSSLDESKernel, name)

        def spy(*args, _name=name, _inner=inner):
            seen.append((_name, args[1].decrypt))
            return _inner(*args)

        monkeypatch.setattr(OpenSSLDESKernel, name, staticmethod(spy))
    des = DES(KEY, kernel="openssl")
    des.encrypt_block(payload(1))
    des.decrypt_block(payload(1))
    des.encrypt_blocks(payload(12))
    des.decrypt_blocks(payload(12))
    des.cbc_encrypt_blocks(payload(12), bytes(8))
    assert seen == [
        ("crypt_block", False), ("crypt_block", True),
        ("crypt_blocks", False), ("crypt_blocks", True), ("cbc_encrypt", False),
    ]
    assert "_subkeys" not in vars(des)  # no Python schedule was derived


@pytest.mark.parametrize("kernel", KERNELS)
def test_dispatch_derives_no_schedules(kernel):
    des = DES(KEY, kernel=kernel)  # a fast schedule is derived here
    before = schedule_derivations()
    for nblocks in AROUND:
        des.decrypt_blocks(des.encrypt_blocks(payload(nblocks)))
        des.cbc_encrypt_blocks(payload(nblocks), bytes(8))
    assert schedule_derivations() == before
