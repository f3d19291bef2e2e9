"""Kernel dispatch: what each :class:`DES` call runs on.

A ``fast`` object runs every call -- a single block, a bulk buffer, a
CBC chain -- through the one E/SP round loop on its bare subkeys.
Whatever the buffer's length, the bytes must equal the FIPS reference
kernel's, encrypting and decrypting.  An ``openssl`` object hands every
call to OpenSSL and never touches a Python schedule.
"""

from __future__ import annotations

import pytest

from repro.crypto.des import (
    DES,
    FastDESKernel,
    OpenSSLDESKernel,
    ReferenceDESKernel,
    openssl_available,
    schedule_derivations,
)

KEY = bytes.fromhex("133457799BBCDFF1")
SIZES = (0, 1, 7, 9, 10, 11, 20)
KERNELS = ("fast",) + (("openssl",) if openssl_available() else ())


def payload(nblocks):
    return bytes((i * 37 + 11) & 0xFF for i in range(8 * nblocks))


@pytest.mark.parametrize("nblocks", SIZES)
def test_fast_kernel_matches_the_reference(nblocks):
    data = payload(nblocks)
    des = DES(KEY, kernel="fast")
    for subkeys in (des._subkeys, des._subkeys_dec):
        out = ReferenceDESKernel.crypt_blocks(data, subkeys)
        assert FastDESKernel.crypt_blocks(data, subkeys) == out
    assert FastDESKernel.cbc_encrypt(data, des._subkeys, KEY) == (
        ReferenceDESKernel.cbc_encrypt(data, des._subkeys, KEY)
    )


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("nblocks", SIZES)
def test_des_round_trips(kernel, nblocks):
    """The same buffers through the public ``DES(kernel=)`` API."""
    data = payload(nblocks)
    des = DES(KEY, kernel=kernel)
    ct = des.encrypt_blocks(data)
    assert ct == ReferenceDESKernel.crypt_blocks(data, DES(KEY)._subkeys)
    assert des.decrypt_blocks(ct) == data


def test_reference_cbc_chains_its_own_blocks():
    """The oracle's CBC is its own single-block cipher, chained by hand."""
    des = DES(KEY)
    data, iv = payload(8), b"\x5a" * 8
    expected, previous = b"", iv
    for off in range(0, len(data), 8):
        block = bytes(a ^ b for a, b in zip(data[off : off + 8], previous))
        value = ReferenceDESKernel.crypt_block(int.from_bytes(block, "big"), des._subkeys)
        previous = value.to_bytes(8, "big")
        expected += previous
    assert ReferenceDESKernel.cbc_encrypt(data, des._subkeys, iv) == expected
    assert des.cbc_encrypt_blocks(data, iv) == expected


@pytest.mark.parametrize("kernel", KERNELS)
def test_a_single_block_is_a_one_block_bulk_call(kernel, monkeypatch):
    des = DES(KEY, kernel=kernel)
    inner = des._kernel.crypt_blocks
    lengths = []

    def spy(data, keys):
        lengths.append(len(data))
        return inner(data, keys)

    monkeypatch.setattr(des._kernel, "crypt_blocks", staticmethod(spy))
    block = payload(1)
    expected = ReferenceDESKernel.crypt_block(int.from_bytes(block, "big"), des._subkeys)
    ct = des.encrypt_block(block)
    assert ct == expected.to_bytes(8, "big")
    assert des.decrypt_block(ct) == block
    assert lengths == [8, 8]


@pytest.mark.parametrize("kernel", KERNELS)
def test_keys_are_the_kernels_own(kernel):
    """OpenSSL contexts on openssl, else the Python schedule."""
    des = DES(KEY, kernel=kernel)
    if kernel == "openssl":
        assert des._keys(False) is des._contexts[0]
        assert des._keys(True) is des._contexts[1]
        assert (des._keys(False).decrypt, des._keys(True).decrypt) == (False, True)
    else:
        assert des._contexts is None
        assert des._keys(False) is des._subkeys
        assert des._keys(True) is des._subkeys_dec


@pytest.mark.parametrize("kernel", KERNELS)
def test_a_swapped_in_reference_kernel_gets_bare_subkeys(kernel):
    des = DES(KEY, kernel=kernel)
    des._kernel = ReferenceDESKernel
    assert des._keys(False) == DES(KEY, kernel="fast")._subkeys
    assert des._keys(True) == DES(KEY, kernel="fast")._subkeys_dec
    assert des.encrypt_blocks(payload(3)) == DES(KEY, kernel="fast").encrypt_blocks(payload(3))


@pytest.mark.parametrize("kernel", KERNELS)
def test_calls_leave_the_object_unchanged(kernel):
    """No call count, no tables: once each direction has run (a ``fast``
    object derives its decryption schedule on first use), calls change
    nothing on the object."""
    des = DES(KEY, kernel=kernel)
    des.decrypt_blocks(des.encrypt_blocks(payload(1)))
    before = dict(vars(des))
    for nblocks in SIZES:
        des.decrypt_blocks(des.encrypt_blocks(payload(nblocks)))
        des.cbc_encrypt_blocks(payload(nblocks), bytes(8))
    des.decrypt_block(des.encrypt_block(payload(1)))
    assert vars(des) == before
    assert all(vars(des)[name] is value for name, value in before.items())


@pytest.mark.skipif(not openssl_available(), reason="cryptography not installed")
def test_openssl_calls_run_on_the_objects_contexts(monkeypatch):
    """Every call reaches OpenSSL with the object's own direction."""
    seen = []
    for name in ("crypt_blocks", "cbc_encrypt"):
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
        ("crypt_blocks", False), ("crypt_blocks", True),
        ("crypt_blocks", False), ("crypt_blocks", True), ("cbc_encrypt", False),
    ]
    assert "_subkeys" not in vars(des)  # no Python schedule was derived


@pytest.mark.parametrize("kernel", KERNELS)
def test_dispatch_derives_no_schedules(kernel):
    des = DES(KEY, kernel=kernel)  # a fast schedule is derived here
    before = schedule_derivations()
    for nblocks in SIZES:
        des.decrypt_blocks(des.encrypt_blocks(payload(nblocks)))
        des.cbc_encrypt_blocks(payload(nblocks), bytes(8))
    assert schedule_derivations() == before
