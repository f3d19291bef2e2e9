"""RSA key generation, raw integer encryption and byte framing."""

from __future__ import annotations

import os
import pickle
import random
import subprocess
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.crypto import rsa as rsa_module
from repro.crypto.numbers import is_prime
from repro.crypto.rsa import RSA, generate_rsa_keypair, gmp_available
from repro.exceptions import CryptoError, MessageRangeError


@pytest.fixture(scope="module")
def keypair():
    return generate_rsa_keypair(bits=128, rng=random.Random(42))


@pytest.fixture(scope="module")
def cipher(keypair):
    return RSA(keypair)


@pytest.fixture(params=("gmp", "pow"))
def backend(request, monkeypatch):
    """Decrypt on GMP (skipped where libgmp does not load) or on ``pow``."""
    if request.param == "gmp" and not gmp_available():
        pytest.skip("libgmp is not loadable here")
    if request.param == "pow":
        monkeypatch.setattr(rsa_module, "_scratch", None)
    return request.param


class TestKeyGeneration:
    def test_primes_are_prime(self, keypair):
        assert is_prime(keypair.p)
        assert is_prime(keypair.q)
        assert keypair.p != keypair.q

    def test_modulus_is_product(self, keypair):
        assert keypair.n == keypair.p * keypair.q

    def test_exponents_are_inverse(self, keypair):
        phi = (keypair.p - 1) * (keypair.q - 1)
        assert keypair.e * keypair.d % phi == 1

    def test_deterministic_default(self):
        k1 = generate_rsa_keypair(bits=64)
        k2 = generate_rsa_keypair(bits=64)
        assert k1.n == k2.n

    def test_distinct_with_distinct_rngs(self):
        k1 = generate_rsa_keypair(bits=64, rng=random.Random(1))
        k2 = generate_rsa_keypair(bits=64, rng=random.Random(2))
        assert k1.n != k2.n

    def test_bit_length(self):
        for bits in (64, 128, 256):
            kp = generate_rsa_keypair(bits=bits, rng=random.Random(bits))
            assert abs(kp.bits - bits) <= 1

    def test_tiny_modulus_rejected(self):
        with pytest.raises(CryptoError):
            generate_rsa_keypair(bits=8)

    def test_cryptogram_size(self, keypair):
        assert keypair.cryptogram_size_bytes() == (keypair.bits + 7) // 8


class TestIntegerEncryption:
    def test_roundtrip_small_values(self, cipher):
        for m in (0, 1, 2, 12345, 10**9):
            assert cipher.decrypt_int(cipher.encrypt_int(m)) == m

    @given(st.integers(min_value=0, max_value=2**100))
    @settings(max_examples=100)
    def test_roundtrip_property(self, m):
        cipher = RSA(generate_rsa_keypair(bits=128, rng=random.Random(42)))
        m %= cipher.modulus
        assert cipher.decrypt_int(cipher.encrypt_int(m)) == m

    @given(
        bits=st.integers(min_value=16, max_value=256),
        seed=st.integers(min_value=0, max_value=2**32),
        c=st.integers(min_value=0, max_value=2**256),
    )
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_garner_decrypt_equals_plain_pow(self, backend, bits, seed, c):
        # up to 128 bits both primes fit one limb, so "gmp" runs GMP there
        # and pow above
        keypair = generate_rsa_keypair(bits=bits, rng=random.Random(seed))
        c %= keypair.n
        assert RSA(keypair).decrypt_int(c) == pow(c, keypair.d, keypair.n)

    def test_out_of_range_rejected(self, cipher):
        with pytest.raises(MessageRangeError):
            cipher.encrypt_int(-1)
        with pytest.raises(MessageRangeError):
            cipher.encrypt_int(cipher.modulus)
        with pytest.raises(MessageRangeError):
            cipher.decrypt_int(cipher.modulus + 5)

    def test_deterministic_permutation(self, cipher):
        # raw RSA is a fixed permutation of Z_n (the paper's usage keeps
        # all parameters secret, so determinism is by design)
        assert cipher.encrypt_int(99) == cipher.encrypt_int(99)
        assert cipher.encrypt_int(98) != cipher.encrypt_int(99)


class TestByteEncryption:
    def test_roundtrip(self, cipher):
        for payload in (b"", b"x", b"hello world", bytes(range(256))):
            assert cipher.decrypt_bytes(cipher.encrypt_bytes(payload)) == payload

    def test_leading_zeros_survive(self, cipher):
        payload = b"\x00\x00\x00data"
        assert cipher.decrypt_bytes(cipher.encrypt_bytes(payload)) == payload

    def test_corrupt_framing_detected(self, cipher):
        cryptograms = cipher.encrypt_bytes(b"payload")
        # encrypting an unframed integer produces a chunk without the 0x01 tag
        bogus = [cipher.encrypt_int(0)]
        with pytest.raises(CryptoError):
            cipher.decrypt_bytes(bogus)
        assert cipher.decrypt_bytes(cryptograms) == b"payload"


def _pow_decrypt(keypair, c: int) -> int:
    return pow(c, keypair.d, keypair.n)


class TestPointerBackend:
    """GMP and ``pow`` compute the same pointer decrypts, in every setting
    the engine decrypts in: threads, forked workers, pickled keys."""

    def test_one_limb_keys_decrypt_on_gmp(self, cipher, monkeypatch):
        if not gmp_available():
            pytest.skip("libgmp is not loadable here")
        calls = []
        halves = rsa_module._GMPScratch.halves

        def spy(self, c, key):
            calls.append(c)
            return halves(self, c, key)

        monkeypatch.setattr(rsa_module._GMPScratch, "halves", spy)
        cipher.decrypt_int(12345)
        big = RSA(generate_rsa_keypair(bits=256, rng=random.Random(7)))
        big.decrypt_int(12345)
        assert calls == [12345]  # the 256-bit key's primes run on pow

    def test_edge_values(self, backend, keypair, cipher):
        p, q, n = keypair.p, keypair.q, keypair.n
        values = [0, 1, 2, n - 1, n - 2, p, q, 2 * p, 2 * q, (q - 1) * p, (p - 1) * q]
        for c in values:
            assert cipher.decrypt_int(c) == _pow_decrypt(keypair, c), c

    def test_range_checked_before_any_native_call(self, backend, cipher):
        for c in (-1, cipher.modulus, cipher.modulus + 1, -(2**200), 2**200):
            with pytest.raises(MessageRangeError):
                cipher.decrypt_int(c)

    def test_alternating_keys_in_one_thread(self, backend):
        """A thread's GMP scratch reloads when the key changes."""
        pairs = [
            generate_rsa_keypair(bits=128, rng=random.Random(seed))
            for seed in (1, 2, 3)
        ]
        ciphers = [RSA(kp) for kp in pairs]
        rng = random.Random(5)
        for _ in range(60):
            i = rng.randrange(3)
            c = rng.randrange(pairs[i].n)
            assert ciphers[i].decrypt_int(c) == _pow_decrypt(pairs[i], c)

    def test_threads_share_one_key(self, backend, keypair, cipher):
        """Six threads decrypt under one key at once; GMP releases the
        GIL inside each call, so each thread needs its own scratch."""
        failures = []
        start = threading.Barrier(6)

        def work(seed):
            rng = random.Random(seed)
            start.wait()
            try:
                for _ in range(1500):
                    c = rng.randrange(keypair.n)
                    if cipher.decrypt_int(c) != _pow_decrypt(keypair, c):
                        failures.append(c)
                        return
            except Exception as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert failures == []

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_decrypts(self, backend, keypair, cipher):
        values = [random.Random(9).randrange(keypair.n) for _ in range(50)]
        expected = [_pow_decrypt(keypair, c) for c in values]
        assert [cipher.decrypt_int(c) for c in values] == expected  # pre-fork
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the child
            os.close(read)
            ok = [cipher.decrypt_int(c) for c in values] == expected
            os.write(write, b"1" if ok else b"0")
            os._exit(0)
        os.close(write)
        try:
            assert os.read(read, 1) == b"1"
        finally:
            os.close(read)
            os.waitpid(pid, 0)

    def test_key_pickles(self, backend, keypair, cipher):
        clone = pickle.loads(pickle.dumps(cipher))
        for c in (0, 1, 99, keypair.n - 1):
            assert clone.decrypt_int(c) == cipher.decrypt_int(c)

    def test_blocked_library_falls_back_to_pow(self, keypair):
        """A fresh interpreter that cannot open libgmp decrypts on pow,
        to the same integers."""
        src = os.path.join(os.path.dirname(rsa_module.__file__), "..", "..")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p
        )
        values = [random.Random(11).randrange(keypair.n) for _ in range(20)]
        script = (
            "import ctypes, random, sys\n"
            "real = ctypes.CDLL\n"
            "def blocked(name, *args, **kwargs):\n"
            "    if 'gmp' in str(name):\n"
            "        raise OSError(f'{name}: blocked')\n"
            "    return real(name, *args, **kwargs)\n"
            "ctypes.CDLL = blocked\n"
            "from repro.crypto.rsa import RSA, generate_rsa_keypair, gmp_available\n"
            "cipher = RSA(generate_rsa_keypair(bits=128, rng=random.Random(42)))\n"
            f"values = {values!r}\n"
            "print(gmp_available(), *(cipher.decrypt_int(c) for c in values))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, check=True,
        ).stdout.split()
        assert out[0] == "False"
        cipher = RSA(keypair)  # the fixture's key: same bits and seed
        assert [int(m) for m in out[1:]] == [cipher.decrypt_int(c) for c in values]
