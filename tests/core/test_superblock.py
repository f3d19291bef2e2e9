"""The self-describing superblock: a store reopens from its secrets alone.

The superblock records the format version, the node codec's tag, the
record size and check values for the data key and the codec's secrets,
so a reopen takes no geometry, and a wrong secret or codec raises
``IntegrityError`` before the record scan deciphers any block.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster.sharded import ShardedEncipheredDatabase
from repro.core.codecs import PageKeyNodeCodec, WholePageNodeCodec
from repro.core.database import EncipheredDatabase
from repro.core.records import RecordStore
from repro.crypto.pagekey import PageKeyScheme
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.designs.difference_sets import planar_difference_set
from repro.exceptions import IntegrityError
from repro.storage.backend import FileBackend, MemoryBackend
from repro.substitution.identity import IdentitySubstitution
from repro.substitution.oval import OvalSubstitution

DESIGN = planar_difference_set(13)  # v = 183
CIPHER = RSA(generate_rsa_keypair(bits=128, rng=random.Random(0x5B)))
OTHER_CIPHER = RSA(generate_rsa_keypair(bits=128, rng=random.Random(0x5C)))
FILE_KEY = b"\x01\x23\x45\x67\x89\xab\xcd\xef"
KEYS = random.Random(7).sample(range(DESIGN.v), 60)


def page_key_codec(file_key=FILE_KEY):
    return PageKeyNodeCodec(PageKeyScheme(file_key, mode="ecb"))


@pytest.fixture(params=["memory", "file"])
def make_backend(request, tmp_path):
    """A factory for handles on one store's backend (same place each call)."""
    if request.param == "memory":
        backend = MemoryBackend()
        return lambda: backend
    return lambda: FileBackend(tmp_path / "db", fsync=False)


def build(backend, **kwargs):
    """A closed store holding ``KEYS``."""
    paper = "codec" not in kwargs
    db = EncipheredDatabase.create(
        OvalSubstitution(DESIGN, t=5) if paper else IdentitySubstitution(),
        CIPHER, backend=backend, **kwargs,
    )
    for k in KEYS:
        db.insert(k, f"r{k}".encode())
    db.close()


@pytest.fixture
def scans(monkeypatch):
    """Every ``RecordStore.recover_metadata`` call, in order."""
    calls = []
    real = RecordStore.recover_metadata

    def spy(store):
        calls.append(store)
        real(store)

    monkeypatch.setattr(RecordStore, "recover_metadata", spy)
    return calls


# (what the store is built with, the wrong reopen arguments)
REFUSALS = {
    "super_key": ({}, dict(super_key=b"\x00" * 8)),
    "data_key": ({}, dict(data_key=b"\x00" * 8)),
    "rsa_key": ({}, dict(pointer_cipher=OTHER_CIPHER)),
    "substitution_t7": ({}, dict(substitution=OvalSubstitution(DESIGN, t=7))),
    "page_key_without_codec": (dict(codec=page_key_codec()), dict(codec=None)),
    "page_key_as_whole_page": (
        dict(codec=page_key_codec()),
        dict(codec=WholePageNodeCodec(PageKeyScheme(FILE_KEY, mode="ecb"))),
    ),
    "page_key_wrong_file_key": (
        dict(codec=page_key_codec()), dict(codec=page_key_codec(b"\x00" * 8)),
    ),
}


def reopen(backend, created, **overrides):
    paper = "codec" not in created
    kwargs = dict(
        substitution=OvalSubstitution(DESIGN, t=5) if paper else IdentitySubstitution(),
        pointer_cipher=CIPHER,
        codec=created.get("codec"),
    )
    kwargs.update(overrides)
    return EncipheredDatabase.reopen_from_backend(
        kwargs.pop("substitution"), kwargs.pop("pointer_cipher"), backend, **kwargs
    )


class TestRefusals:
    @pytest.mark.parametrize("case", sorted(REFUSALS))
    def test_wrong_secret_refused_before_the_record_scan(
        self, case, make_backend, scans
    ):
        created, wrong = REFUSALS[case]
        build(make_backend(), **created)
        with pytest.raises(IntegrityError):
            reopen(make_backend(), created, **wrong)
        assert scans == []
        # the refusal released the devices: the right secrets still open
        db = reopen(make_backend(), created)
        assert [db.search(k) for k in KEYS] == [f"r{k}".encode() for k in KEYS]
        db.close()

    def test_wrong_data_key_refused_through_the_manifest(self, make_backend, scans):
        cluster = ShardedEncipheredDatabase.create(
            lambda i: OvalSubstitution(DESIGN, t=5), lambda i: CIPHER,
            num_shards=2, backend=make_backend(),
        )
        cluster.put_many((k, f"r{k}".encode()) for k in KEYS)
        cluster.close()
        with pytest.raises(IntegrityError, match="data_key"):
            ShardedEncipheredDatabase.reopen_from_manifest(
                lambda i: OvalSubstitution(DESIGN, t=5), lambda i: CIPHER,
                make_backend(), data_key=b"\x00" * 8,
            )
        assert scans == []
        reopened = ShardedEncipheredDatabase.reopen_from_manifest(
            lambda i: OvalSubstitution(DESIGN, t=5), lambda i: CIPHER, make_backend()
        )
        assert len(reopened) == len(KEYS)
        reopened.close()


class TestSelfDescription:
    def test_geometry_comes_from_the_platter(self, make_backend, scans):
        build(make_backend(), record_size=64, block_size=256)
        db = reopen(make_backend(), {})
        assert (db.records.record_size, db.disk.block_size) == (64, 256)
        assert db.records.disk.block_size == 256
        assert [db.search(k) for k in KEYS] == [f"r{k}".encode() for k in KEYS]
        assert len(scans) == 1
        db.close()

    def test_superblock_ciphertext_fits_forty_bytes(self, make_backend):
        db = EncipheredDatabase.create(
            OvalSubstitution(DESIGN, t=5), CIPHER, backend=make_backend()
        )
        db.insert(1, b"x")
        assert len(db.disk.raw_block(0)) == 40
        db.close()

    def test_check_values_move_no_count(self):
        """The checks use uncounted primitives: a create's and a reopen's
        cipher and disguise counts are those of the tree work alone."""
        backend = MemoryBackend()
        db = EncipheredDatabase.create(OvalSubstitution(DESIGN, t=5), CIPHER, backend=backend)
        stats = db.stats()
        assert stats["pointer_cipher"] == {"encryptions": 0, "decryptions": 0}
        assert stats["substitution"] == {"substitutions": 0, "inversions": 0}
        assert stats["record_cipher"] == {"encryptions": 0, "decryptions": 0}
        db.close()
        reopened = reopen(backend, {})
        stats = reopened.stats()
        assert stats["pointer_cipher"] == {"encryptions": 0, "decryptions": 0}
        assert stats["record_cipher"] == {"encryptions": 0, "decryptions": 0}
        reopened.close()
