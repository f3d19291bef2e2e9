"""The paper's systems, assembled from the substrates.

* :class:`~repro.core.database.EncipheredDatabase` -- the durable
  engine.  Its node codec selects the system: by default the
  Hardjono--Seberry layout (:class:`~repro.core.codecs.SubstitutedNodeCodec`:
  node blocks store ``[f(k), E(b || a || p)]`` triplets; keys are
  disguised, both pointers ride in one cryptogram bound to the block
  number), or the Bayer--Metzger baseline
  (:class:`~repro.core.codecs.PageKeyNodeCodec` and
  :class:`~repro.core.codecs.WholePageNodeCodec`: every triplet
  enciphered under a per-page key derived from the page id, with lazy
  "binary search-and-decrypt" or whole-page decryption).
* :class:`~repro.core.multilevel_store.MultilevelEncipheredBTree` --
  §5's per-record security levels over the paper's node layout.
* :class:`~repro.core.security_filter.SecurityFilter` -- the §4.3
  deployment: an order-preserving disguise plus record encryption and
  cryptographic checksums, retrofitted *in front of* an unmodified DBMS.
"""

from repro.core.codecs import (
    PageKeyNodeCodec,
    SubstitutedNodeCodec,
    WholePageNodeCodec,
)
from repro.core.database import EncipheredDatabase
from repro.core.records import RecordStore
from repro.core.multilevel_store import (
    MultilevelEncipheredBTree,
    MultilevelRecordStore,
)
from repro.core.plain import PlainBTreeSystem
from repro.core.security_filter import SecurityFilter, SealedRecord

__all__ = [
    "EncipheredDatabase",
    "MultilevelEncipheredBTree",
    "MultilevelRecordStore",
    "PageKeyNodeCodec",
    "PlainBTreeSystem",
    "RecordStore",
    "SealedRecord",
    "SecurityFilter",
    "SubstitutedNodeCodec",
    "WholePageNodeCodec",
]
