"""repro -- reproduction of Hardjono & Seberry, VLDB 1990.

*Search Key Substitution in the Encipherment of B-Trees* proposes
disguising B-Tree search keys with combinatorial block designs -- instead
of encrypting them -- while tree and data pointers stay encrypted.  The
result: one decryption per node visited instead of ``log2(n)``, smaller
triplets, and (with the order-preserving sum-of-treatments disguise)
range queries through an untrusted DBMS.

Quickstart::

    from repro import EncipheredDatabase, OvalSubstitution, planar_difference_set
    from repro.crypto.rsa import RSA, generate_rsa_keypair

    design = planar_difference_set(9)          # v = 91 keys
    db = EncipheredDatabase.create(
        OvalSubstitution(design, t=2), RSA(generate_rsa_keypair(bits=128))
    )
    db.insert(41, b"records stay encrypted at rest")
    assert db.search(41) == b"records stay encrypted at rest"

The Bayer--Metzger baseline is the same engine with another node codec:
pass ``codec=PageKeyNodeCodec(...)`` to ``EncipheredDatabase.create``.

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every table and figure.
"""

from repro.cluster import (
    ClusterStats,
    HashRouter,
    RangeRouter,
    ShardedEncipheredDatabase,
    ShardRouter,
)
from repro.core import (
    EncipheredDatabase,
    MultilevelEncipheredBTree,
    PlainBTreeSystem,
    SecurityFilter,
)
from repro.designs import (
    PAPER_DIFFERENCE_SET,
    BlockDesign,
    DifferenceSet,
    ProjectivePlane,
    non_multiplier_units,
    oval_table,
    planar_difference_set,
    singer_difference_set,
)
from repro.exceptions import ReproError
from repro.substitution import (
    EncryptedKeySubstitution,
    ExponentiationSubstitution,
    IdentitySubstitution,
    KeySubstitution,
    OvalSubstitution,
    RankedSumSubstitution,
    SumSubstitution,
)

__version__ = "1.0.0"

__all__ = [
    "BlockDesign",
    "ClusterStats",
    "DifferenceSet",
    "EncipheredDatabase",
    "EncryptedKeySubstitution",
    "ExponentiationSubstitution",
    "HashRouter",
    "IdentitySubstitution",
    "KeySubstitution",
    "MultilevelEncipheredBTree",
    "OvalSubstitution",
    "PAPER_DIFFERENCE_SET",
    "PlainBTreeSystem",
    "ProjectivePlane",
    "RangeRouter",
    "RankedSumSubstitution",
    "ReproError",
    "SecurityFilter",
    "ShardRouter",
    "ShardedEncipheredDatabase",
    "SumSubstitution",
    "non_multiplier_units",
    "oval_table",
    "planar_difference_set",
    "singer_difference_set",
    "__version__",
]
