"""C1 -- decryptions per search: substitution vs binary search-and-decrypt.

§3: under Bayer--Metzger, finding the right tree pointer in a node of n
triplets takes up to log2(n) decryptions; the paper's scheme needs zero
key decryptions and exactly one pointer decryption per node.  This bench
sweeps the node capacity and measures both systems on the same workload.
"""

from __future__ import annotations

import random
from math import log2

from repro.core.codecs import PageKeyNodeCodec
from repro.core.database import EncipheredDatabase
from repro.crypto.pagekey import PageKeyScheme
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.designs.difference_sets import planar_difference_set
from repro.substitution.identity import IdentitySubstitution
from repro.substitution.oval import OvalSubstitution

DESIGN = planar_difference_set(23)  # v = 553
NUM_KEYS = 360
NUM_PROBES = 60
MIN_DEGREES = [2, 4, 8, 16, 32]
POINTER_CIPHER = RSA(generate_rsa_keypair(bits=128, rng=random.Random(0x48533930)))
FILE_KEY = b"\x01\x23\x45\x67\x89\xab\xcd\xef"


def _workload():
    rng = random.Random(0xC1)
    keys = rng.sample(range(DESIGN.v), NUM_KEYS)
    probes = rng.sample(keys, NUM_PROBES)
    return keys, probes


def hardjono_seberry(min_degree: int) -> EncipheredDatabase:
    return EncipheredDatabase.create(
        OvalSubstitution(DESIGN, t=9), POINTER_CIPHER,
        block_size=8192, min_degree=min_degree,
    )


def bayer_metzger(min_degree: int) -> EncipheredDatabase:
    """The same engine with the page-key triplet codec: its keys and
    pointers never reach the substitution or the pointer cipher."""
    return EncipheredDatabase.create(
        IdentitySubstitution(), POINTER_CIPHER,
        block_size=8192, min_degree=min_degree,
        codec=PageKeyNodeCodec(PageKeyScheme(FILE_KEY, mode="ecb")),
    )


def measure_pair(min_degree: int):
    keys, probes = _workload()
    hs = hardjono_seberry(min_degree)
    bm = bayer_metzger(min_degree)
    for k in keys:
        hs.insert(k, b"x")
        bm.insert(k, b"x")
    # the height walk decrypts pointers too: read it outside the window
    height = hs.tree.height()
    hs_before = hs.stats()
    bm_before = bm.tree.codec.triplet_counts.decryptions
    for k in probes:
        hs.tree.search(k)
        bm.tree.search(k)
    hs_after = hs.stats()

    def hs_per_probe(section: str, field: str) -> float:
        return (hs_after[section][field] - hs_before[section][field]) / NUM_PROBES

    return {
        "n": 2 * min_degree - 1,
        "height": height,
        "hs_decr": hs_per_probe("pointer_cipher", "decryptions"),
        "hs_inv": hs_per_probe("substitution", "inversions"),
        "bm_decr": (bm.tree.codec.triplet_counts.decryptions - bm_before) / NUM_PROBES,
    }


def test_c1_decryptions_per_search(benchmark, reporter):
    measurements = [measure_pair(t) for t in MIN_DEGREES]

    # time one full search on the mid-size configuration
    keys, probes = _workload()
    hs = hardjono_seberry(8)
    for k in keys:
        hs.insert(k, b"x")
    benchmark(hs.tree.search, probes[0])

    rows = []
    for m in measurements:
        predicted_bm = m["height"] * log2(max(2, m["n"]))
        rows.append(
            [
                m["n"],
                m["height"],
                f"{m['hs_decr']:.2f}",
                f"{m['hs_inv']:.2f}",
                f"{m['bm_decr']:.2f}",
                f"{predicted_bm:.1f}",
                f"{m['bm_decr'] / m['hs_decr']:.2f}x",
            ]
        )
    reporter.table(
        f"decryptions per search ({NUM_KEYS} keys, {NUM_PROBES} uniform probes)",
        [
            "n/node",
            "height",
            "HS decr",
            "HS inversions",
            "BM decr",
            "~h*log2(n)",
            "BM/HS",
        ],
        rows,
    )

    for m in measurements:
        # the paper's claim, asserted: HS pays about one decryption per
        # level; BM pays a log2(n) factor more
        assert m["hs_decr"] <= m["height"] + 0.01
        assert m["bm_decr"] > m["hs_decr"]
    widest = measurements[-1]
    assert widest["bm_decr"] / widest["hs_decr"] > 2.0
    reporter.section(
        "verdict",
        "Hardjono-Seberry searches decrypt once per node on the path; the "
        "Bayer-Metzger baseline tracks height * log2(n).  The advantage "
        "grows with node capacity, exactly as §3 argues.",
    )
