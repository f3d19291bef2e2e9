#!/usr/bin/env python3
"""Scenario: the opponent gets the disk.

The paper's threat model: an attacker obtains *"the B-Tree representation
on a sequential set of disk blocks"* and knows the layout, but holds no
keys.  This example builds the same database under three protections,
hands the raw platter to the attacker toolkit, and prints what each
attack recovers.

Run:  python examples/forensic_attacker.py
"""

from __future__ import annotations

import random

from repro import (
    EncipheredDatabase,
    IdentitySubstitution,
    OvalSubstitution,
    SumSubstitution,
    planar_difference_set,
)
from repro.analysis import (
    byte_entropy,
    edge_precision_recall,
    key_order_correlation,
    multiplier_recovery_attack,
    parse_substituted_blocks,
    range_nesting_edges,
    rank_matching_attack,
)
from repro.analysis.attacker import rank_attack_accuracy, true_edges
from repro.crypto.rsa import RSA, generate_rsa_keypair

DESIGN = planar_difference_set(13)  # v = 183
NUM_RECORDS = 110
POINTER_CIPHER = RSA(generate_rsa_keypair(bits=128, rng=random.Random(0x48533930)))


def build(substitution):
    db = EncipheredDatabase.create(substitution, POINTER_CIPHER)
    keys = random.Random(7).sample(list(substitution.key_universe()), NUM_RECORDS)
    for k in keys:
        db.insert(k, f"secret dossier {k}".encode())
    return db, keys


def attack(name: str, db, keys, substitution) -> None:
    print(f"--- scheme: {name} ---")
    surface = parse_substituted_blocks(
        db.disk, db.tree.codec.key_bytes, db.tree.codec.cryptogram_bytes
    )
    print(f"  parsed {len(surface.blocks)} node blocks off the platter")

    # 1. entropy of data blocks: are payloads readable?
    dump = b"".join(data for _, data in db.records.disk.raw_blocks())
    print(f"  data-block entropy: {byte_entropy(dump):.2f} bits/byte "
          "(8.0 = indistinguishable from noise)")

    # 2. order leakage
    pairs = [(k, substitution.substitute(k)) for k in keys]
    tau = key_order_correlation(pairs)
    print(f"  key-order correlation (Kendall tau): {tau:+.2f}")

    # 3. census attack: attacker knows WHICH ids exist, tries rank matching
    mapping = rank_matching_attack([d for _, d in pairs], sorted(keys))
    accuracy = rank_attack_accuracy(mapping, pairs)
    print(f"  census (known key set) recovery: {accuracy:.0%}")

    # 4. known-plaintext: one leaked (key, disguise) pair
    recovered = multiplier_recovery_attack(pairs[:2], DESIGN.v)
    print(f"  known-plaintext multiplier recovery: "
          f"{'t = ' + str(recovered) if recovered is not None else 'failed'}")

    # 5. shape reconstruction
    guess = range_nesting_edges(surface)
    precision, recall = edge_precision_recall(guess, true_edges(db.tree))
    print(f"  tree-edge reconstruction: precision {precision:.0%}, "
          f"recall {recall:.0%}\n")


def main() -> None:
    schemes = [
        ("identity (no disguise)", IdentitySubstitution(bound=DESIGN.v)),
        ("oval substitution, t=5", OvalSubstitution(DESIGN, t=5)),
        ("sum-of-treatments (order-preserving)", SumSubstitution(DESIGN, num_keys=170)),
    ]
    print(f"database: {NUM_RECORDS} records, v = {DESIGN.v} design\n")
    for name, substitution in schemes:
        db, keys = build(substitution)
        attack(name, db, keys, substitution)

    print(
        "reading: the oval disguise defeats order inference, census "
        "matching and shape\nreconstruction -- but a single known "
        "plaintext pair recovers t, confirming the\npaper's warning that "
        "disguising 'offers less security than encryption'.  The\n"
        "pointers and payloads stay opaque regardless (they are properly "
        "encrypted)."
    )


if __name__ == "__main__":
    main()
