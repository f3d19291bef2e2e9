#!/usr/bin/env python3
"""Quickstart: an enciphered B-Tree database in a dozen lines.

Builds the paper's system -- disguised search keys, encrypted pointers,
independently enciphered data blocks -- inserts some records, runs point
and range queries, and prints the cryptographic bill.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import EncipheredDatabase, OvalSubstitution, planar_difference_set
from repro.crypto.rsa import RSA, generate_rsa_keypair


def main() -> None:
    # 1. Pick a block design with v greater than the number of records.
    #    Order 13 gives the (183, 14, 1) projective-plane design.
    design = planar_difference_set(13)
    print(f"block design: v={design.v}, k={design.k}, lambda={design.lam}")
    print(f"first line L0 (the secret): {design.residues}")

    # 2. Choose the disguise: oval substitution with secret multiplier t.
    substitution = OvalSubstitution(design, t=5)
    print(f"secret material: {substitution.secret_size_bytes()} bytes "
          f"({substitution.secret_material()})\n")

    # 3. Build the database.  Pointer pairs are encrypted under RSA;
    #    everything below this call -- node layout, pointer encryption,
    #    record encipherment -- is the paper's §3/§5.
    db = EncipheredDatabase.create(substitution, RSA(generate_rsa_keypair(bits=128)))

    # 4. Insert records: keys are disguised, pointers encrypted, payloads
    #    enciphered in separate data blocks.
    for key in (23, 7, 98, 45, 121, 60, 3, 77):
        db.insert(key, f"employee record #{key}".encode())

    # 5. Point lookup.
    print("search(45) ->", db.search(45).decode())

    # 6. Range search works despite the scrambled at-rest keys, because
    #    triplet placement follows the plaintext order (§4.1).
    print("range_search(20, 80) ->")
    for key, payload in db.range_search(20, 80):
        print(f"   {key:3d}: {payload.decode()}")

    # 7. The cryptographic bill: one pointer decryption per node visited,
    #    zero key decryptions (inversions are modular arithmetic).
    before = db.stats()
    db.search(98)
    after = db.stats()

    def cost(section: str, field: str) -> int:
        return after[section][field] - before[section][field]

    print("\none search cost:")
    print(f"  pointer decryptions : {cost('pointer_cipher', 'decryptions')}"
          f"  (tree height = {db.tree.height()})")
    print(f"  key inversions      : {cost('substitution', 'inversions')}"
          " (arithmetic, not crypto)")
    print(f"  comparisons         : {cost('tree', 'comparisons')}")
    print(f"  node blocks read    : {cost('pager', 'misses')} from disk, "
          f"{cost('pager', 'hits')} from the pager cache")

    # 8. What rests on the platter: disguised keys, opaque cryptograms.
    raw = db.disk.raw_block(db.tree.root_id)
    print(f"\nroot block at rest (first 48 bytes): {raw[:48].hex()}")


if __name__ == "__main__":
    main()
