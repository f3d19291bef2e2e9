"""Enciphered node codecs: the paper's layout and the baseline's.

Both codecs return *lazy* views, so the cost of reading a node is exactly
the cost of the fields the traversal touches:

* :class:`SubstitutedNodeCodec` (Hardjono--Seberry, §3/§4): stored keys
  are disguises ``f(k)`` -- inverting one is arithmetic, not decryption --
  and each triplet's pointers live in one cryptogram ``E(b || a || p)``.
  Navigating a node costs zero decryptions for the keys and exactly one
  decryption for the chosen pointer.  Because a cryptogram is bound only
  to its block, editing a node costs cipher work only for the triplets
  the edit creates, changes or moves to another block
  (:class:`SealedTriplet`); the rest are rewritten as stored.
* :class:`PageKeyNodeCodec` (Bayer--Metzger, §2): every triplet (key and
  pointers together) is enciphered under the page key derived from the
  block id.  Even *looking at* a key costs a decryption, so binary search
  pays ``~log2(n)`` triplet decryptions per node -- the cost the paper
  sets out to remove.
"""

from __future__ import annotations


from repro.btree.codec import (
    HEADER_BYTES,
    PlainNodeCodec,
    PlainNodeView,
    decode_header,
    encode_header,
    locate_by_key_at,
)
from repro.btree.node import Node
from repro.core.packing import PointerPacking
from repro.counters import ThreadSafeCounters
from repro.crypto.base import CountingCipher, CryptoOpCounts, IntegerCipher
from repro.crypto.des import DES
from repro.crypto.pagekey import PageKeyScheme
from repro.exceptions import CodecError, IntegrityError, SubstitutionError
from repro.storage.layout import bytes_for_value
from repro.substitution.base import KeySubstitution
from repro.substitution.exponentiation import ExponentiationSubstitution


def _check_value(*parts: object) -> bytes:
    """Eight bytes digesting a codec's secrets and layout parameters.

    The superblock records it, so a reopen with another codec, other
    secrets or another layout fails before anything is decoded.  Each
    codec feeds it values from its uncounted primitives only, so no
    cipher or substitution count moves.  The digest is a DES CBC-MAC
    under a fixed key: it detects a mismatch, and the superblock's own
    encipherment keeps it secret.
    """
    data = repr(parts).encode()
    data += bytes(-len(data) % 8)
    return DES(b"CODECCHK").cbc_encrypt_blocks(data, bytes(8))[-8:]


# ---------------------------------------------------------------------------
# Hardjono--Seberry layout: [f(k) ...][E(b||a||p) ...][E(b||0||p_extra)]
# ---------------------------------------------------------------------------


class SubstitutedNodeCodec:
    """The paper's node layout: disguised keys, one cryptogram per triplet.

    Parameters
    ----------
    substitution:
        The key disguise ``f`` (any :class:`KeySubstitution`).
        Exponentiation disguises are refused unless injective: two keys
        sharing a substitute would make one of them unreachable.
    pointer_cipher:
        Integer cipher for the packed pointer pairs; its modulus must
        exceed ``packing.required_modulus()``.  Wrap it in a
        :class:`~repro.crypto.base.CountingCipher` to meter experiments.
    packing:
        Bit widths of the ``b || a || p`` packing.
    extra_pointer_mode:
        How the unaccompanied tree pointer (the one without a key and
        data pointer) is protected.  ``"encrypt"`` (default, secure)
        packs it into a cryptogram like every other pointer.
        ``"disguise"`` follows the paper's literal sentence -- *"should
        simply be disguised through the function f"* -- passing the block
        id through the key disguise.  The ablation exists to measure what
        that sentence costs: the disguised pointer reveals one true edge
        per node to anyone who breaks the (weak) disguise, and it only
        works while block ids stay inside the disguise's key universe.
    """

    _EXTRA_MODES = ("encrypt", "disguise")

    #: The superblock's codec tag: which layout wrote the node blocks.
    tag = 1

    def __init__(
        self,
        substitution: KeySubstitution,
        pointer_cipher: IntegerCipher,
        packing: PointerPacking | None = None,
        extra_pointer_mode: str = "encrypt",
    ) -> None:
        if extra_pointer_mode not in self._EXTRA_MODES:
            raise CodecError(
                f"extra_pointer_mode must be one of {self._EXTRA_MODES}, "
                f"got {extra_pointer_mode!r}"
            )
        if isinstance(substitution, ExponentiationSubstitution) and not substitution.is_injective():
            raise SubstitutionError(
                "exponentiation disguise is not injective for these parameters "
                "(two keys share a substitute); choose N > v or different t/g"
            )
        self.substitution = substitution
        self.cipher = pointer_cipher
        self.packing = packing or PointerPacking()
        self.extra_pointer_mode = extra_pointer_mode
        if pointer_cipher.modulus < self.packing.required_modulus():
            raise CodecError(
                f"cipher modulus {pointer_cipher.modulus.bit_length()} bits cannot "
                f"carry {self.packing.total_bits}-bit packed pointers"
            )
        self.key_bytes = bytes_for_value(substitution.max_substitute())
        self.cryptogram_bytes = bytes_for_value(pointer_cipher.modulus - 1)
        # the unaccompanied pointer's width, appended to internal nodes
        self.extra_bytes = (
            self.key_bytes if extra_pointer_mode == "disguise" else self.cryptogram_bytes
        )

    def check_value(self) -> bytes:
        """The superblock's check: the disguise's secrets, the pointer
        cipher's encryption of a fixed value, and the layout widths."""
        cipher = self.cipher
        if isinstance(cipher, CountingCipher):
            cipher = cipher.inner
        fixed = self.packing.required_modulus() - 1
        return _check_value(
            self.tag, type(self.substitution).__name__,
            self.substitution.secret_material(),
            cipher.modulus, cipher.encrypt_int(fixed),
            self.packing.block_bits, self.packing.pointer_bits,
            self.extra_pointer_mode, self.key_bytes, self.cryptogram_bytes,
        )

    # -- encode ----------------------------------------------------------

    def encode(self, node: Node) -> bytes:
        """Serialise ``node``; its pointers may be ints or sealed triplets.

        A triplet whose fields are both still the same
        :class:`SealedTriplet` of this block, of the same leaf/internal
        kind, keeps its stored cryptogram verbatim (so does the
        unaccompanied pointer).  Every other field is resolved -- a
        counted, block-binding-checked decryption for a sealed one -- and
        the triplet is encrypted afresh.  RSA is deterministic, so both
        routes yield the same bytes for an untampered block.
        """
        node.check()
        out = encode_header(node)
        for key in node.keys:
            out.extend(self.substitution.substitute(key).to_bytes(self.key_bytes, "big"))
        for i, value in enumerate(node.values):
            tree_ptr = None if node.is_leaf else node.children[i]
            out.extend(self._cryptogram(node, value, tree_ptr))
        if not node.is_leaf:
            if self.extra_pointer_mode == "disguise":
                disguised = self.substitution.substitute(_child(node.children[-1]))
                out.extend(disguised.to_bytes(self.key_bytes, "big"))
            else:
                out.extend(self._cryptogram(node, None, node.children[-1]))
        return bytes(out)

    def _cryptogram(
        self,
        node: Node,
        value: "int | SealedTriplet | None",
        tree_ptr: "int | SealedTriplet | None",
    ) -> bytes:
        sealed = tree_ptr if value is None else value
        if (
            isinstance(sealed, SealedTriplet)
            and (tree_ptr is None or tree_ptr is sealed)
            and sealed.view.node_id == node.node_id
            and sealed.view.is_leaf == node.is_leaf
            and (value is None) == (sealed.index == sealed.view.num_keys)
        ):
            return sealed.view.stored_cryptogram(sealed.index)
        packed = self.packing.pack(
            node.node_id,
            None if value is None else _value(value),
            None if tree_ptr is None else _child(tree_ptr),
        )
        return self.cipher.encrypt_int(packed).to_bytes(self.cryptogram_bytes, "big")

    def decode(self, node_id: int, data: bytes) -> "SubstitutedNodeView":
        return SubstitutedNodeView(self, node_id, data)

    def node_overhead_bytes(self, num_keys: int, is_leaf: bool) -> int:
        size = HEADER_BYTES + num_keys * (self.key_bytes + self.cryptogram_bytes)
        return size if is_leaf else size + self.extra_bytes


class SealedTriplet:
    """Triplet ``index`` of ``view``, carried through a node edit unopened.

    :meth:`SubstitutedNodeView.edit` puts one of these in both the
    ``values`` and the ``children`` slot of each triplet (the same
    object), and in the unaccompanied pointer's slot.  The B-tree moves
    them around like the ints they stand for; the codec's ``encode``
    copies the stored cryptogram while the triplet stays intact in its
    own block, and decrypts it (checking the block binding) only when an
    edit splits it up or moves it elsewhere.
    """

    __slots__ = ("view", "index")

    def __init__(self, view: "SubstitutedNodeView", index: int) -> None:
        self.view = view
        self.index = index


def _value(field: "int | SealedTriplet") -> int:
    if isinstance(field, SealedTriplet):
        return field.view.value_at(field.index)
    return field


def _child(field: "int | SealedTriplet") -> int:
    if isinstance(field, SealedTriplet):
        return field.view.child_at(field.index)
    return field


class SubstitutedNodeView:
    """Lazy reader over the Hardjono--Seberry layout.

    Key access performs a disguise inversion (cheap arithmetic, counted by
    the substitution's counters), once per key; :meth:`locate` runs a
    visit's whole binary search over the stored bytes in one call.
    Pointer access decrypts the relevant cryptogram once and caches it
    for the lifetime of the view.
    :meth:`edit` hands the B-tree a node to rewrite without decrypting
    any pointer; :meth:`to_node` decrypts them all.

    A view lives for one node visit: the pager decodes a fresh one on
    every read, so the pointers it decrypts are never kept past the
    operation that asked for them.  Within that visit it is an immutable
    reader over immutable bytes.
    """

    __slots__ = (
        "_codec", "_data", "node_id", "is_leaf", "num_keys",
        "_key_bytes", "_crypt_off", "_key_cache", "_triplet_cache",
    )

    def __init__(self, codec: SubstitutedNodeCodec, node_id: int, data: bytes) -> None:
        self._codec = codec
        self._data = data
        self.node_id = node_id
        self.is_leaf, num_keys = decode_header(data)
        self.num_keys = num_keys
        key_bytes = self._key_bytes = codec.key_bytes
        crypt_off = self._crypt_off = HEADER_BYTES + num_keys * key_bytes
        expected = crypt_off + num_keys * codec.cryptogram_bytes
        if not self.is_leaf:
            expected += codec.extra_bytes
        if len(data) < expected:
            raise CodecError(
                f"node {node_id}: {len(data)} bytes, layout needs {expected}"
            )
        self._key_cache: dict[int, int] = {}
        self._triplet_cache: dict[int, tuple[int | None, int | None]] = {}

    # -- keys ------------------------------------------------------------

    def stored_key_at(self, i: int) -> int:
        if not 0 <= i < self.num_keys:
            raise CodecError(f"key index {i} out of range")
        start = HEADER_BYTES + i * self._key_bytes
        return int.from_bytes(self._data[start : start + self._key_bytes], "big")

    def key_at(self, i: int) -> int:
        """Plaintext key ``i``: one counted inversion per distinct index."""
        cached = self._key_cache.get(i)
        if cached is None:
            if not 0 <= i < self.num_keys:
                raise CodecError(f"key index {i} out of range")
            width = self._key_bytes
            start = HEADER_BYTES + i * width
            cached = self._key_cache[i] = self._codec.substitution.invert(
                int.from_bytes(self._data[start : start + width], "big")
            )
        return cached

    def locate(self, key: int) -> tuple[int, int | None, int]:
        """One visit's binary search, straight over the stored keys.

        The counts of the ``key_at`` loop (:meth:`NodeView.locate`): a
        probe at an index not yet read inverts its stored key -- one
        slice, one ``from_bytes`` and the disguise's uncounted map --
        and the visit's inversions are booked with one ``bump``, even
        when an inversion raises.  Probed keys join the view's key
        cache, so a later ``key_at`` or :meth:`edit` does not invert
        them again.
        """
        cache = self._key_cache
        data = self._data
        width = self._key_bytes
        invert = self._codec.substitution._invert
        from_bytes = int.from_bytes
        lo, hi = 0, self.num_keys
        found = None
        probes = inversions = 0
        try:
            while lo < hi:
                mid = (lo + hi) >> 1
                probes += 1
                probed = cache.get(mid)
                if probed is None:
                    inversions += 1
                    start = HEADER_BYTES + mid * width
                    probed = cache[mid] = invert(
                        from_bytes(data[start : start + width], "big")
                    )
                if probed < key:
                    lo = mid + 1
                else:
                    hi = mid
                    found = probed
        finally:
            if inversions:
                self._codec.substitution.counters.bump("inversions", inversions)
        return lo, found, probes

    # -- pointers ----------------------------------------------------------

    def stored_cryptogram(self, i: int) -> bytes:
        """Cryptogram ``i`` as stored (0..num_keys-1 triplets, num_keys=extra)."""
        width = self._codec.cryptogram_bytes
        start = self._crypt_off + i * width
        return self._data[start : start + width]

    def _triplet(self, i: int) -> tuple[int | None, int | None]:
        """Decrypt cryptogram ``i`` (0..num_keys-1 triplets, num_keys=extra)."""
        cached = self._triplet_cache.get(i)
        if cached is not None:
            return cached
        cryptogram = int.from_bytes(self.stored_cryptogram(i), "big")
        block_id, data_ptr, tree_ptr = self._codec.packing.unpack(
            self._codec.cipher.decrypt_int(cryptogram)
        )
        if block_id != self.node_id:
            raise IntegrityError(
                f"cryptogram bound to block {block_id} read from block {self.node_id}"
            )
        self._triplet_cache[i] = (data_ptr, tree_ptr)
        return (data_ptr, tree_ptr)

    def value_at(self, i: int) -> int:
        if not 0 <= i < self.num_keys:
            raise CodecError(f"value index {i} out of range")
        data_ptr, _ = self._triplet(i)
        if data_ptr is None:
            raise CodecError(f"triplet {i} of node {self.node_id} has no data pointer")
        return data_ptr

    def child_at(self, i: int) -> int:
        if self.is_leaf:
            raise CodecError(f"leaf {self.node_id} has no children")
        if not 0 <= i <= self.num_keys:
            raise CodecError(f"child index {i} out of range")
        if i == self.num_keys and self._codec.extra_pointer_mode == "disguise":
            return self._disguised_extra_pointer()
        _, tree_ptr = self._triplet(i)
        if tree_ptr is None:
            raise CodecError(f"triplet {i} of node {self.node_id} has no tree pointer")
        return tree_ptr

    def _disguised_extra_pointer(self) -> int:
        """§3 ablation: the unaccompanied pointer went through ``f``."""
        width = self._codec.key_bytes
        start = self._crypt_off + self.num_keys * self._codec.cryptogram_bytes
        stored = int.from_bytes(self._data[start : start + width], "big")
        return self._codec.substitution.invert(stored)

    def to_node(self) -> Node:
        keys = [self.key_at(i) for i in range(self.num_keys)]
        values = [self.value_at(i) for i in range(self.num_keys)]
        children: list[int] = []
        if not self.is_leaf:
            children = [self.child_at(i) for i in range(self.num_keys + 1)]
        return Node(
            node_id=self.node_id,
            is_leaf=self.is_leaf,
            keys=keys,
            values=values,
            children=children,
        )

    def edit(self) -> Node:
        """The node to rewrite: plaintext keys, every pointer still sealed.

        Costs key inversions only; a pointer is decrypted when ``encode``
        finds its triplet changed or moved (see :class:`SealedTriplet`).
        """
        sealed = [
            SealedTriplet(self, i)
            for i in range(self.num_keys + (0 if self.is_leaf else 1))
        ]
        return Node(
            node_id=self.node_id,
            is_leaf=self.is_leaf,
            keys=[self.key_at(i) for i in range(self.num_keys)],
            values=sealed[: self.num_keys],
            children=[] if self.is_leaf else sealed,
        )


# ---------------------------------------------------------------------------
# Bayer--Metzger layout: per-page key, every triplet fully enciphered.
# ---------------------------------------------------------------------------


class TripletOpCounts(ThreadSafeCounters):
    """Triplet-granularity cipher operations (the paper's cost unit).

    Thread-safe (per-thread accumulation, merged reads) like every
    counter on the concurrent read path.
    """

    _FIELDS = ("encryptions", "decryptions")


class PageKeyNodeCodec:
    """Baseline layout: ``T(k_i || a_i || p_i, K_Pi)`` per triplet.

    The page key ``K_Pi`` is derived from the block id via the
    Bayer--Metzger scheme, so the ciphertext of a triplet is bound to its
    page implicitly: the same triplet re-encrypted in a different block
    yields different bytes, and moving a triplet forces decrypt +
    re-encrypt (the §3 reorganisation overhead).

    The node header is enciphered too (the whole page is ciphertext on
    disk); decoding pays one block decryption up front, then one triplet
    decryption per *distinct* key/pointer access.
    """

    #: The superblock's codec tag (see :class:`SubstitutedNodeCodec`).
    tag = 2

    def __init__(
        self,
        scheme: PageKeyScheme,
        key_bytes: int = 8,
        pointer_bytes: int = 4,
    ) -> None:
        self.scheme = scheme
        self.key_bytes = key_bytes
        self.pointer_bytes = pointer_bytes
        self.triplet_counts = TripletOpCounts()
        self.block_counts = CryptoOpCounts()
        plain = key_bytes + 2 * pointer_bytes
        self.triplet_blocks = (plain + 7) // 8
        self.triplet_cipher_bytes = 8 * self.triplet_blocks

    def check_value(self) -> bytes:
        """The superblock's check: a page key and the triplet widths."""
        return _check_value(
            self.tag, self.scheme.derive_page_key(0).key,
            self.key_bytes, self.pointer_bytes,
        )

    # -- per-page cipher -----------------------------------------------------

    def _page_des(self, node_id: int) -> DES:
        return DES(self.scheme.derive_page_key(node_id).key)

    @staticmethod
    def _pad8(plain: bytes) -> bytes:
        if len(plain) % 8:
            return plain + b"\x00" * (8 - len(plain) % 8)
        return plain

    def _encrypt_chunk(self, des: DES, plain: bytes) -> bytes:
        plain = self._pad8(plain)
        self.block_counts.bump("encryptions", len(plain) // 8)
        return des.encrypt_blocks(plain)

    def _decrypt_chunk(self, des: DES, cipher: bytes) -> bytes:
        self.block_counts.bump("decryptions", len(cipher) // 8)
        return des.decrypt_blocks(cipher)

    # -- triplet serialisation -------------------------------------------

    def _pack_triplet(self, key: int, value: int | None, child: int | None) -> bytes:
        out = bytearray()
        out.extend(key.to_bytes(self.key_bytes, "big"))
        out.extend((0 if value is None else value + 1).to_bytes(self.pointer_bytes, "big"))
        out.extend((0 if child is None else child + 1).to_bytes(self.pointer_bytes, "big"))
        return bytes(out)

    def _unpack_triplet(self, data: bytes) -> tuple[int, int | None, int | None]:
        key = int.from_bytes(data[: self.key_bytes], "big")
        off = self.key_bytes
        a = int.from_bytes(data[off : off + self.pointer_bytes], "big")
        off += self.pointer_bytes
        p = int.from_bytes(data[off : off + self.pointer_bytes], "big")
        return key, (a - 1 if a else None), (p - 1 if p else None)

    # -- codec API ---------------------------------------------------------

    def encode(self, node: Node) -> bytes:
        node.check()
        des = self._page_des(node.node_id)
        # One contiguous plaintext buffer, one bulk encryption: ECB over
        # 8-aligned chunks commutes with concatenation, so the ciphertext
        # is byte-identical to encrypting header and triplets separately
        # while handing the kernel the whole page at once.
        chunks = [self._pad8(bytes(encode_header(node)))]
        triplets = 0
        for i, (key, value) in enumerate(zip(node.keys, node.values)):
            child = None if node.is_leaf else node.children[i]
            chunks.append(self._pad8(self._pack_triplet(key, value, child)))
            triplets += 1
        if not node.is_leaf:
            chunks.append(self._pad8(self._pack_triplet(0, None, node.children[-1])))
            triplets += 1
        plain = b"".join(chunks)
        self.block_counts.bump("encryptions", len(plain) // 8)
        self.triplet_counts.bump("encryptions", triplets)
        return des.encrypt_blocks(plain)

    def decode(self, node_id: int, data: bytes) -> "PageKeyNodeView":
        return PageKeyNodeView(self, node_id, data)

    def node_overhead_bytes(self, num_keys: int, is_leaf: bool) -> int:
        size = 8  # enciphered header block
        size += num_keys * self.triplet_cipher_bytes
        if not is_leaf:
            size += self.triplet_cipher_bytes
        return size


class PageKeyNodeView:
    """Lazy binary-search-and-decrypt reader over the baseline layout."""

    def __init__(self, codec: PageKeyNodeCodec, node_id: int, data: bytes) -> None:
        self._codec = codec
        self._data = data
        self.node_id = node_id
        self._des = codec._page_des(node_id)
        header = codec._decrypt_chunk(self._des, data[:8])
        self.is_leaf, self.num_keys = decode_header(header[:HEADER_BYTES])
        self._cache: dict[int, tuple[int, int | None, int | None]] = {}

    def _triplet(self, i: int) -> tuple[int, int | None, int | None]:
        cached = self._cache.get(i)
        if cached is not None:
            return cached
        width = self._codec.triplet_cipher_bytes
        start = 8 + i * width
        if start + width > len(self._data):
            raise CodecError(f"triplet {i} beyond node {self.node_id} bounds")
        plain = self._codec._decrypt_chunk(self._des, self._data[start : start + width])
        self._codec.triplet_counts.bump("decryptions")
        triplet = self._codec._unpack_triplet(plain)
        self._cache[i] = triplet
        return triplet

    def key_at(self, i: int) -> int:
        if not 0 <= i < self.num_keys:
            raise CodecError(f"key index {i} out of range")
        return self._triplet(i)[0]

    locate = locate_by_key_at

    def stored_key_at(self, i: int) -> int:
        """The at-rest form is ciphertext; expose the raw bytes as an int."""
        width = self._codec.triplet_cipher_bytes
        start = 8 + i * width
        return int.from_bytes(self._data[start : start + width], "big")

    def value_at(self, i: int) -> int:
        if not 0 <= i < self.num_keys:
            raise CodecError(f"value index {i} out of range")
        value = self._triplet(i)[1]
        if value is None:
            raise CodecError(f"triplet {i} of node {self.node_id} has no data pointer")
        return value

    def child_at(self, i: int) -> int:
        if self.is_leaf:
            raise CodecError(f"leaf {self.node_id} has no children")
        if not 0 <= i <= self.num_keys:
            raise CodecError(f"child index {i} out of range")
        child = self._triplet(i)[2]
        if child is None:
            raise CodecError(f"triplet {i} of node {self.node_id} has no tree pointer")
        return child

    def _decrypt_missing(self) -> None:
        """Batch-decrypt every not-yet-cached triplet in one bulk call.

        Gathers the ciphertext of the missing triplets into a single
        contiguous buffer so the kernel sees one array instead of one
        8/16-byte call per triplet.  Cipher accounting is identical to
        the lazy path: already-cached triplets are not re-decrypted, so
        a ``to_node()`` after a partial probe costs exactly the same
        block and triplet decryptions as probing the rest one by one.
        """
        total = self.num_keys + (0 if self.is_leaf else 1)
        missing = [i for i in range(total) if i not in self._cache]
        if not missing:
            return
        width = self._codec.triplet_cipher_bytes
        end = 8 + total * width
        if end > len(self._data):
            raise CodecError(f"triplet {total - 1} beyond node {self.node_id} bounds")
        cipher = b"".join(
            self._data[8 + i * width : 8 + (i + 1) * width] for i in missing
        )
        plain = self._codec._decrypt_chunk(self._des, cipher)
        self._codec.triplet_counts.bump("decryptions", len(missing))
        for pos, i in enumerate(missing):
            self._cache[i] = self._codec._unpack_triplet(
                plain[pos * width : (pos + 1) * width]
            )

    def to_node(self) -> Node:
        self._decrypt_missing()
        keys = [self.key_at(i) for i in range(self.num_keys)]
        values = [self.value_at(i) for i in range(self.num_keys)]
        children: list[int] = []
        if not self.is_leaf:
            children = [self.child_at(i) for i in range(self.num_keys + 1)]
        return Node(
            node_id=self.node_id,
            is_leaf=self.is_leaf,
            keys=keys,
            values=values,
            children=children,
        )

    def edit(self) -> Node:
        """Keys live inside the triplet cipher, so an edit decrypts all."""
        return self.to_node()


# ---------------------------------------------------------------------------
# Bayer--Metzger whole-page layout: C = T(M, K_Pi) over the entire node.
# ---------------------------------------------------------------------------


class WholePageNodeCodec:
    """Baseline ablation: the whole node is one ciphertext.

    The simplest reading of Bayer & Metzger's ``C_Pi = T(M_Pi, K_Pi)``:
    serialise the node in the plain layout and encipher the entire page
    under the page key.  Any access -- even a single key probe -- pays a
    full-page decryption, so the per-visit cost is the node's block count
    rather than the probe count.  Experiment A1 compares this against the
    lazy per-triplet layout.

    Cost accounting: ``triplet_counts`` tallies whole triplets carried
    through the cipher (all of them, on every encode/decode) and
    ``block_counts`` the underlying cipher blocks, so per-search counts
    stay comparable across layouts.
    """

    #: The superblock's codec tag (see :class:`SubstitutedNodeCodec`).
    tag = 3

    def __init__(
        self,
        scheme: PageKeyScheme,
        key_bytes: int = 8,
        pointer_bytes: int = 4,
    ) -> None:
        self.scheme = scheme
        self.inner = PlainNodeCodec(key_bytes=key_bytes, pointer_bytes=pointer_bytes)
        self.key_bytes = key_bytes
        self.pointer_bytes = pointer_bytes
        self.triplet_counts = TripletOpCounts()
        self.block_counts = CryptoOpCounts()

    def check_value(self) -> bytes:
        """The superblock's check: a page key, the page cipher's mode and
        the plain layout's widths."""
        return _check_value(
            self.tag, self.scheme.derive_page_key(0).key, self.scheme.mode,
            self.key_bytes, self.pointer_bytes,
        )

    def encode(self, node: Node) -> bytes:
        plain = self.inner.encode(node)
        ciphertext = self.scheme.encrypt_page(node.node_id, plain)
        self.triplet_counts.bump("encryptions", node.num_keys + (0 if node.is_leaf else 1))
        self.block_counts.bump("encryptions", (len(ciphertext) + 7) // 8)
        return ciphertext

    def decode(self, node_id: int, data: bytes) -> PlainNodeView:
        plain = self.scheme.decrypt_page(node_id, data)
        view = self.inner.decode(node_id, plain)
        self.triplet_counts.bump("decryptions", view.num_keys + (0 if view.is_leaf else 1))
        self.block_counts.bump("decryptions", (len(data) + 7) // 8)
        return view

    def node_overhead_bytes(self, num_keys: int, is_leaf: bool) -> int:
        plain = self.inner.node_overhead_bytes(num_keys, is_leaf)
        if self.scheme.mode == "progressive":
            return plain  # length-preserving
        return (plain // 8 + 1) * 8  # PKCS#7 always appends 1..8 bytes
