"""Numerical multipliers of difference sets -- a pitfall for the oval map.

A unit ``t`` is a *numerical multiplier* of a difference set ``D`` when
``t*D = D + s (mod v)`` for some shift ``s``: multiplying by ``t`` maps
the design onto a translate of itself.  Planar difference sets always
have them (by Hall's multiplier theorem the primes dividing the order
``n`` are multipliers -- e.g. ``t = 3`` for the paper's ``{0,1,3,9} mod
13``).

Why it matters here: the paper's disguise maps lines ``L_y`` to "ovals"
``t*L_y``.  If ``t`` happens to be a numerical multiplier, the image
blocks are just translates of the original lines -- **the oval system is
the line system**, so the combinatorial structure the scheme pretends to
hide is in plain sight, and the attacker's hypothesis space for the
disguise shrinks from ``phi(v)`` multipliers to a coset.  The key-level
map ``k -> k*t mod v`` is still a non-trivial permutation, but choosing a
non-multiplier ``t`` is strictly better hiding; this module lets callers
check.
"""

from __future__ import annotations

from math import gcd

from repro.designs.difference_sets import DifferenceSet
from repro.exceptions import DesignError


def multiplier_shift(ds: DifferenceSet, t: int) -> int | None:
    """Return ``s`` with ``t*D = D + s (mod v)``, or ``None`` if no such
    shift exists (i.e. ``t`` is not a numerical multiplier)."""
    if gcd(t % ds.v, ds.v) != 1:
        raise DesignError(f"{t} is not a unit modulo {ds.v}")
    v = ds.v
    image = {r * t % v for r in ds.residues}
    base = sorted(ds.residues)
    # t*D = D + s puts both base[0] + s and base[-1] + s in the image, so
    # only an anchor a with a + d in the image can give s = a - base[0];
    # each such candidate is confirmed against the whole translate (of
    # the same size as the image, so inclusion is equality).
    d = base[-1] - base[0]
    for anchor in sorted(image):
        if (anchor + d) % v in image:
            s = (anchor - base[0]) % v
            if all((r + s) % v in image for r in base):
                return s
    return None


def is_numerical_multiplier(ds: DifferenceSet, t: int) -> bool:
    """True iff ``t*D`` is a translate of ``D``."""
    return multiplier_shift(ds, t) is not None


def numerical_multipliers(ds: DifferenceSet) -> list[int]:
    """All numerical multipliers of the design (they form a group)."""
    return [
        t
        for t in range(1, ds.v)
        if gcd(t, ds.v) == 1 and is_numerical_multiplier(ds, t)
    ]


def non_multiplier_units(ds: DifferenceSet) -> list[int]:
    """Units that are *not* multipliers: the recommended oval parameters."""
    multipliers = set(numerical_multipliers(ds))
    return [
        t
        for t in range(2, ds.v)
        if gcd(t, ds.v) == 1 and t not in multipliers
    ]
