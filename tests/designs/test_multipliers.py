"""Numerical multipliers and the oval-parameter pitfall."""

from __future__ import annotations

from math import gcd

import pytest

from repro.designs.difference_sets import (
    DifferenceSet,
    planar_difference_set,
    singer_difference_set,
)
from repro.designs.multipliers import (
    is_numerical_multiplier,
    multiplier_shift,
    non_multiplier_units,
    numerical_multipliers,
)
from repro.designs.ovals import multiplier_map
from repro.exceptions import DesignError


class TestHallMultipliers:
    def test_three_is_a_multiplier_of_the_paper_design(self, paper_design):
        """Hall: primes dividing the order (n = 3) are multipliers."""
        assert is_numerical_multiplier(paper_design, 3)
        s = multiplier_shift(paper_design, 3)
        image = sorted(r * 3 % 13 for r in paper_design.residues)
        assert image == sorted((r + s) % 13 for r in paper_design.residues)

    def test_two_is_a_multiplier_of_the_fano_development(self):
        ds = singer_difference_set(2)  # order 2: p = 2 is a multiplier
        assert is_numerical_multiplier(ds, 2)

    def test_multipliers_form_a_group(self, paper_design):
        ms = numerical_multipliers(paper_design)
        assert 1 in ms
        for a in ms:
            for b in ms:
                assert a * b % 13 in ms

    def test_paper_t7_is_not_a_multiplier(self, paper_design):
        """The paper's example multiplier t = 7 is a good choice: the
        oval system genuinely differs from the line system."""
        assert not is_numerical_multiplier(paper_design, 7)

    def test_shift_is_none_for_non_multiplier(self, paper_design):
        assert multiplier_shift(paper_design, 7) is None

    def test_non_unit_rejected(self):
        ds = singer_difference_set(4)  # v = 21
        with pytest.raises(DesignError):
            is_numerical_multiplier(ds, 7)


class TestOvalParameterGuidance:
    def test_multiplier_t_leaves_design_exposed(self, paper_design):
        """With a multiplier t the 'oval' blocks are exactly the line
        blocks (as sets): the structure is not hidden at all."""
        mapped = multiplier_map(paper_design, 3)
        lines = {frozenset(b) for b in paper_design.develop()}
        ovals = {frozenset(b) for b in mapped.blocks}
        assert ovals == lines

    def test_non_multiplier_t_changes_the_block_system(self, paper_design):
        mapped = multiplier_map(paper_design, 7)
        lines = {frozenset(b) for b in paper_design.develop()}
        ovals = {frozenset(b) for b in mapped.blocks}
        assert ovals != lines

    def test_recommended_units_exclude_multipliers(self, paper_design):
        good = non_multiplier_units(paper_design)
        assert 7 in good
        assert 3 not in good and 9 not in good and 1 not in good
        for t in good:
            assert not is_numerical_multiplier(paper_design, t)

    def test_counts_partition_units(self, paper_design):
        multipliers = numerical_multipliers(paper_design)
        good = non_multiplier_units(paper_design)
        assert len(multipliers) + len(good) == 12  # phi(13)


def _brute_force_shift(ds, t):
    """The exhaustive search: every image element as the anchor of a
    translate, each translate sorted and compared."""
    image = sorted(r * t % ds.v for r in ds.residues)
    base = sorted(ds.residues)
    for anchor in image:
        s = (anchor - base[0]) % ds.v
        if sorted((r + s) % ds.v for r in base) == image:
            return s
    return None


def _units(v):
    return [t for t in range(1, v) if gcd(t, v) == 1]


class TestShiftSearch:
    """The difference-filtered shift search agrees with brute force."""

    @pytest.mark.parametrize("order", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
    def test_planar_orders_match_brute_force(self, order):
        ds = planar_difference_set(order)
        units = _units(ds.v)
        shifts = [_brute_force_shift(ds, t) for t in units]
        assert [multiplier_shift(ds, t) for t in units] == shifts
        assert non_multiplier_units(ds) == [
            t for t, s in zip(units, shifts) if t > 1 and s is None
        ]

    def test_order_37_matches_brute_force(self):
        ds = planar_difference_set(37)  # v = 1407, the engine's design
        units = _units(ds.v)
        for t in units:
            assert multiplier_shift(ds, t) == _brute_force_shift(ds, t), t
        # phi(1407) = 792 units, three of them multipliers (1, 37, 37^2)
        assert len(non_multiplier_units(ds)) == 789

    @pytest.mark.parametrize(
        "ds",
        [
            DifferenceSet(tuple(range(1, 7)), 7, 5),  # a point's complement
            DifferenceSet((3,), 7, 0),  # one residue: every unit shifts it
            DifferenceSet((0, 1, 2, 3, 4, 5, 6), 7, 7),  # all of Z_7
        ],
    )
    def test_degenerate_sets_match_brute_force(self, ds):
        for t in _units(ds.v):
            assert multiplier_shift(ds, t) == _brute_force_shift(ds, t)
