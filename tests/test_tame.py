"""Tame changes of generators keep homology, H_0 slices and pages.

``tame.conjugate`` gives D' = ψ⁻¹Dψ for ψ: x ↦ x + w on ``build_hopf(2)``,
with x a stabilization letter e and w a product of two chord letters of
x's degree and weight.  Where w is as long as x, D' still splits into
composable segments and the segment route runs on a differential that is
not a built-in's; where w is shorter, D' takes the one-block route.  Either
way homology, the H_0 slices and the pages must equal the original's, and
``FilteredComplex.barcode`` checks E-oo against homology on every block.
"""

from fractions import Fraction
from functools import cache

import pytest
from tame import conjugate

from stringhom import specseq
from stringhom.free_dga import (
    LengthWindow,
    build_hopf,
    destabilize,
    h0_dims_by_wordcount,
    homology_dims_all,
)

# (x, w): w is as long as x.
EQUAL = [
    ("e1_00", ("c0_01", "c0_10")),
    ("e1_11", ("c0_10", "c0_01")),
    ("e2_00", ("c1_01", "c0_10")),
    ("e2_00", ("cb1_01", "c0_10")),
    ("e2_11", ("c1_10", "c0_01")),
    ("e2_11", ("cb1_10", "c0_01")),
]
# (x, w): w is shorter than x.
SHORTER = [
    ("e2_01", ("c0_10", "c1_01")),
    ("e2_10", ("c0_01", "cb1_01")),
]


def _ids(changes):
    return [f"{x}+{'*'.join(w)}" for x, w in changes]


def _invariants(dga, a):
    """Homology in degrees 0..7, H_0 slices up to 4 letters, and pages up to E^4."""
    window = LengthWindow(Fraction(a))
    return (homology_dims_all(dga, window, range(8)),
            h0_dims_by_wordcount(dga, window, 4),
            specseq.pages(specseq.dga_barcode(dga, window), 4))


@cache
def _original(a):
    return _invariants(build_hopf(2), a)


@pytest.mark.parametrize("x,w", EQUAL, ids=_ids(EQUAL))
@pytest.mark.parametrize("a", ["11/2", "13/2"])
def test_equal_length_change_keeps_the_segment_route(x, w, a):
    dga = build_hopf(2)
    changed = conjugate(dga, x, w)
    assert changed.diff != dga.diff
    assert destabilize(changed)._ends is not None
    assert _invariants(changed, a) == _original(a)


@pytest.mark.parametrize("x,w", SHORTER, ids=_ids(SHORTER))
def test_shorter_change_takes_the_one_block_route(x, w):
    dga = build_hopf(2)
    changed = conjugate(dga, x, w)
    assert changed.diff != dga.diff
    assert destabilize(changed)._ends is None
    assert _invariants(changed, "11/2") == _original("11/2")
