"""The one-block route: a window that does not split by composable segments.

When some term of some D(g) of the destabilized DGA is shorter than g or
empty (``DGA._ends`` is None), ``homology_dims_all``,
``h0_dims_by_wordcount`` and ``specseq.dga_pages`` measure the whole window
as one block.  The inputs here are the planted specs of ``test_segments``
plus one letter q with D(q) = w - w', where w and w' are words of one degree
in letters with D = 0, w as long as q and w' shorter or empty.  Homology and
the H_0 slices must equal the enumerating oracle's and the blockwise
reference route's, the pages those of the window's whole complex, and the
window is validated on the DGA before destabilizing, even when no degree
is asked for.
"""

import math
import random
from fractions import Fraction

import dga_oracle
import pytest
from blockwise_oracle import blockwise_dims, blockwise_h0
from hypothesis import given, settings
from hypothesis import strategies as st
from test_segment_pages import _weighted, _width
from test_segments import _planted_spec, _planted_window

from stringhom import specseq
from stringhom.free_dga import (
    AlgebraElement,
    LengthWindow,
    WindowCollision,
    _degree_counts,
    _moves,
    destabilize,
    dga_from_json_dict,
    dga_to_json_dict,
    differential,
    h0_dims_by_wordcount,
    homology_dims_all,
)


def _one_block_spec(seed: int, unit: bool = True):
    """``_planted_spec(seed)`` plus a letter q with D(q) = w - w', so that it does not split.

    w and w' are words of at most three letters with D = 0, both of degree
    deg q - 1; w is as long as q, at most 3, and w' is shorter, or empty
    when ``unit`` allows.  If no such pair exists, a letter p of degree 0
    and length 1/2 with D = 0 is added first.
    """
    data = dga_to_json_dict(_planted_spec(seed))
    rng = random.Random(f"one-block:{seed}")
    for extra in ([], [{"id": "p", "degree": 0, "length": "1/2", "weight": 1}]):
        gens = data["generators"] + extra
        dead = [(g["id"], g["degree"], Fraction(g["length"])) for g in gens
                if g["id"] not in data["diff"]]
        words = {((), 0, Fraction(0))}
        for _ in range(3):
            words |= {(w + (x,), d + dx, ell + lx) for w, d, ell in words for x, dx, lx in dead}
        pairs = sorted((w, v, d, ell) for w, d, ell in words for v, dv, lv in words
                       if d == dv and lv < ell <= 3 and (unit or v))
        if pairs:
            break
    w, v, d, ell = rng.choice(pairs)
    data["generators"] = gens + [{"id": "q", "degree": d + 1, "length": str(ell), "weight": 1}]
    data["diff"]["q"] = [{"coeff": "1", "word": list(w)}, {"coeff": "-1", "word": list(v)}]
    return dga_from_json_dict(data)


SEEDS = range(12)


@pytest.mark.parametrize("seed", SEEDS)
def test_one_block_matches_oracle(seed):
    dga, window = _one_block_spec(seed), _planted_window(seed)
    assert homology_dims_all(dga, window) == dga_oracle.homology_dims_all(dga, window)
    if dga.nonneg_graded:
        bases = [dga_oracle.words_of_degree(dga, window, p) for p in (0, 1)]
        want = dga_oracle.h0_dims_by_wordcount(dga, *bases, 4)
        assert h0_dims_by_wordcount(dga, window, 4) == want


@given(st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=30, deadline=None)
def test_one_block_matches_blockwise(seed, unit):
    dga, window = _one_block_spec(seed, unit), _planted_window(seed)
    small, wanted = destabilize(dga), sorted(_degree_counts(_moves(dga, window)))
    moves = _moves(small, window)
    assert homology_dims_all(dga, window) == blockwise_dims(small, moves, wanted)
    if dga.nonneg_graded:
        assert h0_dims_by_wordcount(dga, window, 4) == blockwise_h0(small, moves, 4)
    # One degree at a time, as ``--degree`` asks, the cap cuts the block.
    top = wanted[-1]
    assert homology_dims_all(dga, window, [top - 1]) == blockwise_dims(small, moves, [top - 1])


@pytest.mark.parametrize("seed", SEEDS)
def test_one_block_pages_match_complex_pages(seed):
    # The empty word weighs 0, so D(q) = w - 1 would lower weight: w' is not empty.
    dga, window = _weighted(_one_block_spec(seed, unit=False), seed), _planted_window(seed)
    rmax = _width(specseq.dga_barcode(dga, window)) + 2
    got = specseq.dga_pages(dga, window, rmax)
    want = specseq.complex_pages(specseq.from_dga(destabilize(dga), window), rmax)
    assert [(t.r, t.dims) for t in got] == [(t.r, t.dims) for t in want]


def test_one_block_specs_have_structure():
    # The tests above are only as good as their inputs: every spec must
    # reach the one-block route with a letter of nonzero D inside the window,
    # and over the seeds some must have a degree -1 letter, an empty w', an
    # H_0 to slice, and pages of more than one gap.
    seen = set()
    for seed in SEEDS:
        window = _planted_window(seed)
        for unit in (True, False):
            small = destabilize(_one_block_spec(seed, unit))
            assert small._ends is None
            letters = {g for g, _, _ in _moves(small, window)[0]}
            assert any(not differential(small, AlgebraElement.gen(g)).is_zero() for g in letters)
            seen.add(("negative", not small.nonneg_graded))
            seen.add(("unit", () in small.diff["q"].terms))
        bars = specseq.dga_barcode(_weighted(_one_block_spec(seed, False), seed), window)
        seen.add(("gaps", len({gap for _, _, gap in bars if gap not in (0, math.inf)}) > 1))
    assert {("negative", True), ("negative", False), ("unit", True), ("gaps", True)} <= seen


def test_window_is_validated_before_destabilizing():
    # D(d) = e splits off as a stabilization pair, and only d and e are 7/4
    # long; D(g) = x·x - x does not split.  The window 7/4 collides on the
    # full DGA, whatever is asked.
    gens = [{"id": "x", "degree": 0, "length": "1"}, {"id": "g", "degree": 1, "length": "2"},
            {"id": "d", "degree": 1, "length": "7/4"}, {"id": "e", "degree": 0, "length": "7/4"}]
    diff = {"g": [{"coeff": "1", "word": ["x", "x"]}, {"coeff": "-1", "word": ["x"]}],
            "d": [{"coeff": "1", "word": ["e"]}]}
    dga = dga_from_json_dict({"generators": gens, "diff": diff})
    assert {g.id for g in destabilize(dga).generators} == {"x", "g"}
    assert destabilize(dga)._ends is None
    window = LengthWindow(Fraction(7, 4))
    for run in (lambda: homology_dims_all(dga, window, []),
                lambda: homology_dims_all(dga, window, [0]),
                lambda: homology_dims_all(dga, window),
                lambda: h0_dims_by_wordcount(dga, window, 2),
                lambda: specseq.dga_pages(dga, window, 2)):
        with pytest.raises(WindowCollision):
            run()
