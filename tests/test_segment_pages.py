"""Weight-filtration pages by composable segments against the whole window complex.

When the destabilized DGA splits into segment blocks, ``specseq.dga_pages``
reads every page off the blocks' barcodes, convolved with gaps combining by
min; otherwise the whole window is one block, built as ``from_dga`` builds
it.  Here the segment route's pages E^1..E^(width+2) and E-oo must equal
those of ``from_dga`` on the built-ins, relabelled copies and seeded
planted specs with weights under which D never lowers weight; every page
must have the Euler characteristic of the counted window; and a spec with
a term shorter than its generator must take the one-block route.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_segments import _planted_spec, _planted_window, _relabelled

from stringhom import free_dga, specseq
from stringhom.free_dga import (
    DGA,
    Generator,
    LengthWindow,
    _degree_counts,
    _moves,
    build_hopf,
    build_unlink,
    destabilize,
    dga_from_json_dict,
    forget_F,
)


def _weighted(dga, seed: int):
    """``dga`` with seeded weights under which no term of D(g) is lighter than g.

    A letter with D = 0 weighs 1 to 3; any other weighs at most its lightest
    term.  The planted specs list every letter after the letters of its terms.
    """
    rng = random.Random(seed)
    weight: dict[str, int] = {}
    for g in dga.generators:
        terms = dga.diff[g.id].terms
        lightest = min((sum(weight[x] for x in w) for w in terms), default=3)
        weight[g.id] = rng.randint(1, lightest)
    gens = [Generator(g.id, g.degree, g.length, weight[g.id]) for g in dga.generators]
    return DGA(gens, dga.diff)


def _width(bars) -> int:
    levels = [p for p, _, _ in bars]
    return max(levels) - min(levels)


def _segment_pages(dga, window):
    """Pages 1 .. width + 2 and E-oo of the segment route, with the r list used."""
    window.ensure_valid(dga)
    assert destabilize(dga)._ends is not None
    rs = list(range(1, _width(specseq.dga_barcode(dga, window)) + 3))
    tables = specseq.dga_pages(dga, window, rs[-1])
    return rs, [t.dims for t in tables]


def _complex_pages(dga, window, rs):
    fc = specseq.from_dga(destabilize(dga), window)
    return [t.dims for t in specseq.complex_pages(fc, rs[-1])]


def _window_euler(dga, window) -> int:
    """Alternating sum of the window's word counts by degree."""
    return sum((-1) ** (n & 1) * c for n, c in _degree_counts(_moves(dga, window)).items())


def _page_euler(dims: dict[tuple[int, int], int]) -> int:
    """Alternating sum of a page's dims by total degree p + q."""
    return sum((-1) ** ((p + q) & 1) * d for (p, q), d in dims.items())


CROSS = {
    **{f"hopf2-{a}": (lambda: build_hopf(2), a) for a in ("9/2", "11/2")},
    "hopf3-11/2": (lambda: build_hopf(3), "11/2"),
    "unlink23-19/2": (lambda: build_unlink(2, 3), "19/2"),
    "hopf2_del-9/2": (lambda: forget_F(build_hopf(2)), "9/2"),
    **{f"hopf2-relabelled-{s}-11/2": (lambda s=s: _relabelled(build_hopf(2), s), "11/2")
       for s in (1, 7)},
    "hopf3-relabelled-3-11/2": (lambda: _relabelled(build_hopf(3), 3), "11/2"),
    "unlink23-relabelled-5-19/2": (lambda: _relabelled(build_unlink(2, 3), 5), "19/2"),
}

# Windows too large for ``from_dga``, where only the Euler identity is checked.
LARGE = {
    "hopf2-17/2": (lambda: build_hopf(2), "17/2"),
    "hopf3-15/2": (lambda: build_hopf(3), "15/2"),
    "unlink23-41/2": (lambda: build_unlink(2, 3), "41/2"),
}


@pytest.mark.parametrize("name", sorted(CROSS))
def test_builtin_pages_match_from_dga(name):
    build, a = CROSS[name]
    dga, window = build(), LengthWindow(Fraction(a))
    rs, got = _segment_pages(dga, window)
    assert got == _complex_pages(dga, window, rs)


@pytest.mark.parametrize("name", sorted(CROSS) + sorted(LARGE))
def test_builtin_page_euler_identity(name):
    build, a = {**CROSS, **LARGE}[name]
    dga, window = build(), LengthWindow(Fraction(a))
    _, pages = _segment_pages(dga, window)
    assert [_page_euler(dims) for dims in pages] == [_window_euler(dga, window)] * len(pages)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_planted_pages_match_from_dga(seed):
    dga, window = _weighted(_planted_spec(seed), seed), _planted_window(seed)
    rs, got = _segment_pages(dga, window)
    assert got == _complex_pages(dga, window, rs)
    assert [_page_euler(dims) for dims in got] == [_window_euler(dga, window)] * len(got)


def test_planted_pages_have_structure():
    # The property above is only as good as its inputs: over the seeds used
    # here some window must hold pairs of two different gaps, and a gap
    # above 1, so that min and max of two gaps differ.
    gaps = set()
    for seed in range(40):
        dga = _weighted(_planted_spec(seed), seed)
        bars = specseq.dga_barcode(dga, _planted_window(seed))
        gaps |= {gap for _, _, gap in bars if gap not in (0, math.inf)}
    assert len(gaps) >= 2 and max(gaps) >= 2


def test_segment_route_builds_no_window_complex(monkeypatch):
    def refuse(*args):
        raise AssertionError("from_dga called")

    monkeypatch.setattr(specseq, "from_dga", refuse)
    tables = specseq.dga_pages(build_hopf(2), LengthWindow(Fraction(13, 2)), 4)
    assert len(tables) == 5 and tables[-1].r == -1
    assert all(type(d) is int for t in tables for d in t.dims.values())


def test_shorter_term_spec_takes_one_block_route(monkeypatch):
    # D(g) = x·y - z with z shorter than g: the DGA does not split.
    gens = [{"id": x, "degree": 0, "length": "1", "weight": 1} for x in "xyz"]
    gens += [{"id": "g", "degree": 1, "length": "2", "weight": 1},
             {"id": "h", "degree": 1, "length": "2", "weight": 2}]
    diff = {"g": [{"coeff": "1", "word": ["x", "y"]}, {"coeff": "-1", "word": ["z"]}],
            "h": [{"coeff": "1", "word": ["z", "x"]}]}
    dga = dga_from_json_dict({"generators": gens, "diff": diff})
    window = LengthWindow(Fraction(27, 4))
    assert destabilize(dga)._ends is None

    def refuse(*args):
        raise AssertionError("segment route taken")

    monkeypatch.setattr(free_dga, "_segments", refuse)
    tables = specseq.dga_pages(dga, window, 4)
    fc = specseq.from_dga(dga, window)
    want = specseq.complex_pages(fc, 4)
    assert [(t.r, t.dims) for t in tables] == [(t.r, t.dims) for t in want]
