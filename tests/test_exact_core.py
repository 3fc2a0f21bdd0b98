"""The integer-coded core of ``free_dga`` against the oracles in ``dga_oracle``.

Window validation, word enumeration, differentials and degree-0 slices
run on integer-scaled lengths, a per-letter differential table and ``int``
elimination; each must agree exactly with the Surd/Fraction route.
"""

import random
from fractions import Fraction
from functools import partial

import dga_oracle
import pytest

from stringhom.free_dga import (
    DGA,
    AlgebraElement,
    Generator,
    LengthWindow,
    _enumerate_words,
    _row,
    _word_differential,
    build_hopf,
    build_unlink,
    differential,
    dga_from_json_dict,
    forget_F,
    h0_dims_by_wordcount,
)
from stringhom.lengths import Surd


def _half_coefficient_spec() -> DGA:
    """Degrees 0 and 1, with coefficients 1/2, 2 and 3 in D."""
    return dga_from_json_dict({
        "generators": [
            {"id": "x", "degree": 0, "length": "1"},
            {"id": "y", "degree": 0, "length": "3/2"},
            {"id": "a", "degree": 1, "length": "5/2"},
            {"id": "b", "degree": 1, "length": "2"},
        ],
        "diff": {
            "a": [{"coeff": "1/2", "word": ["x", "y"]}, {"coeff": "-2", "word": ["y", "x"]}],
            "b": [{"coeff": "3", "word": ["x", "x"]}, {"coeff": "-1/2", "word": ["y"]}],
        },
    })


def _dead_and_live_spec() -> DGA:
    """A degree-1 letter with D = 0 next to one with D = xy - yx."""
    return dga_from_json_dict({
        "generators": [
            {"id": "x", "degree": 0, "length": "1"},
            {"id": "y", "degree": 0, "length": "1"},
            {"id": "a", "degree": 1, "length": "2"},
            {"id": "b", "degree": 1, "length": "2"},
        ],
        "diff": {"b": [{"coeff": "1", "word": ["x", "y"]}, {"coeff": "-1", "word": ["y", "x"]}]},
    })


def _random_spec(seed: int) -> DGA:
    """Degrees 0, 1 and 2 with lengths in halves; D only on degree 1, some letters dead.

    D(g) is a random combination of degree-0 words no longer than g, the
    unit included, so D^2 = 0 holds trivially.
    """
    rng = random.Random(seed)

    def halves(lo: int, hi: int) -> Fraction:
        return Fraction(rng.randint(lo, hi), 2)

    zero = [(f"x{k}", halves(2, 4)) for k in range(rng.randint(1, 3))]
    gens = [{"id": gid, "degree": 0, "length": str(ell)} for gid, ell in zero]
    diff = {}
    for k in range(rng.randint(1, 3)):
        gid, ell = f"g{k}", halves(2, 6)
        gens.append({"id": gid, "degree": 1, "length": str(ell)})
        terms = []
        for _ in range(rng.choice((0, 1, 2, 3))):
            word, room = [], ell
            for _ in range(rng.choice((0, 1, 1, 2, 2, 3))):
                x, x_ell = rng.choice(zero)
                if x_ell > room:
                    break
                word.append(x)
                room -= x_ell
            coeff = rng.choice(("1", "-1", "2", "-3", "1/2"))
            terms.append({"coeff": coeff, "word": word})
        if terms:
            diff[gid] = terms
    gens.append({"id": "h", "degree": 2, "length": str(halves(2, 4))})
    return dga_from_json_dict({"generators": gens, "diff": diff})


CASES = {
    # Only the empty word, but bound + 1 = 2 is realizable and must be listed.
    "unlink23-1": (lambda: build_unlink(2, 3), Fraction(1)),
    # The live degree-1 letters all have length 2: u·g never fits.
    "hopf2-3/2": (lambda: build_hopf(2), Fraction(3, 2)),
    "hopf2-13/2": (lambda: build_hopf(2), Fraction(13, 2)),
    "hopf2-17/2": (lambda: build_hopf(2), Fraction(17, 2)),
    "hopf2-del-13/2": (lambda: forget_F(build_hopf(2)), Fraction(13, 2)),
    # Only the unit has degree 0.
    "hopf3-13/2": (lambda: build_hopf(3), Fraction(13, 2)),
    "unlink23-41/2": (lambda: build_unlink(2, 3), Fraction(41, 2)),
    "unlink23-49/2": (lambda: build_unlink(2, 3), Fraction(49, 2)),
    "half-spec-27/4": (_half_coefficient_spec, Fraction(27, 4)),
    "dead-live-spec-9/2": (_dead_and_live_spec, Fraction(9, 2)),
    # Bounds k/2 + 1/4 are never a sum of halves.
    **{
        f"random-spec-{seed}": (lambda s=seed: _random_spec(s), Fraction(2 * (seed % 4) + 23, 4))
        for seed in range(10)
    },
}


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    build, a = CASES[request.param]
    dga, window = build(), LengthWindow(a)
    oracle_bases = [dga_oracle.words_of_degree(dga, window, p) for p in (0, 1)]
    return dga, window, oracle_bases


def test_realizable_sums_match_oracle(case):
    dga, window, _ = case
    assert window.realizable_sums(dga) == dga_oracle.realizable_sums(window, dga)


def test_degree_bases_match_oracle(case):
    dga, window, oracle_bases = case
    for degree in (0, 1):
        words = _enumerate_words(dga, window, degree)
        assert [w for w in words if dga.word_degree(w) == degree] == oracle_bases[degree]


def test_h0_slices_match_oracle(case):
    dga, window, (basis0, basis1) = case
    want = dga_oracle.h0_dims_by_wordcount(dga, basis0, basis1, 4)
    assert h0_dims_by_wordcount(dga, window, 4) == want


def test_dead_letter_skip_keeps_every_row(case):
    dga, _, (basis0, basis1) = case
    index = {w: i for i, w in enumerate(basis0)}
    unskipped = []
    for w in basis1:
        img: dict = {}
        _word_differential(dga, w, img, 1)
        unskipped.append({index[ww]: c for ww, c in img.items()})
    assert [_row(dga, w, index) for w in basis1] == unskipped


def test_row_needs_every_target_numbered():
    # D(b) = xy - yx: with yx left out of the index, the row cannot be built.
    dga = _dead_and_live_spec()
    index = {("x", "y"): 0}
    with pytest.raises(KeyError):
        _row(dga, ("b",), index)
    assert index == {("x", "y"): 0}


def test_differential_matches_leibniz_oracle(case):
    dga, _, (_, basis1) = case
    for w in basis1[::37]:
        want = dga_oracle.leibniz_differential(dga, w)
        assert differential(dga, AlgebraElement.from_word(w)) == want


def test_equal_lengths_order_by_letter_count():
    """Six letters of length 1/10 and 1/10 + 2/10 + 3/10 tie at 6/10 exactly."""
    gens = [Generator(f"g{k}", 0, Surd(Fraction(n, 10))) for k, n in enumerate((1, 2, 3, 7))]
    dga = DGA(gens, {})
    words = dga_oracle.word_basis(dga, 0, LengthWindow(Fraction(21, 20)))
    assert words.index(("g0", "g1", "g2")) < words.index(("g0",) * 6)
    assert words == sorted(words, key=partial(dga_oracle.word_key, dga))
