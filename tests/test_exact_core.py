"""The integer-coded core of ``free_dga`` against the oracles in ``dga_oracle``.

Window validation, word enumeration, differentials and degree-0 slices
run on integer-scaled lengths, a per-letter differential table and ``int``
elimination; each must agree exactly with the Surd/Fraction route.
"""

from fractions import Fraction

import dga_oracle
import pytest

from stringhom.free_dga import (
    DGA,
    AlgebraElement,
    Generator,
    LengthWindow,
    _enumerate_words,
    build_hopf,
    build_unlink,
    differential,
    dga_from_json_dict,
    h0_dims_by_wordcount,
    word_basis,
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


CASES = {
    # Only the empty word, but bound + 1 = 2 is realizable and must be listed.
    "unlink23-1": (lambda: build_unlink(2, 3), Fraction(1)),
    "hopf2-13/2": (lambda: build_hopf(2), Fraction(13, 2)),
    "hopf2-17/2": (lambda: build_hopf(2), Fraction(17, 2)),
    "unlink23-41/2": (lambda: build_unlink(2, 3), Fraction(41, 2)),
    "unlink23-49/2": (lambda: build_unlink(2, 3), Fraction(49, 2)),
    "half-spec-27/4": (_half_coefficient_spec, Fraction(27, 4)),
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
        assert _enumerate_words(dga, window, degree) == oracle_bases[degree]


def test_h0_slices_match_oracle(case):
    dga, window, (basis0, basis1) = case
    want = dga_oracle.h0_dims_by_wordcount(dga, basis0, basis1, 4)
    assert h0_dims_by_wordcount(dga, window, 4) == want


def test_differential_matches_leibniz_oracle(case):
    dga, _, (_, basis1) = case
    for w in basis1[::37]:
        want = dga_oracle.leibniz_differential(dga, w)
        assert differential(dga, AlgebraElement.from_word(w)) == want


def test_equal_lengths_order_by_letter_count():
    """Six letters of length 1/10 and 1/10 + 2/10 + 3/10 tie at 6/10 exactly."""
    gens = [Generator(f"g{k}", 0, Surd(Fraction(n, 10))) for k, n in enumerate((1, 2, 3, 7))]
    dga = DGA(gens, {})
    words = word_basis(dga, 0, LengthWindow(Fraction(21, 20)))
    assert words.index(("g0", "g1", "g2")) < words.index(("g0",) * 6)
    assert words == sorted(words, key=dga.word_key)
