"""Homology from counted bases and live rows against the enumerating oracle.

On a DGA outside the segment route (the half-coefficient spec and most
random and signed specs), ``free_dga.homology_dims_all`` counts each
degree's basis along the length table, builds rows of D only from words
with a live letter, and ranks the blocks top-down with clearing; the
built-ins and the other specs take the segment route.
``dga_oracle.homology_dims_all`` lists every word of the window and ranks
each block whole.  Both must give the same dimensions, and the counted
sizes must equal the degrees of the enumerated words.
"""

import random
from collections import Counter
from fractions import Fraction

import dga_oracle
import pytest
from test_exact_core import _dead_and_live_spec, _half_coefficient_spec, _random_spec

from stringhom.free_dga import (
    LengthWindow,
    _degree_counts,
    _enumerate_words,
    _moves,
    build_hopf,
    build_unlink,
    dga_from_json_dict,
    forget_F,
    homology_dims_all,
)


def _signed_spec(seed: int):
    """Degrees from -2 to 3, lengths in halves, fractional D with unit terms.

    Cycles (D = 0) take any degree; every other letter sends a combination
    of words in the cycles, the empty word included, of one degree and no
    longer than itself, so D^2 = 0.  The negative degrees leave the basis
    counts and the walk uncapped.
    """
    rng = random.Random(seed)
    cycles = [(f"z{k}", rng.randint(-2, -1) if k == 0 else rng.randint(-2, 2),
               Fraction(rng.randint(2, 5), 2)) for k in range(rng.randint(2, 3))]
    words = {0: [((), Fraction(0))]}
    for z in cycles:
        words.setdefault(z[1], []).append(((z[0],), z[2]))
    for z in cycles:
        for y in cycles:
            words.setdefault(z[1] + y[1], []).append(((z[0], y[0]), z[2] + y[2]))
    gens = [{"id": gid, "degree": deg, "length": str(ell)} for gid, deg, ell in cycles]
    diff = {}
    for k in range(rng.randint(1, 3)):
        deg = rng.choice(sorted(words))
        image = rng.sample(words[deg], min(len(words[deg]), rng.randint(1, 3)))
        ell = max(max(e for _, e in image), Fraction(1)) + Fraction(rng.randint(0, 1), 2)
        gens.append({"id": f"x{k}", "degree": deg + 1, "length": str(ell)})
        diff[f"x{k}"] = [{"coeff": rng.choice(("1", "-1", "1/2", "-3/2", "2")), "word": list(w)}
                         for w, _ in image]
    return dga_from_json_dict({"generators": gens, "diff": diff})


CASES = {
    "hopf2-11/2": (lambda: build_hopf(2), Fraction(11, 2)),
    "hopf2-13/2": (lambda: build_hopf(2), Fraction(13, 2)),
    "hopf3-13/2": (lambda: build_hopf(3), Fraction(13, 2)),
    "unlink23-23/2": (lambda: build_unlink(2, 3), Fraction(23, 2)),
    "hopf2-del-13/2": (lambda: forget_F(build_hopf(2)), Fraction(13, 2)),
    "half-spec-27/4": (_half_coefficient_spec, Fraction(27, 4)),
    "dead-live-spec-9/2": (_dead_and_live_spec, Fraction(9, 2)),
    # Bounds k/2 + 1/4 are never a sum of halves.
    **{
        f"random-spec-{seed}": (lambda s=seed: _random_spec(s), Fraction(2 * (seed % 4) + 23, 4))
        for seed in range(10)
    },
    **{
        f"signed-spec-{seed}": (lambda s=seed: _signed_spec(s), Fraction(2 * (seed % 3) + 19, 4))
        for seed in range(8)
    },
}

DEGREES = {"all": None, "2": [2], "0..6": range(7), "-3..2": range(-3, 3)}


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    build, a = CASES[request.param]
    dga, window = build(), LengthWindow(a)
    words = _enumerate_words(dga, window)
    return dga, window, words, Counter(map(dga.word_degree, words))


def test_signed_specs_have_negative_degrees():
    for seed in range(8):
        assert not _signed_spec(seed).nonneg_graded


@pytest.mark.parametrize("degrees", sorted(DEGREES))
def test_dims_match_enumerating_oracle(case, degrees):
    dga, window, _, _ = case
    wanted = DEGREES[degrees]
    want = dga_oracle.homology_dims_all(dga, window, wanted)
    assert homology_dims_all(dga, window, wanted) == want


def test_counted_sizes_match_enumeration(case):
    dga, window, _, degrees = case
    moves = _moves(dga, window)
    counts = _degree_counts(moves)
    assert counts == dict(degrees)
    if dga.nonneg_graded:
        for cap in (0, 3):
            capped = Counter(map(dga.word_degree, _enumerate_words(dga, window, cap)))
            assert {p: c for p, c in counts.items() if p <= cap} == dict(capped)


def test_euler_characteristic(case):
    dga, window, _, degrees = case
    dims = homology_dims_all(dga, window)
    assert set(dims) == set(degrees)
    assert sum((-1) ** n * d for n, d in dims.items()) == sum(
        (-1) ** n * c for n, c in degrees.items()
    )


def test_chord_word_counts_match_oracle(case):
    dga, window, words, _ = case
    counts = dga_oracle.chord_word_counts_all(dga, window)
    assert list(counts.items()) == list(dga_oracle.chord_word_counts(dga, words).items())
