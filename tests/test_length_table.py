"""``DGA.validate`` compares term lengths on the integer length table.

Each generator's length p + q*sqrt(n) is held as integers (P, Q) over one
common denominator, and a term w of D(g) must satisfy len(w) <= len(g).
These tests check that decision against the independent ``Surd`` route,
``dga_oracle.word_length``, on random DGAs and on the edge cases: equal lengths,
irrational margins, mixed radicands and unknown letters.
"""

import json
from fractions import Fraction

import pytest
from dga_oracle import word_length
from hypothesis import given, settings
from hypothesis import strategies as st

from stringhom import cli
from stringhom.free_dga import (
    DGA,
    AlgebraElement,
    Generator,
    InvalidDGA,
    LengthWindow,
    UnknownGenerator,
    _scaled_lengths,
    dga_to_json_dict,
)
from stringhom.lengths import Surd

RADICANDS = [2, 3, 5, 13]
# x + y*sqrt(n) with x^2 - n*y^2 = 1, so its powers' conjugates are tiny.
UNITS = {2: (3, 2), 3: (2, 1), 5: (9, 4), 13: (649, 180)}
HALVES = st.sampled_from([Fraction(k, 2) for k in range(-2, 7)])
THIRDS = st.sampled_from([Fraction(k, 3) for k in range(-3, 4)])


def _tiny(n: int) -> Surd:
    """A positive p + q*sqrt(n) below 1e-12, which floats cannot tell from 0."""
    unit = power = Surd(*UNITS[n], n)
    while power.p < 10**12:
        power = power * unit
    return Surd(power.p, -power.q, n)


def _positive(value: Surd) -> Surd:
    return value if value.sign() > 0 else -value + Fraction(1, 2)


@st.composite
def length_specs(draw):
    """Generator rows and differential terms of a DGA with D^2 = 0 by degree.

    Degree-0 letters x* have D = 0; each degree-1 letter y* sends a sum of
    words in the x letters, so degrees always match and D(D(y)) = 0.  A y's
    length is that of one of its terms plus a small rational or irrational
    offset (often 0, or below 1e-12), so equal lengths and margins too
    narrow for floats both come up.
    """
    n = draw(st.sampled_from(RADICANDS))
    xs = [(f"x{i}", _positive(Surd(draw(HALVES), draw(THIRDS), n)))
          for i in range(draw(st.integers(1, 4)))]
    ids = [x for x, _ in xs]
    rows = [(x, 0, length) for x, length in xs]
    diff = {}
    offsets = [Surd(0), Surd(Fraction(1, 2)), Surd(Fraction(-1, 2)), Surd(0, Fraction(1, 4), n),
               Surd(0, Fraction(-1, 4), n), _tiny(n), -_tiny(n)]
    by_id = dict(xs)
    for j in range(draw(st.integers(1, 3))):
        words = draw(st.lists(st.lists(st.sampled_from(ids), max_size=3).map(tuple),
                              min_size=1, max_size=3, unique=True))
        coeffs = draw(st.lists(st.integers(-3, 3).filter(bool), min_size=len(words),
                               max_size=len(words)))
        base = sum((by_id[x] for x in words[0]), Surd(0))
        rows.append((f"y{j}", 1, _positive(base + draw(st.sampled_from(offsets)))))
        diff[f"y{j}"] = dict(zip(words, coeffs))
    return rows, diff


def _dga(rows, diff, validate=True):
    """The DGA of ``rows`` and ``diff``; ``validate=False`` patches ``DGA.validate`` out."""
    gens = [Generator(gid, degree, length, 1) for gid, degree, length in rows]
    with pytest.MonkeyPatch.context() as m:
        if not validate:
            m.setattr(DGA, "validate", lambda self: None)
        return DGA(gens, {g: AlgebraElement(terms) for g, terms in diff.items()})


@given(length_specs())
@settings(max_examples=300, deadline=None)
def test_validate_rejects_exactly_the_longer_terms(spec):
    rows, diff = spec
    loose = _dga(rows, diff, validate=False)
    longer = any(word_length(loose, w) > g.length
                 for g in loose.generators for w in loose.diff[g.id].terms)
    if longer:
        with pytest.raises(InvalidDGA, match="longer than the generator"):
            _dga(rows, diff)
    else:
        _dga(rows, diff)


@given(length_specs(), st.fractions(min_value=Fraction(1, 7), max_value=9, max_denominator=12))
@settings(max_examples=100, deadline=None)
def test_integer_table_holds_the_surd_lengths(spec, bound):
    rows, diff = spec
    dga = _dga(rows, diff, validate=False)
    denom, n, table = dga._length_table
    for g in dga.generators:
        p, q = table[g.id]
        assert Surd(Fraction(p, denom), Fraction(q, denom), n) == g.length
    scaled, (pa, qa), n, denom = _scaled_lengths(dga, LengthWindow(bound))
    assert Surd(Fraction(pa, denom), Fraction(qa, denom), n) == Surd(bound)
    for (p, q), g in zip(scaled, dga.generators):
        assert Surd(Fraction(p, denom), Fraction(q, denom), n) == g.length


def test_equal_length_term_is_accepted():
    rows = [("x", 0, Surd(1)), ("y", 0, Surd.sqrt(2)), ("g", 1, Surd(1, 1, 2))]
    _dga(rows, {"g": {("x", "y"): 1, ("y", "x"): -1}})


@pytest.mark.parametrize("n", RADICANDS)
def test_term_longer_by_an_irrational_margin_is_rejected(n):
    # g is shorter than its term x*x by under 1e-12: equal as floats.
    x = ("x", 0, Surd(1, 1, n))
    with pytest.raises(InvalidDGA, match="longer than the generator"):
        _dga([x, ("g", 1, Surd(2, 2, n) - _tiny(n))], {"g": {("x", "x"): 1}})
    _dga([x, ("g", 1, Surd(2, 2, n) + _tiny(n))], {"g": {("x", "x"): 1}})


def test_mixed_radicands_are_reported_before_any_other_check():
    rows = [("x", 0, Surd.sqrt(2)), ("y", 0, Surd.sqrt(3)), ("g", 1, Surd(Fraction(1, 10)))]
    # The term is longer than g, of the wrong degree and names an unknown letter.
    with pytest.raises(InvalidDGA, match="mix the radicands"):
        _dga(rows, {"g": {("x", "y", "zz", "g"): 1}})


def test_unknown_letter_raises_unknown_generator_and_exits_3(tmp_path, capsys):
    rows = [("x", 0, Surd.sqrt(2)), ("g", 1, Surd(1))]
    # The term would also be too long; the unknown letter is reported first.
    diff = {"g": {("x", "zz"): 1}}
    with pytest.raises(UnknownGenerator, match="zz"):
        _dga(rows, diff)
    spec = tmp_path / "letter.json"
    data = dga_to_json_dict(_dga(rows, {}, validate=False))
    data["diff"] = {"g": [{"coeff": "1", "word": ["x", "zz"]}]}
    spec.write_text(json.dumps(data))
    code = cli.main(["dga-homology", "--spec", str(spec), "--degree", "0", "--a", "5/2",
                     "--outdir", str(tmp_path)])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: invalid DGA: ")
