from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stringhom.lengths import MAX_RADICAND, IncompatibleRadicals, Surd, parse_length


def test_sqrt_of_rational():
    s = Surd.sqrt(13)
    assert float(s) == pytest.approx(13**0.5)
    assert s * s == Surd(13)


def test_square_extraction():
    assert Surd(0, 1, 12) == Surd(0, 2, 3)
    assert Surd(0, 1, 9) == Surd(3)
    assert Surd(0, 5, 0) == Surd(0)


def test_radicand_above_the_bound_is_refused():
    # 10^12 = 2^12 5^12 factors at once; one more is refused before the
    # trial division, which would take 10^9 steps for 10^18 + 3.
    assert Surd(0, 1, MAX_RADICAND) == Surd(10**6)
    for text in (f"sqrt({MAX_RADICAND + 1})", "sqrt(1000000000000000003)"):
        with pytest.raises(ValueError, match="above"):
            parse_length(text)
    with pytest.raises(ValueError, match="above"):
        Surd.sqrt(Fraction(10**18 + 3, 7))
    # A square denominator leaves the radicand alone: sqrt(z^2 + 4) for
    # z = 500001/7 has radicand 500001^2 + 196, not 49 times that.
    z = Fraction(500001, 7)
    root = Surd.sqrt(z * z + 4)
    assert (root.p, root.q, root.n) == (0, Fraction(1, 7), 500001**2 + 196)
    assert root * root == Surd(z * z + 4)
    assert Surd.sqrt(Fraction(13, 4)) == Surd(0, Fraction(1, 2), 13)
    assert Surd.sqrt(Fraction(8, 3)) == Surd(0, Fraction(2, 3), 6)


def test_ring_ops_same_radical():
    x = Surd(1, 2, 5)
    y = Surd(3, -1, 5)
    assert x + y == Surd(4, 1, 5)
    assert x * y == Surd(1 * 3 + 2 * (-1) * 5, 1 * (-1) + 2 * 3, 5)


def test_incompatible_radicals():
    with pytest.raises(IncompatibleRadicals):
        Surd(0, 1, 2) + Surd(0, 1, 3)


@given(
    st.fractions(min_value=-20, max_value=20, max_denominator=8),
    st.fractions(min_value=-20, max_value=20, max_denominator=8),
    st.sampled_from([2, 3, 5, 13]),
)
def test_exact_comparison_matches_float(p, q, n):
    s = Surd(p, q, n)
    t = Surd(Fraction(1, 3), Fraction(-1, 2), n)
    approx_s, approx_t = float(s), float(t)
    if abs(approx_s - approx_t) > 1e-9:
        assert (s < t) == (approx_s < approx_t)
    assert (s == t) == (s.p == t.p and s.q == t.q and s.n == t.n)


def test_rational_vs_surd_comparison():
    assert Surd.sqrt(13) > 3
    assert Surd.sqrt(13) < 4
    assert Surd(4) > Surd.sqrt(13)
    assert Surd(-1, 1, 2) > 0  # sqrt(2) - 1 > 0
    assert Surd(1, -1, 2) < 1


@pytest.mark.parametrize(
    "text,value",
    [
        ("2", Surd(2)),
        ("1/2", Surd(Fraction(1, 2))),
        ("sqrt(13)", Surd(0, 1, 13)),
        ("3/2*sqrt(5)", Surd(0, Fraction(3, 2), 5)),
        ("1+2*sqrt(3)", Surd(1, 2, 3)),
        ("1/2-sqrt(2)", Surd(Fraction(1, 2), -1, 2)),
        (2, Surd(2)),
        (-3, Surd(-3)),
    ],
)
def test_parse_roundtrip(text, value):
    assert parse_length(text) == value
    assert parse_length(str(value)) == value


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_length("sqrt(-1)")
    with pytest.raises(ValueError):
        parse_length("two")
