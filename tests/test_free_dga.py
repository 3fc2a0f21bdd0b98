import random
from fractions import Fraction
from functools import partial

import pytest
from dga_oracle import chord_word_counts_all, scale, word_basis, word_key, word_length
from hypothesis import given, settings
from hypothesis import strategies as st

from stringhom import cord
from stringhom.free_dga import (
    AlgebraElement,
    DGA,
    GradingViolation,
    InvalidDGA,
    LengthWindow,
    ParameterOutOfRange,
    UnknownGenerator,
    WindowCollision,
    build_hopf,
    build_unlink,
    d_squared_zero_check,
    dga_from_json_dict,
    dga_to_json_dict,
    differential,
    forget_F,
    h0_dims_by_wordcount,
    homology_dim,
    homology_dims_all,
    _diff_rows,
    _moves,
)
from stringhom.exactlin import RowReducer
from stringhom.lengths import Surd


def W(x):
    return LengthWindow(Fraction(x))


@pytest.fixture(scope="module")
def hopf2():
    return build_hopf(2)


@pytest.fixture(scope="module")
def hopf3():
    return build_hopf(3)


class TestBuilders:
    def test_hopf_generator_count(self, hopf2):
        assert len(hopf2.generators) == 24

    def test_hopf_degrees_d2(self, hopf2):
        assert hopf2.gen("c0_01").degree == 0
        assert hopf2.gen("c1_00").degree == 1
        assert hopf2.gen("c2_01").degree == 2
        assert hopf2.gen("e1_00").degree == 0
        assert hopf2.gen("e2_01").degree == 1
        assert hopf2.gen("d1_00").degree == 1
        assert hopf2.gen("d2_11").degree == 2

    def test_hopf_degrees_d3(self, hopf3):
        assert hopf3.gen("c0_01").degree == 1
        assert hopf3.gen("e1_00").degree == 2
        assert hopf3.gen("c2_01").degree == 5

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_hopf_lengths(self, d):
        dga = build_hopf(d)
        assert dga.gen("c2_00").length == Surd(2)
        assert dga.gen("c2_01").length == Surd(3)
        assert dga.gen("c0_01").length == Surd(1)
        assert dga.gen("c1_00").length == Surd(2)

    def test_hopf_weights(self, hopf2):
        assert hopf2.gen("c2_10").weight == 1
        assert hopf2.gen("d1_00").weight == 2
        assert hopf2.gen("e2_01").weight == 2

    def test_unlink_counts_and_lengths(self):
        dga = build_unlink(2, 3)
        assert len(dga.generators) == 12
        assert dga.gen("c0_01").length == Surd(3)
        assert dga.gen("cb1_01").length == Surd.sqrt(13)
        assert dga.gen("c2_01").length == Surd.sqrt(13)
        assert dga.gen("c1_00").length == Surd(2)
        assert dga.gen("c2_11").length == Surd(2)

    def test_unlink_degrees_d3(self):
        dga = build_unlink(3, 3)
        assert all(dga.gen(f"c2_{i}{j}").degree == 5 for i in (0, 1) for j in (0, 1))

    def test_unlink_rejects_small_spacing(self):
        with pytest.raises(ParameterOutOfRange):
            build_unlink(2, 2)

    def test_d_below_two_rejected(self):
        with pytest.raises(ParameterOutOfRange):
            build_hopf(1)


class TestDifferential:
    def test_stabilization_pair(self, hopf2):
        assert differential(hopf2, AlgebraElement.gen("d1_00")) == AlgebraElement.gen(
            "e1_00"
        )

    def test_linking_term_d2(self, hopf2):
        got = differential(hopf2, AlgebraElement.gen("c1_00"))
        want = AlgebraElement.gen("e1_00") + AlgebraElement.from_word(
            ("c0_01", "c0_10")
        )
        assert got == want

    def test_linking_term_d3(self, hopf3):
        got = differential(hopf3, AlgebraElement.gen("c1_00"))
        want = AlgebraElement.gen("e1_00", -1) + AlgebraElement.from_word(
            ("c0_01", "c0_10"), -1
        )
        assert got == want

    def test_degree_zero_product_closed(self, hopf2):
        x = AlgebraElement.from_word(("c0_01", "c0_10"))
        assert differential(hopf2, x).is_zero()

    def test_unknown_generator(self, hopf2):
        with pytest.raises(UnknownGenerator):
            differential(hopf2, AlgebraElement.gen("nope"))

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_d_squared_zero_hopf(self, d):
        ok, witness = d_squared_zero_check(build_hopf(d))
        assert ok and witness is None

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_d_squared_zero_unlink(self, d):
        ok, _ = d_squared_zero_check(build_unlink(d, 3))
        assert ok

    def test_corrupted_diff_detected(self, hopf2, monkeypatch):
        # Redirect the d1_00 differential to c1_00; then D(D(d1_00)) != 0.
        diff = dict(hopf2.diff)
        diff["d1_00"] = AlgebraElement.gen("c1_00")
        with monkeypatch.context() as m:
            m.setattr(DGA, "validate", lambda self: None)
            broken = DGA(hopf2.generators, diff)
        ok, witness = d_squared_zero_check(broken)
        assert not ok
        assert witness[0] == "d1_00"
        assert not witness[1].is_zero()
        with pytest.raises(InvalidDGA):
            DGA(hopf2.generators, diff)


class TestMul:
    def test_unit(self, hopf2):
        x = AlgebraElement.gen("c0_01")
        assert AlgebraElement.from_word(()) * x == x
        assert x * AlgebraElement.from_word(()) == x

    def test_concatenation(self):
        got = AlgebraElement.gen("c0_01") * AlgebraElement.gen("c0_10")
        assert got == AlgebraElement.from_word(("c0_01", "c0_10"))

    def test_bilinearity(self):
        a0 = AlgebraElement.gen("c0_01")
        a1 = AlgebraElement.gen("c0_10")
        got = (a0 + a1) * a0
        want = AlgebraElement.from_word(("c0_01", "c0_01")) + AlgebraElement.from_word(
            ("c0_10", "c0_01")
        )
        assert got == want


class TestWordBasis:
    def test_hopf2_degree_zero_small_window(self, hopf2):
        words = word_basis(hopf2, 0, W("5/2"))
        assert len(words) == 9
        as_set = {w for w in words}
        assert () in as_set
        assert ("c0_01",) in as_set and ("c0_10",) in as_set
        assert ("e1_00",) in as_set and ("e1_11",) in as_set
        assert {("c0_01", "c0_01"), ("c0_01", "c0_10"),
                ("c0_10", "c0_01"), ("c0_10", "c0_10")} <= as_set

    def test_negative_degree_empty(self, hopf2):
        assert word_basis(hopf2, -1, W("5/2")) == []

    def test_unit_only_when_generators_too_long(self):
        dga = build_unlink(2, 3)
        assert word_basis(dga, 0, W("3/2")) == [()]

    def test_deterministic_order(self, hopf2):
        words = word_basis(hopf2, 0, W("7/2"))
        assert words == sorted(words, key=partial(word_key, hopf2))


class TestWindows:
    def test_collision_rejected(self, hopf2):
        with pytest.raises(WindowCollision):
            word_basis(hopf2, 0, W(3))

    def test_surd_collision_rejected(self):
        dga = build_unlink(2, 3)
        bad = LengthWindow(Surd.sqrt(13))
        with pytest.raises(WindowCollision):
            bad.ensure_valid(dga)

    def test_exact_collision_rejected(self, hopf2):
        with pytest.raises(WindowCollision):
            LengthWindow(Fraction(6)).ensure_valid(hopf2)

    def test_bound_just_below_a_sum_accepted(self, hopf2):
        LengthWindow(Fraction(6) - Fraction(1, 10**12)).ensure_valid(hopf2)
        LengthWindow(Fraction(6) + Fraction(1, 10**12)).ensure_valid(hopf2)

    def test_irrational_bound_near_a_sum_accepted(self):
        dga = build_unlink(2, 3)
        LengthWindow(Surd(Fraction(1, 10**12), 1, 13)).ensure_valid(dga)

    def test_nonpositive_rejected(self):
        with pytest.raises(WindowCollision):
            LengthWindow(Fraction(0))

    def test_spectrum_cache_tells_radicands_apart(self):
        # On rational lengths, 1 + sqrt(2) and 1 + sqrt(5) scale to the same
        # integers, but their spectra are {0, 1, 2} and {0, 1, 2, 3}.
        dga = build_hopf(2)
        assert len(_moves(dga, LengthWindow(Surd(1, 1, 2)))) == 3
        assert len(_moves(dga, LengthWindow(Surd(1, 1, 5)))) == 4


def _quotient_monomial_count(max_total):
    """Monomials of Q[a,b]/(ab) with total exponent weight <= max_total."""
    count = 0
    for i in range(max_total + 1):
        for j in range(max_total + 1 - i):
            if i * j == 0:
                count += 1
    return count


class TestHomology:
    def test_hopf2_degree0_window45(self, hopf2):
        # Independent oracle: degree-0 homology is Q[a0,a1]/(a0a1) with both
        # generators of length 1, so classes below 4.5 are monomials of
        # total exponent at most 4.
        assert _quotient_monomial_count(4) == 9
        assert homology_dim(hopf2, 0, W("9/2")) == 9

    def test_hopf3_degree2(self, hopf3):
        assert homology_dim(hopf3, 2, W("17/2")) == 2

    def test_unlink3_degree2(self):
        assert homology_dim(build_unlink(3, 3), 2, W("17/2")) == 4

    def test_bulk_matches_single(self, hopf2):
        window = W("7/2")
        dims = homology_dims_all(hopf2, window)
        for p in range(0, 4):
            assert dims.get(p, 0) == homology_dim(hopf2, p, window)

    def test_euler_characteristic(self, hopf2):
        window = W("7/2")
        dims = homology_dims_all(hopf2, window)
        counts = {}
        for p in range(0, 8):
            counts[p] = len(word_basis(hopf2, p, window))
        lhs = sum((-1) ** p * c for p, c in counts.items())
        rhs = sum((-1) ** p * d for p, d in dims.items())
        assert lhs == rhs

    def test_generator_order_independent(self, hopf2):
        reversed_dga = DGA(list(reversed(hopf2.generators)), hopf2.diff)
        for p in (0, 1, 2):
            assert homology_dim(hopf2, p, W("9/2")) == homology_dim(
                reversed_dga, p, W("9/2")
            )


def _per_degree_dim(dga, p, window):
    """H_p from three separately enumerated bases, one reducer per boundary."""
    basis = word_basis(dga, p, window)
    down, up = word_basis(dga, p - 1, window), word_basis(dga, p + 1, window)

    def rank(source, target):
        red = RowReducer()
        for row in _diff_rows(dga, source, {w: i for i, w in enumerate(target)}):
            red.add(row)
        return red.rank

    return len(basis) - rank(basis, down) - rank(up, basis)


class TestSharedHomology:
    CASES = [
        (lambda: build_hopf(2), ["7/2", "9/2", "11/2"]),
        (lambda: build_hopf(3), ["9/2", "13/2"]),
        (lambda: build_unlink(2, 3), ["13/2", "19/2"]),
        (lambda: forget_F(build_hopf(2)), ["9/2"]),
    ]

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_degree_route(self, seed):
        rng = random.Random(seed)
        make, windows = self.CASES[seed % len(self.CASES)]
        dga, window = make(), W(rng.choice(windows))
        degrees = rng.sample(range(-2, 12), rng.randint(1, 5))
        dims = homology_dims_all(dga, window, degrees)
        assert sorted(dims) == sorted(degrees)
        for p in degrees:
            assert dims[p] == _per_degree_dim(dga, p, window)
        full = homology_dims_all(dga, window)
        for p in degrees:
            assert dims[p] == full.get(p, 0)

    def test_negative_grading_not_pruned(self):
        gen = __import__("stringhom.free_dga", fromlist=["Generator"]).Generator
        gens = [gen("a", -1, Surd(1)), gen("b", 0, Surd(1))]
        dga = DGA(gens, {"b": AlgebraElement.gen("a")})
        window = W("5/2")
        dims = homology_dims_all(dga, window, [-1, 0])
        assert dims == {p: _per_degree_dim(dga, p, window) for p in (-1, 0)}

    def test_no_degrees(self, hopf2):
        assert homology_dims_all(hopf2, W("7/2"), []) == {}


class TestH0Slices:
    def test_hopf2(self, hopf2):
        assert h0_dims_by_wordcount(hopf2, W("13/2"), 4) == [1, 2, 2, 2, 2]

    def test_unlink2(self):
        dga = build_unlink(2, 3)
        assert h0_dims_by_wordcount(dga, W("41/2"), 4) == [1, 2, 4, 8, 16]

    def test_hopf3_unit_only(self, hopf3):
        assert h0_dims_by_wordcount(hopf3, W("13/2"), 2) == [1, 0, 0]

    def test_negative_grading_rejected(self):
        gens = [
            __import__("stringhom.free_dga", fromlist=["Generator"]).Generator(
                "g", -1, Surd(1)
            )
        ]
        dga = DGA(gens, {"g": AlgebraElement.zero()})
        with pytest.raises(GradingViolation):
            h0_dims_by_wordcount(dga, W("3/2"), 1)


class TestForgetF:
    def test_kills_linking_terms(self, hopf2):
        stripped = forget_F(hopf2)
        assert differential(stripped, AlgebraElement.gen("c1_00")).is_zero()
        assert differential(stripped, AlgebraElement.gen("d2_01")) == AlgebraElement.gen(
            "e2_01"
        )
        ok, _ = d_squared_zero_check(stripped)
        assert ok

    def test_no_pair_leaves_zero_differential(self):
        # The presentation's DGA has D != 0 but no stabilization pair.
        for dga in (build_unlink(2, 3),
                    cord.presentation_dga(cord.builtin_presentation("hopf_link", 2))):
            stripped = forget_F(dga)
            assert stripped.generators == dga.generators
            assert stripped.name == f"{dga.name}|del"
            assert all(img.is_zero() for img in stripped.diff.values())

    @pytest.mark.parametrize("d,a", [(2, "9/2"), (3, "9/2")])
    def test_stabilization_small_windows(self, d, a):
        dga = forget_F(build_hopf(d))
        window = W(a)
        dims = homology_dims_all(dga, window)
        counts = chord_word_counts_all(dga, window)
        degrees = set(dims) | set(counts)
        for p in degrees:
            assert dims.get(p, 0) == counts.get(p, 0)


words_strategy = st.lists(
    st.sampled_from([g.id for g in build_hopf(2).generators]), min_size=0, max_size=3
).map(tuple)


class TestLeibnizProperties:
    @given(words_strategy, words_strategy)
    @settings(max_examples=80, deadline=None)
    def test_leibniz_rule(self, w1, w2):
        dga = build_hopf(2)
        x = AlgebraElement.from_word(w1)
        y = AlgebraElement.from_word(w2)
        sign = -1 if dga.word_degree(w1) % 2 else 1
        lhs = differential(dga, x * y)
        rhs = differential(dga, x) * y + scale(x * differential(dga, y), sign)
        assert lhs == rhs

    @given(words_strategy)
    @settings(max_examples=80, deadline=None)
    def test_degree_drop(self, w):
        dga = build_hopf(2)
        img = differential(dga, AlgebraElement.from_word(w))
        deg = dga.word_degree(w)
        for term in img.terms:
            assert dga.word_degree(term) == deg - 1

    @given(words_strategy)
    @settings(max_examples=80, deadline=None)
    def test_length_filtration(self, w):
        dga = build_hopf(2)
        img = differential(dga, AlgebraElement.from_word(w))
        bound = word_length(dga, w)
        for term in img.terms:
            assert word_length(dga, term) <= bound

    @given(words_strategy)
    @settings(max_examples=80, deadline=None)
    def test_d_squared_on_elements(self, w):
        dga = build_hopf(3)
        once = differential(dga, AlgebraElement.from_word(w))
        assert differential(dga, once).is_zero()


class TestJson:
    def test_roundtrip_hopf(self, hopf2):
        data = dga_to_json_dict(hopf2)
        back = dga_from_json_dict(data)
        assert [g.id for g in back.generators] == [g.id for g in hopf2.generators]
        for g in hopf2.generators:
            assert back.gen(g.id).degree == g.degree
            assert back.gen(g.id).length == g.length
            assert back.diff[g.id] == hopf2.diff[g.id]

    def test_roundtrip_unlink_surd_lengths(self):
        dga = build_unlink(2, 3)
        back = dga_from_json_dict(dga_to_json_dict(dga))
        assert back.gen("cb1_01").length == Surd.sqrt(13)

    def test_import_validates(self, hopf2):
        data = dga_to_json_dict(hopf2)
        data["diff"]["d1_00"] = [{"coeff": "1", "word": ["c1_00"]}]
        with pytest.raises(InvalidDGA):
            dga_from_json_dict(data)

    @pytest.mark.parametrize(
        "record,field,value,match",
        [("generator", "length", "abc", "'length' does not parse"),
         ("term", "coeff", "1/0", "'coeff' does not parse"),
         ("term", "coeff", "x", "'coeff' does not parse"),
         ("dga", "name", 5, "'name' must be str")],
        ids=["length_abc", "coeff_zero_denominator", "coeff_x", "name_int"],
    )
    def test_import_rejects_malformed_field(self, record, field, value, match):
        gen = {"id": "x", "degree": 1, "length": "2"}
        term = {"coeff": "1", "word": ["y"]}
        data = {"generators": [gen, {"id": "y", "degree": 0, "length": "1"}], "diff": {"x": [term]}}
        {"generator": gen, "term": term, "dga": data}[record][field] = value
        with pytest.raises(InvalidDGA, match=match):
            dga_from_json_dict(data)

    def test_import_rejects_diff_of_unknown_generator(self):
        # Upper-case X names no generator: the term must not be dropped.
        data = {
            "generators": [
                {"id": "x", "degree": 1, "length": "2"},
                {"id": "y", "degree": 0, "length": "1"},
            ],
            "diff": {"X": [{"coeff": "1", "word": ["y"]}]},
        }
        with pytest.raises(InvalidDGA, match="unknown generators"):
            dga_from_json_dict(data)
