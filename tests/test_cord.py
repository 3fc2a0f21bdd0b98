from fractions import Fraction

import pytest

from cord_oracle import hopf_skein_by_cosets, padded_quotient_dims

from stringhom import free_dga
from stringhom.cord import (
    BoundExceeded,
    CordError,
    CordGenerator,
    InvalidPresentation,
    CordPresentation,
    SkeinInstance,
    UnknownBuiltin,
    _extract_rewrites,
    builtin_presentation,
    compare_with_h0,
    load_presentation,
    presentation_dga,
    presentation_from_json_dict,
    presentation_to_json_dict,
    quotient_dims_by_wordcount,
    save_presentation,
    truncation_stable,
)
from stringhom.exactlin import RowReducer


def slice_dims_full_alphabet(pres: CordPresentation, wmax: int) -> list[int]:
    """Oracle: the same quotients with no generator elimination at all.

    Every relation instance is padded over the full generator alphabet and
    the filtration slice dimensions are read off one echelon pass.  This is
    only feasible for small presentations, which is exactly what makes it an
    independent check on the reduction done by the main routine.
    """
    rows = pres.relation_rows()
    alphabet = sorted(g.id for g in pres.generators)
    width = wmax + 1

    def pad_words(max_len):
        frontier = [()]
        out = [()]
        for _ in range(max_len):
            frontier = [w + (g,) for w in frontier for g in alphabet]
            out.extend(frontier)
        return out

    # Columns keyed (-letters, word): the smallest key, each row's pivot, is
    # its longest word.
    red = RowReducer()
    for row in rows:
        row_len = max(len(w) for w in row)
        budget = width - row_len
        pads = pad_words(budget)
        for u in pads:
            for v in pads:
                if len(u) + len(v) > budget:
                    continue
                padded = {u + w + v: c for w, c in row.items()}
                red.add({(-len(x), x): c for x, c in padded.items()})
    pivot_lengths = [-k for k, _ in red.pivots]
    total = red.rank
    asize = len(alphabet)
    dims = []
    prev = 0
    for w in range(wmax + 1):
        ambient = sum(asize**k for k in range(w + 1))
        beyond = sum(1 for k in pivot_lengths if k > w)
        f_w = ambient - (total - beyond)
        dims.append(f_w - prev)
        prev = f_w
    return dims


class TestBuiltins:
    def test_unknown_name(self):
        with pytest.raises(UnknownBuiltin):
            builtin_presentation("trefoil", 2)

    def test_unknot_structure(self):
        pres = builtin_presentation("unknot", 3)
        assert [g.id for g in pres.generators] == ["a0", "a1", "a2", "a3"]
        assert pres.constants == ["a0"]
        # Every skein instance is A_(j+k) - A_(j+k+1) - A_j A_k.
        for inst in pres.skein:
            j = int(inst.left[1:])
            k = int(inst.right[1:])
            assert inst.concat == f"a{j + k}"
            assert inst.inserted == f"a{j + k + 1}"

    def test_hopf_structure(self):
        pres = builtin_presentation("hopf_link", 2)
        ids = {g.id for g in pres.generators}
        assert {"x01", "x10", "s00_0", "s11_2"} <= ids
        assert {"s00_0", "s11_0"} == set(pres.constants)
        # The cross-cross splice produces both product relations.
        prods = {(i.left, i.right) for i in pres.skein if i.concat == i.inserted == "s00_0"}
        assert ("x01", "x10") in prods

    @pytest.mark.parametrize("kmax", range(2, 9))
    def test_hopf_skein_matches_the_coset_model(self, kmax):
        # The depth rule of the builder against the exponent-vector cosets, in order.
        assert builtin_presentation("hopf_link", kmax).skein == hopf_skein_by_cosets(kmax)

    def test_unlink2_structure(self):
        pres = builtin_presentation("unlink2", 2)
        ids = {g.id for g in pres.generators}
        assert {"t01", "t10", "w00c1_2"} <= ids
        assert set(pres.constants) == {"t00", "t11"}

    @pytest.mark.parametrize("name", ["unknot", "hopf_link", "unlink2"])
    def test_relation_rows_connect_adjacent_counts(self, name):
        # Single-cord terms and one product term only: every row lives in
        # letter counts {1} or {1, 2}, so slice computations are exact.
        pres = builtin_presentation(name, 3)
        for row in pres.relation_rows():
            counts = {len(w) for w in row}
            assert counts <= {1, 2}


class TestQuotientDims:
    def test_unknot_collapses(self):
        pres = builtin_presentation("unknot", 4)
        assert quotient_dims_by_wordcount(pres, 3) == [1, 0, 0, 0]

    def test_hopf_matches_polynomial_quotient(self):
        pres = builtin_presentation("hopf_link", 2)
        assert quotient_dims_by_wordcount(pres, 4) == [1, 2, 2, 2, 2]

    def test_unlink2_free_on_two(self):
        pres = builtin_presentation("unlink2", 2)
        assert quotient_dims_by_wordcount(pres, 4) == [1, 2, 4, 8, 16]

    def test_bound_enforced(self):
        pres = builtin_presentation("unknot", 2)
        with pytest.raises(BoundExceeded):
            quotient_dims_by_wordcount(pres, pres.bound + 1)

    def test_negative_wmax_rejected(self):
        # The CLI's own rule and text, so a library caller reads the same error.
        with pytest.raises(free_dga.ParameterOutOfRange, match="^wmax must be nonnegative$"):
            quotient_dims_by_wordcount(builtin_presentation("unknot", 2), -1)

    @pytest.mark.parametrize("name,wmax", [("unknot", 3), ("hopf_link", 3)])
    def test_engine_matches_full_alphabet_oracle(self, name, wmax):
        # Valid comparison: for these presentations every eliminated
        # generator rewrites to zero, so the word-count filtration is the
        # same over the raw and the irreducible alphabet.  (Not true for
        # unlink2, whose deep cords rewrite to two-letter products; there
        # the slice dims are counted over normal-form words, and the checks
        # are the closed-form dims plus truncation stability.)
        pres = builtin_presentation(name, 2)
        assert quotient_dims_by_wordcount(pres, wmax) == slice_dims_full_alphabet(
            pres, wmax
        )

    def test_skein_order_irrelevant(self):
        pres = builtin_presentation("hopf_link", 2)
        shuffled = CordPresentation(
            pres.generators,
            pres.constants,
            list(reversed(pres.skein)),
            pres.bound,
            name="shuffled",
        )
        assert quotient_dims_by_wordcount(shuffled, 4) == [1, 2, 2, 2, 2]


class TestTruncationStability:
    @pytest.mark.parametrize("name,wmax", [("unknot", 3), ("hopf_link", 4), ("unlink2", 4)])
    def test_stable(self, name, wmax):
        dims = quotient_dims_by_wordcount(builtin_presentation(name, 2), wmax)
        assert truncation_stable(name, 2, dims)


class TestCompare:
    def test_hopf_link_matches_h0(self):
        ok, rows = compare_with_h0(
            quotient_dims_by_wordcount(builtin_presentation("hopf_link", 2), 4),
            free_dga.build_hopf(2),
            free_dga.LengthWindow(Fraction(13, 2)),
        )
        assert ok
        assert [r[1] for r in rows] == [1, 2, 2, 2, 2]

    def test_unlink2_matches_h0(self):
        ok, _ = compare_with_h0(
            quotient_dims_by_wordcount(builtin_presentation("unlink2", 2), 4),
            free_dga.build_unlink(2, 3),
            free_dga.LengthWindow(Fraction(41, 2)),
        )
        assert ok

    def test_unknot_vs_hopf_differs(self):
        ok, rows = compare_with_h0(
            quotient_dims_by_wordcount(builtin_presentation("unknot", 2), 3),
            free_dga.build_hopf(2),
            free_dga.LengthWindow(Fraction(13, 2)),
        )
        assert not ok
        assert rows[1][1] == 0 and rows[1][2] == 2


class TestJson:
    def test_roundtrip(self):
        pres = builtin_presentation("hopf_link", 2)
        back = presentation_from_json_dict(presentation_to_json_dict(pres))
        assert [g.id for g in back.generators] == [g.id for g in pres.generators]
        assert back.constants == pres.constants
        assert back.skein == pres.skein
        assert back.bound == pres.bound
        assert quotient_dims_by_wordcount(back, 4) == [1, 2, 2, 2, 2]

    def test_custom_presentation(self):
        # A two-generator table with one product relation: dims of the free
        # algebra on {p, q} modulo (pq); the surviving words are q^a p^b.
        gens = [CordGenerator("p", 0, 1), CordGenerator("q", 1, 0), CordGenerator("z", 0, 0)]
        pres = CordPresentation(
            gens,
            ["z"],
            [SkeinInstance("z", "z", "p", "q")],
            bound=4,
            name="custom",
        )
        assert quotient_dims_by_wordcount(pres, 3) == [1, 2, 3, 4]


def _set(path, value):
    def edit(data):
        *head, last = path
        for k in head:
            data = data[k]
        data[last] = value
    return edit


class TestStrictLoader:
    """Every malformed presentation record raises ``InvalidPresentation``."""

    @pytest.mark.parametrize(
        "edit",
        [
            lambda data: data.pop("generators"),
            lambda data: data["generators"][0].pop("id"),
            lambda data: data["generators"][0].pop("source"),
            lambda data: data["generators"][1].pop("target"),
            lambda data: data["skein"][0].pop("left"),
        ],
        ids=["generators", "id", "source", "target", "skein_left"],
    )
    def test_missing_key(self, edit):
        data = presentation_to_json_dict(builtin_presentation("hopf_link", 2))
        edit(data)
        with pytest.raises(InvalidPresentation, match="lacks the key"):
            presentation_from_json_dict(data)

    @pytest.mark.parametrize(
        "edit",
        [
            _set(("generators", 0, "source"), "0"),
            _set(("generators", 0, "target"), 1.0),
            _set(("generators", 2, "depth"), 1.5),
            _set(("generators", 2, "depth"), True),
            _set(("bound",), "4"),
        ],
        ids=["source_str", "target_float", "depth_float", "depth_bool", "bound_str"],
    )
    def test_non_integer_field(self, edit):
        data = presentation_to_json_dict(builtin_presentation("hopf_link", 2))
        edit(data)
        with pytest.raises(InvalidPresentation, match="must be int"):
            presentation_from_json_dict(data)

    @pytest.mark.parametrize(
        "edit",
        [
            _set(("generators",), {"x01": {}}),
            _set(("generators", 0), ["s00_0", 0, 0]),
            _set(("skein", 0, "concat"), 7),
        ],
        ids=["generators_not_list", "record_not_object", "skein_name_int"],
    )
    def test_wrong_record_type(self, edit):
        data = presentation_to_json_dict(builtin_presentation("hopf_link", 2))
        edit(data)
        with pytest.raises(InvalidPresentation):
            presentation_from_json_dict(data)

    def test_unknown_skein_generator(self):
        data = presentation_to_json_dict(builtin_presentation("hopf_link", 2))
        data["skein"][0]["left"] = "nowhere"
        with pytest.raises(CordError, match="unknown generator nowhere"):
            presentation_from_json_dict(data)


# -- the H_0 route against the padded-echelon oracle ---------------------------


def _custom_presentation() -> CordPresentation:
    gens = [CordGenerator("p", 0, 1), CordGenerator("q", 1, 0), CordGenerator("z", 0, 0)]
    return CordPresentation(gens, ["z"], [SkeinInstance("z", "z", "p", "q")], bound=4,
                            name="custom")


def _mixed_presentation() -> CordPresentation:
    # a - b - cc = 0 with no strictly deepest letter: the Tietze pass leaves
    # the row, whose words have one and two letters, so D shortens a word and
    # the H_0 slices take the one-block route instead of segments.
    gens = [CordGenerator(x, 0, 0) for x in "abc"]
    return CordPresentation(gens, [], [SkeinInstance("a", "b", "c", "c")], bound=4,
                            name="mixed")


def _relabel(pres: CordPresentation, new: dict) -> CordPresentation:
    name = lambda gid: new.get(gid, gid)
    return CordPresentation(
        [CordGenerator(name(g.id), g.source, g.target, g.depth) for g in pres.generators],
        [name(c) for c in pres.constants],
        [SkeinInstance(*map(name, (s.concat, s.inserted, s.left, s.right))) for s in pres.skein],
        pres.bound,
        name=pres.name,
    )


def _assert_matches_oracle(pres: CordPresentation):
    for wmax in range(pres.bound + 1):
        assert quotient_dims_by_wordcount(pres, wmax) == padded_quotient_dims(pres, wmax), wmax


class TestAgainstPaddedOracle:
    @pytest.mark.parametrize("kmax", range(2, 7))
    @pytest.mark.parametrize("name", ["unknot", "hopf_link", "unlink2"])
    def test_builtins_every_wmax(self, name, kmax):
        _assert_matches_oracle(builtin_presentation(name, kmax))

    @pytest.mark.parametrize("name", ["unknot", "hopf_link", "unlink2"])
    def test_saved_and_loaded(self, name, tmp_path):
        path = tmp_path / "pres.json"
        save_presentation(builtin_presentation(name, 3), path)
        _assert_matches_oracle(load_presentation(path))

    @pytest.mark.parametrize("make", [_custom_presentation, _mixed_presentation],
                             ids=["custom", "mixed"])
    def test_small_presentations(self, make):
        _assert_matches_oracle(make())

    def test_mixed_row_takes_one_block_route(self):
        dga = free_dga.destabilize(presentation_dga(_mixed_presentation()))
        assert dga._ends is None
        assert [g.degree for g in dga.generators] == [0, 0, 0, 1]

    @pytest.mark.parametrize("make", [lambda: builtin_presentation("hopf_link", 2),
                                      _custom_presentation, _mixed_presentation],
                             ids=["hopf_link", "custom", "mixed"])
    def test_generator_ids_equal_to_relation_letter_names(self, make):
        # Give the surviving generators the names the relation letters get
        # on the original presentation: a fixed naming scheme collides.
        pres = make()
        dga = presentation_dga(pres)
        survivors = [g.id for g in dga.generators if g.degree == 0]
        relations = [g.id for g in dga.generators if g.degree == 1]
        assert relations and len(survivors) >= len(relations)
        clash = _relabel(pres, dict(zip(survivors, relations)))
        assert set(relations) <= {g.id for g in presentation_dga(clash).generators}
        _assert_matches_oracle(clash)


class TestIntegerTietze:
    @pytest.mark.parametrize("kmax", range(2, 7))
    @pytest.mark.parametrize("name", ["unknot", "hopf_link", "unlink2"])
    def test_builtin_coefficients_exact(self, name, kmax):
        pres = builtin_presentation(name, kmax)
        table, leftovers = _extract_rewrites(pres, pres.relation_rows())
        for element in [*table.values(), *leftovers]:
            for c in element.values():
                assert type(c) in (int, Fraction), c

    def test_solve_by_non_unit_lead_stays_exact(self):
        # 2a + b = 0 with a deeper than b: a = -b/2, a Fraction and not 0.5.
        pres = CordPresentation([CordGenerator("a", 0, 0, 1), CordGenerator("b", 0, 0)], [], [],
                                bound=2)
        table, leftovers = _extract_rewrites(pres, [{("a",): 2, ("b",): 1}])
        assert table == {"a": {("b",): Fraction(-1, 2)}} and leftovers == []
        assert type(table["a"][("b",)]) is Fraction

    @staticmethod
    def _solve(depths: dict, rows: list[dict]):
        gens = [CordGenerator(g, 0, 0, d) for g, d in depths.items()]
        return _extract_rewrites(CordPresentation(gens, [], [], bound=2), rows)

    def test_tied_deepest_letters_stay(self):
        # a and b share the top depth, so neither is strictly deepest.
        rows = [{("a",): 1, ("b",): -1, ("c",): 1}, {("a",): 1, ("b", "c"): 1}]
        table, leftovers = self._solve({"a": 1, "b": 1, "c": 0}, rows)
        assert table == {} and leftovers == rows

    def test_deepest_letter_also_inside_a_product_stays(self):
        # a - c - a c = 0: a occurs twice, so solving for it is no Tietze move.
        rows = [{("a",): 1, ("c",): -1, ("a", "c"): -1}]
        assert self._solve({"a": 1, "c": 0}, rows) == ({}, rows)

    def test_deepest_letter_only_inside_a_product_stays(self):
        rows = [{("c",): 1, ("a", "c"): -1}]
        assert self._solve({"a": 1, "c": 0}, rows) == ({}, rows)

    def test_strictly_deepest_lone_letter_is_solved(self):
        # a - b - b c = 0 with a deepest: a = b + b c, and nothing is left.
        table, leftovers = self._solve(
            {"a": 2, "b": 1, "c": 0}, [{("a",): 1, ("b",): -1, ("b", "c"): -1}]
        )
        assert table == {"a": {("b",): 1, ("b", "c"): 1}} and leftovers == []
        assert all(type(c) is int for c in table["a"].values())
