import math
import random
from fractions import Fraction

import dga_oracle
import pytest
from page_oracle import associated_graded_homology, oracle_pages, stable_page_index, total_dims

from stringhom import cli, exactlin, free_dga
from stringhom.cli import _valid_window
from stringhom.exactlin import RowReducer, SparseMatrix
from stringhom.lengths import Surd
from stringhom.specseq import (
    Cell,
    ConvergenceFailure,
    FilteredComplex,
    FilteredComplexError,
    complex_from_json_dict,
    complex_to_json_dict,
    from_dga,
    page,
    pages,
    save_complex,
)


def random_filtered_pair(seed: int, ncells: int = 10):
    """Random complex plus its conjugate under a filtered unipotent map.

    Starting from a direct sum of elementary pieces (x -> y plus singles),
    conjugation by a filtration-respecting unipotent change of basis keeps
    boundary^2 = 0 and the filtration property while mixing everything up.
    The change of basis is a filtered chain isomorphism inducing the
    identity on the associated graded, hence an isomorphism on first pages.
    """
    rng = random.Random(seed)
    degs = [rng.randint(0, 3) for _ in range(ncells)]
    filt = [rng.randint(-3, 0) for _ in range(ncells)]
    cells = [Cell(f"x{i}", degs[i], filt[i]) for i in range(ncells)]
    used = set()
    entries = {}
    order = list(range(ncells))
    rng.shuffle(order)
    for j in order:
        if j in used:
            continue
        cands = [
            i
            for i in range(ncells)
            if i not in used and i != j and degs[i] == degs[j] - 1 and filt[i] <= filt[j]
        ]
        if cands and rng.random() < 0.7:
            i = rng.choice(cands)
            entries[(i, j)] = Fraction(rng.choice([1, -1, 2]))
            used.add(i)
            used.add(j)
    d0 = SparseMatrix(ncells, ncells, entries)
    p_entries = {(i, i): Fraction(1) for i in range(ncells)}
    for _ in range(ncells):
        j = rng.randrange(ncells)
        cands = [
            k for k in range(ncells) if k != j and degs[k] == degs[j] and filt[k] < filt[j]
        ]
        if cands:
            k = rng.choice(cands)
            p_entries[(k, j)] = p_entries.get((k, j), Fraction(0)) + rng.choice([1, -1])
    p = SparseMatrix(ncells, ncells, p_entries)
    nilpotent = SparseMatrix(
        ncells, ncells, {k: v for k, v in p_entries.items() if k[0] != k[1]}
    )
    inv = term = SparseMatrix(ncells, ncells, {(i, i): 1 for i in range(ncells)})
    sign = 1
    for _ in range(ncells):
        term = term @ nilpotent
        if not term.entries:
            break
        sign = -sign
        merged = dict(inv.entries)
        for k, v in term.entries.items():
            merged[k] = merged.get(k, Fraction(0)) + sign * v
        inv = SparseMatrix(ncells, ncells, merged)
    return FilteredComplex(cells, d0), FilteredComplex(cells, p @ d0 @ inv)


def random_filtered_complex(seed: int, ncells: int = 10) -> FilteredComplex:
    return random_filtered_pair(seed, ncells)[1]


def einf_adds_up(fc: FilteredComplex) -> bool:
    """Do the E-oo degree totals of ``fc``'s pages equal its homology?"""
    totals, hom = total_dims(pages(fc.barcode(), 1)[-1]), fc.homology_dims()
    return all(totals.get(n, 0) == hom.get(n, 0) for n in set(totals) | set(hom))


@pytest.fixture(scope="module")
def hopf_complex():
    dga = free_dga.build_hopf(2)
    return from_dga(dga, free_dga.LengthWindow(Fraction(7, 2)))


class TestFromDga:
    def test_cell_filtrations(self, hopf_complex):
        cell = {c.id: c for c in hopf_complex.cells}
        assert cell["c0_01"].degree == 0
        assert cell["c0_01"].filtration == -1
        assert cell["d1_00"].degree == 1
        assert cell["d1_00"].filtration == -2
        assert cell["1"].degree == 0
        assert cell["1"].filtration == 0

    @pytest.mark.parametrize(
        "make,a",
        [
            (lambda: free_dga.build_hopf(2), Fraction(9, 2)),
            (lambda: free_dga.build_hopf(2), Fraction(11, 2)),
            (lambda: free_dga.forget_F(free_dga.build_hopf(2)), Fraction(9, 2)),
            (lambda: free_dga.build_hopf(3), Fraction(9, 2)),
            (lambda: free_dga.build_unlink(2, 3), Fraction(19, 2)),
        ]
        + [(lambda seed=seed: random_spec_dga(seed), None) for seed in range(10)],
        ids=["hopf2-9/2", "hopf2-11/2", "hopf2_del-9/2", "hopf3-9/2", "unlink23-19/2"]
        + [f"random{seed}" for seed in range(10)],
    )
    def test_matches_per_word_lookup_oracle(self, make, a):
        """Per-letter tables build the complex the ``DGA.gen`` route builds."""
        dga = make()
        window = free_dga.LengthWindow(a) if a else _valid_window(dga, Fraction(9, 2))
        fc, want = from_dga(dga, window), dga_oracle.filtered_complex(dga, window)
        cells = [(c.id, c.degree, c.filtration) for c in fc.cells]
        assert cells == [(c.id, c.degree, c.filtration) for c in want.cells]
        got_entries = [(k, type(v), v) for k, v in fc.boundary.entries.items()]
        assert got_entries == [(k, type(v), v) for k, v in want.boundary.entries.items()]

    def test_integral_boundary_stays_int(self):
        fc = from_dga(free_dga.build_hopf(2), free_dga.LengthWindow(Fraction(9, 2)))
        assert fc.boundary.entries
        assert all(type(v) is int for v in fc.boundary.entries.values())

    def test_validation_rejects_bad_boundary(self):
        cells = [Cell("a", 1, 0), Cell("b", 0, 1)]
        bad = SparseMatrix(2, 2, {(1, 0): Fraction(1)})
        with pytest.raises(FilteredComplexError):
            FilteredComplex(cells, bad)

    def test_validation_rejects_nonsquarezero(self):
        cells = [Cell("a", 2, 0), Cell("b", 1, 0), Cell("c", 0, 0)]
        bad = SparseMatrix(3, 3, {(1, 0): Fraction(1), (2, 1): Fraction(1)})
        with pytest.raises(FilteredComplexError):
            FilteredComplex(cells, bad)


class TestPages:
    def test_zero_boundary_pages_constant(self):
        cells = [Cell("a", 0, 0), Cell("b", 1, -1), Cell("c", 1, -1)]
        fc = FilteredComplex(cells, SparseMatrix(3, 3))
        bars = fc.barcode()
        first = page(bars, 1)
        assert first.dims.get((0, 0), 0) == 1
        assert first.dims.get((-1, 2), 0) == 2
        for r in (2, 3, 5):
            assert page(bars, r).dims == first.dims
        assert pages(bars, 1)[-1].dims == first.dims

    @pytest.mark.parametrize("off,named", [((1, 2), 1), ((0,), 0), ((9,), 9)])
    def test_convergence_failure_names_the_first_differing_degree(
        self, off, named, hopf_complex, monkeypatch
    ):
        hom = hopf_complex.homology_dims()
        wrong = {**hom, **{n: hom.get(n, 0) + 1 for n in off}}
        monkeypatch.setattr(FilteredComplex, "homology_dims", lambda fc: wrong)
        have = hom.get(named, 0)
        with pytest.raises(ConvergenceFailure,
                           match=f"^degree {named}: E-oo has {have} cells, "
                                 f"homology dimension {have + 1}$"):
            hopf_complex.barcode()

    def test_page_index_validated(self, hopf_complex):
        with pytest.raises(free_dga.ParameterOutOfRange, match="^rmax must be at least 1$"):
            pages(hopf_complex.barcode(), 0)

    @pytest.mark.parametrize("seed", range(8))
    def test_first_page_is_graded_homology(self, seed):
        fc = random_filtered_complex(seed)
        e1 = page(fc.barcode(), 1)
        gr = associated_graded_homology(fc)
        assert {k: v for k, v in e1.dims.items() if v} == gr

    @pytest.mark.parametrize("seed", range(8))
    def test_entrywise_monotone(self, seed):
        fc = random_filtered_complex(seed)
        bars = fc.barcode()
        prev = page(bars, 1)
        for r in range(2, stable_page_index(fc) + 1):
            cur = page(bars, r)
            keys = set(prev.dims) | set(cur.dims)
            for key in keys:
                assert cur.dims.get(key, 0) <= prev.dims.get(key, 0)
            prev = cur

    @pytest.mark.parametrize("seed", range(8))
    def test_pages_stabilize(self, seed):
        fc = random_filtered_complex(seed)
        r0, bars = stable_page_index(fc), fc.barcode()
        assert page(bars, r0).dims == page(bars, r0 + 2).dims

    @pytest.mark.parametrize("seed", range(12))
    def test_convergence_random(self, seed):
        fc = random_filtered_complex(seed, ncells=12)
        assert einf_adds_up(fc)

    def test_convergence_hopf(self, hopf_complex):
        assert einf_adds_up(hopf_complex)

    def test_convergence_zero_boundary(self):
        cells = [Cell("a", 0, 0), Cell("b", 1, -1)]
        fc = FilteredComplex(cells, SparseMatrix(2, 2))
        assert einf_adds_up(fc)

    def test_first_page_diagonal_counts_chord_words(self, hopf_complex):
        # Words built from weight-1 generators survive to the first page;
        # at total degree zero the (-m, m) entry counts the m-letter ones.
        dga = free_dga.build_hopf(2)
        window = free_dga.LengthWindow(Fraction(7, 2))
        e1 = page(hopf_complex.barcode(), 1)
        for m in range(0, 4):
            count = sum(
                1
                for w in free_dga._enumerate_words(dga, window, 0)
                if len(w) == m and dga.word_degree(w) == 0
                and all(dga.gen(g).weight == 1 for g in w)
            )
            assert e1.dims.get((-m, m), 0) == count


class TestComparison:
    """A filtered map that is an isomorphism on the first page induces an
    isomorphism on total homology; checked on constructed pairs related by a
    filtered unipotent change of basis (identity on the associated graded,
    so the induced first-page map is an isomorphism).
    """

    @pytest.mark.parametrize("seed", range(6))
    def test_homology_matches_across_e1_isomorphism(self, seed):
        plain, conjugated = random_filtered_pair(seed)
        assert page(plain.barcode(), 1).dims == page(conjugated.barcode(), 1).dims
        assert plain.homology_dims() == conjugated.homology_dims()
        total_e_inf = total_dims(page(conjugated.barcode(), math.inf))
        hom = plain.homology_dims()
        for n in set(total_e_inf) | set(hom):
            assert total_e_inf.get(n, 0) == hom.get(n, 0)


def random_spec_dga(seed: int) -> free_dga.DGA:
    """Random DGA read back from its JSON spec.

    Cycles have D = 0; every other generator sends one or two words in the
    cycles, of one common degree, no longer and no lighter than itself.
    Each letter of such a word is a cycle, so D^2 = 0.
    """
    rng = random.Random(seed)
    lengths = [Fraction(k, 2) for k in range(2, 6)]
    cycles = [
        free_dga.Generator(f"z{k}", rng.randint(0, 2), Surd(rng.choice(lengths)),
                           rng.randint(1, 2))
        for k in range(rng.randint(2, 4))
    ]
    words: dict[int, list] = {}
    for w in [(g,) for g in cycles] + [(g, h) for g in cycles for h in cycles]:
        words.setdefault(sum(g.degree for g in w), []).append(w)
    gens, diff = list(cycles), {}
    for k in range(rng.randint(1, 3)):
        deg = rng.choice(sorted(words))
        image = rng.sample(words[deg], min(len(words[deg]), rng.randint(1, 2)))
        length = max(sum((g.length for g in w), Surd(0)) for w in image)
        gen = free_dga.Generator(f"x{k}", deg + 1, length + rng.choice([0, Fraction(1, 2)]),
                                 min(sum(g.weight for g in w) for w in image))
        gens.append(gen)
        diff[gen.id] = sum(
            (free_dga.AlgebraElement.from_word([g.id for g in w], rng.choice([1, -1, 2]))
             for w in image),
            free_dga.AlgebraElement.zero(),
        )
    dga = free_dga.DGA(gens, diff)
    return free_dga.dga_from_json_dict(free_dga.dga_to_json_dict(dga))


class TestThreeRoutes:
    """``homology_dims_all``, the filtered complex's homology and the E-oo
    degree totals agree: the first ranks words of the window by degree, the
    second ranks the boundary of ``from_dga``, the third reads the barcode
    of persistence pairs.
    """

    def check(self, dga, window):
        fc = from_dga(dga, window)
        routes = [free_dga.homology_dims_all(dga, window, dga_oracle.word_counts_all(dga, window)),
                  fc.homology_dims(),
                  total_dims(page(fc.barcode(), math.inf))]
        first, *rest = [{n: d for n, d in dims.items() if d} for dims in routes]
        assert rest == [first, first]

    @pytest.mark.parametrize(
        "make,a",
        [
            (lambda: free_dga.build_hopf(2), Fraction(9, 2)),
            (lambda: free_dga.build_hopf(2), Fraction(11, 2)),
            (lambda: free_dga.forget_F(free_dga.build_hopf(2)), Fraction(9, 2)),
            (lambda: free_dga.build_unlink(2, 3), Fraction(19, 2)),
        ],
        ids=["hopf2-9/2", "hopf2-11/2", "hopf2_del-9/2", "unlink23-19/2"],
    )
    def test_builtin(self, make, a):
        self.check(make(), free_dga.LengthWindow(a))

    @pytest.mark.parametrize("seed", range(10))
    def test_random_spec(self, seed):
        dga = random_spec_dga(seed)
        self.check(dga, _valid_window(dga, Fraction(9, 2)))


class TestIO:
    def test_json_roundtrip(self, hopf_complex):
        data = complex_to_json_dict(hopf_complex)
        back = complex_from_json_dict(data)
        assert back.cells == hopf_complex.cells
        assert back.boundary == hopf_complex.boundary

    def test_csv(self, tmp_path, hopf_complex):
        path = tmp_path / "pages.csv"
        save_complex(hopf_complex, tmp_path / "fc.json")
        argv = ["specseq", "--complex", str(tmp_path / "fc.json"), "--rmax", "1",
                "--csv", str(path), "--outdir", str(tmp_path)]
        assert cli.main(argv) == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "r,p,q,dim"
        assert any(line.startswith("inf,") for line in lines[1:])


def _all_pages(fc):
    """Pages 1 .. width + 2 followed by E-oo, with the r list used."""
    rs = list(range(1, stable_page_index(fc) + 1))
    return rs + [-1], pages(fc.barcode(), rs[-1])


class TestPersistenceOracle:
    """Pages read off the persistence pairs equal the subquotient engine."""

    def check(self, fc):
        rs, tables = _all_pages(fc)
        assert [t.dims for t in tables] == [t.dims for t in oracle_pages(fc, rs)]

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("ncells", [10, 12])
    def test_random(self, seed, ncells):
        self.check(random_filtered_complex(seed, ncells))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_unconjugated(self, seed):
        self.check(random_filtered_pair(seed)[0])

    def test_zero_boundary(self):
        cells = [Cell("a", 0, 0), Cell("b", 1, -1), Cell("c", 1, -3), Cell("d", 2, -2)]
        self.check(FilteredComplex(cells, SparseMatrix(4, 4)))

    @pytest.mark.parametrize(
        "dga,a",
        [(free_dga.build_hopf(2), Fraction(9, 2)), (free_dga.build_unlink(2, 3), Fraction(19, 2))],
        ids=["hopf2", "unlink23"],
    )
    def test_dga_windows(self, dga, a):
        self.check(from_dga(dga, free_dga.LengthWindow(a)))

    def test_pairs_and_unpaired_partition_cells(self, hopf_complex):
        bars = hopf_complex.barcode()
        assert sum(bars.values()) == len(hopf_complex.cells)
        assert all(gap >= 0 for _, _, gap in bars)


RANDOM_COMPLEXES = [(seed, ncells, 1) for seed in range(12) for ncells in (10, 12)] + [
    (seed, 10, 0) for seed in range(6)
]


def _cleared_and_whole_dims(fc):
    """Homology of ``fc`` with clearing, from the ranks of the whole blocks,
    and the cells that clearing skipped: those ``column`` was never asked for.

    The dimensions agree exactly when the ranks do, by induction from the
    top degree, where a dimension is the size less one rank.
    """
    by_degree: dict[int, list[int]] = {}
    for i, c in enumerate(fc.cells):
        by_degree.setdefault(c.degree, []).append(i)
    sizes = {n: len(idxs) for n, idxs in by_degree.items()}
    cols = fc.boundary.col_dicts()
    asked = set()

    def column(j):
        asked.add(j)
        return dict(cols[j])

    cleared = exactlin.homology_dims(sizes, by_degree, column)
    whole = {}
    for n, idxs in by_degree.items():
        red = RowReducer()
        for j in idxs:
            if cols[j]:
                red.add(cols[j])
        whole[n] = red.rank
    whole = {n: size - whole[n] - whole.get(n + 1, 0) for n, size in sizes.items()}
    return cleared, whole, [j for j in range(len(fc.cells)) if j not in asked]


class TestClearing:
    """Homology from block ranks with clearing equals homology from the ranks
    of the whole blocks, on the 30 random complexes of ``TestPersistenceOracle``."""

    @pytest.mark.parametrize("seed,ncells,which", RANDOM_COMPLEXES)
    def test_cleared_ranks(self, seed, ncells, which):
        cleared, whole, _ = _cleared_and_whole_dims(random_filtered_pair(seed, ncells)[which])
        assert cleared == whole

    def test_every_complex_clears_a_cell(self):
        skipped = [
            _cleared_and_whole_dims(random_filtered_pair(seed, ncells)[which])[2]
            for seed, ncells, which in RANDOM_COMPLEXES
        ]
        assert all(skipped)


class TestStrictLoader:
    def data(self):
        return {
            "cells": [{"id": "a", "degree": 1, "filtration": 0},
                      {"id": "b", "degree": 0, "filtration": 0}],
            "boundary": [{"from": "a", "to": "b", "coeff": "1"}],
        }

    def test_valid(self):
        assert complex_from_json_dict(self.data()).homology_dims() == {0: 0, 1: 0}

    def test_unknown_cell_id(self):
        data = self.data()
        data["boundary"][0]["to"] = "nope"
        with pytest.raises(FilteredComplexError, match="unknown cell"):
            complex_from_json_dict(data)

    def test_duplicate_boundary_record(self):
        data = self.data()
        data["boundary"].append({"from": "a", "to": "b", "coeff": "2"})
        with pytest.raises(FilteredComplexError, match="duplicate"):
            complex_from_json_dict(data)
