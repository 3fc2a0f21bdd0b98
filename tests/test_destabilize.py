"""``free_dga.destabilize`` against the full route.

``destabilize`` drops the stabilization pairs d -> e that a tame
substitution splits off.  Homology, the degree-0 letter-count slices and
the weight-filtration pages must then agree with those of the full DGA,
computed by ``dga_oracle`` (which never destabilizes) and by ``from_dga``
on the full DGA.  Each condition on a pair has a spec where it fails and
the pair must stay.
"""

import importlib.util
import math
import random
from fractions import Fraction
from pathlib import Path

import dga_oracle
import pytest

from stringhom import cli
from stringhom.free_dga import (
    DGA,
    AlgebraElement,
    Generator,
    LengthWindow,
    build_hopf,
    build_unlink,
    destabilize,
    dga_from_json_dict,
    dga_to_json_dict,
    forget_F,
    h0_dims_by_wordcount,
    homology_dims_all,
    save_dga,
)
from stringhom.lengths import Surd
from stringhom.specseq import from_dga, page

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _spec(gens, diff, validate=True) -> DGA:
    """DGA from ``(id, degree, length, weight)`` rows and ``{id: {word: coeff}}``.

    ``validate=False`` builds it with ``DGA.validate`` patched out.
    """
    with pytest.MonkeyPatch.context() as m:
        if not validate:
            m.setattr(DGA, "validate", lambda self: None)
        return DGA(
            [Generator(gid, deg, Surd.of(Fraction(ell)), w) for gid, deg, ell, w in gens],
            {gid: AlgebraElement({tuple(w.split()): c for w, c in img.items()})
             for gid, img in diff.items()},
        )


def _ids(dga: DGA) -> list[str]:
    return [g.id for g in dga.generators]


# x is a cycle; d -> e is a pair; g sends x·x - e.
BASE = [("x", 0, 1, 1), ("e", 0, 2, 2), ("d", 1, 2, 2), ("g", 1, 2, 1)]
BASE_DIFF = {"d": {"e": 1}, "g": {"x x": 1, "e": -1}}


class TestConditions:
    def test_base_pair_drops_and_deletes_the_e_term(self):
        out = destabilize(_spec(BASE, BASE_DIFF))
        assert _ids(out) == ["x", "g"]
        assert out.diff["g"] == AlgebraElement.from_word(("x", "x"))

    @pytest.mark.parametrize("d", [2, 3])
    def test_hopf_keeps_the_weight_one_letters(self, d):
        dga = build_hopf(d)
        out = destabilize(dga)
        assert _ids(out) == [g.id for g in dga.generators if g.weight == 1]
        for gid in _ids(out):
            want = {w: c for w, c in dga.diff[gid].terms.items() if len(w) > 1}
            assert out.diff[gid].terms == want

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_hopf_pairs_are_the_d_to_e_terms(self, d):
        dga = build_hopf(d)
        assert dga._partners == {g.id: "e" + g.id[1:] for g in dga.generators if g.id[0] == "d"}

    def test_forget_f_keeps_d_on_the_pair_sources_only(self):
        out = forget_F(_spec(BASE, BASE_DIFF))
        assert _ids(out) == [gid for gid, *_ in BASE]
        assert {gid: img for gid, img in out.diff.items() if not img.is_zero()} == {
            "d": AlgebraElement.gen("e")}

    def test_forget_f_loses_every_pair(self):
        dga = forget_F(build_hopf(2))
        out = destabilize(dga)
        assert _ids(out) == [g.id for g in dga.generators if g.weight == 1]
        assert all(img.is_zero() for img in out.diff.values())

    def test_unlink_comes_back_as_is(self):
        dga = build_unlink(2, 3)
        assert destabilize(dga) is dga

    def test_relabelled_benchmark_spec_reduces_the_same_way(self):
        spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        hopf = build_hopf(2)
        # Through the JSON spec, as the benchmark reads it.
        dga = dga_from_json_dict(dga_to_json_dict(
            workloads.relabelled(hopf, random.Random("homology:7"))))
        out = destabilize(dga)
        assert _ids(out) == [g.id for g in dga.generators if g.weight == 1]
        for gid in _ids(out):
            want = {w: c for w, c in dga.diff[gid].terms.items() if len(w) > 1}
            assert out.diff[gid].terms == want

        def shape(x):
            return sorted((g.degree, float(g.length), len(x.diff[g.id].terms))
                          for g in x.generators)

        assert shape(out) == shape(destabilize(hopf))

    def test_e_inside_a_product_keeps_the_pair(self):
        gens = [("x", 0, 1, 1), ("e", 0, 2, 2), ("d", 1, 2, 2), ("g", 1, 3, 1)]
        dga = _spec(gens, {"d": {"e": 1}, "g": {"x e": 1}})
        assert destabilize(dga) is dga

    def test_d_inside_some_differential_keeps_the_pair(self):
        gens = BASE + [("h", 2, 2, 1)]
        dga = _spec(gens, {"d": {"e": 1}, "g": {"e": 1}, "h": {"d": 1, "g": -1}})
        assert destabilize(dga) is dga

    @pytest.mark.parametrize("d_row", [("d", 1, 3, 2), ("d", 1, 2, 1), ("d", 1, 2, 3)],
                             ids=["longer", "lighter", "heavier"])
    def test_unequal_length_or_weight_keeps_the_pair(self, d_row):
        gens = [row if row[0] != "d" else d_row for row in BASE]
        dga = _spec(gens, BASE_DIFF)
        assert destabilize(dga) is dga

    def test_heavier_g_keeps_the_pair(self):
        gens = [row if row[0] != "g" else ("g", 1, 2, 3) for row in BASE]
        dga = _spec(gens, BASE_DIFF)
        assert destabilize(dga) is dga

    def test_shorter_g_keeps_the_pair(self):
        # Validation would reject D(g) = e with g shorter than e; unvalidated,
        # the length condition is what keeps the pair.
        gens = [("x", 0, 1, 1), ("e", 0, 2, 2), ("d", 1, 2, 2), ("g", 1, 1, 1)]
        dga = _spec(gens, {"d": {"e": 1}, "g": {"e": 1}}, validate=False)
        assert destabilize(dga) is dga

    def test_two_ds_on_one_e_drop_one_pair_and_leave_the_other_dead(self):
        gens = [("x", 0, 1, 1), ("d2", 1, 3, 2), ("e", 0, 2, 2), ("d1", 1, 2, 2)]
        out = destabilize(_spec(gens, {"d1": {"e": 1}, "d2": {"e": -2}}))
        assert _ids(out) == ["x", "d2"]
        assert "d2" in out._dead


def _planted_spec(seed: int) -> DGA:
    """Degree-0 cycles x, planted pairs, letters g with a μ·e term, and h.

    Each planted pair is d -> λ·e of equal length and weight, with e of
    degree 0 (or 1, for the pair that h's differential hits).  Each g of
    degree 1 sends a combination of x-words plus μ·e; its twin g' sends the
    same, so D(h) = c·u·(g - g')·v + ν·E is a cycle for x-words u, v and a
    degree-1 planted E.  Weights never fall along D.  Half the specs add a
    pair s -> t whose t also sits inside a product, which must stay.
    """
    rng = random.Random(seed)

    def halves(lo: int, hi: int) -> Fraction:
        return Fraction(rng.randint(lo, hi), 2)

    rows: dict[str, tuple] = {}
    diff: dict[str, dict] = {}

    def add(gid, deg, ell, weight, img=None):
        rows[gid] = (gid, deg, ell, weight)
        if img:
            diff[gid] = img

    def length(word):
        return sum((rows[x][2] for x in word.split()), Fraction(0))

    def weight(word):
        return sum(rows[x][3] for x in word.split())

    xs = [f"x{k}" for k in range(rng.randint(2, 3))]
    for x in xs:
        add(x, 0, halves(2, 4), rng.randint(1, 2))
    pairs = []
    for k in range(rng.randint(1, 2)):
        ell, w = halves(2, 4), rng.randint(1, 3)
        add(f"e{k}", 0, ell, w)
        add(f"d{k}", 1, ell, w, {f"e{k}": rng.choice((1, -1, 2, Fraction(-1, 2)))})
        pairs.append(f"e{k}")
    add("E", 1, halves(3, 5), rng.randint(1, 2))
    add("D", 2, rows["E"][2], rows["E"][3], {"E": rng.choice((1, -3))})
    if rng.random() < 0.5:
        add("t", 0, Fraction(1), 1)
        add("s", 1, Fraction(1), 1, {"t": 1})
        add("y", 1, rows[xs[0]][2] + 1, 1, {f"{xs[0]} t": 1})
    twins = []
    for k in range(rng.randint(1, 2)):
        e = rng.choice(pairs)
        img = {" ".join(rng.choices(xs, k=rng.randint(1, 2))): rng.choice((1, -1, 2))
               for _ in range(rng.randint(1, 2))}
        img[e] = rng.choice((1, -1, Fraction(3, 2)))
        ell = max(map(length, img)) + halves(0, 1)
        w = min(map(weight, img))
        add(f"g{k}", 1, ell, w, img)
        add(f"g{k}'", 1, ell + halves(0, 1), max(1, w - rng.randint(0, 1)), dict(img))
        twins.append((f"g{k}", f"g{k}'"))
    g, g2 = rng.choice(twins)
    u, v = (" ".join(rng.choices(xs, k=rng.randint(0, 1))) for _ in range(2))
    c = rng.choice((1, -2))
    img = {" ".join(filter(None, (u, g, v))): c, " ".join(filter(None, (u, g2, v))): -c}
    img["E"] = rng.choice((1, -1))
    add("h", 2, max(map(length, img)) + halves(0, 1), min(map(weight, img)), img)
    return dga_from_json_dict(dga_to_json_dict(_spec(rows.values(), diff)))


# Bounds k/2 + 1/4 are never a sum of halves.
CASES = {
    "hopf2-9/2": (lambda: build_hopf(2), Fraction(9, 2)),
    "hopf2-11/2": (lambda: build_hopf(2), Fraction(11, 2)),
    "hopf2-13/2": (lambda: build_hopf(2), Fraction(13, 2)),
    "hopf3-11/2": (lambda: build_hopf(3), Fraction(11, 2)),
    "hopf3-13/2": (lambda: build_hopf(3), Fraction(13, 2)),
    "hopf2-del-11/2": (lambda: forget_F(build_hopf(2)), Fraction(11, 2)),
    **{
        f"planted-{seed}": (lambda s=seed: _planted_spec(s), Fraction(2 * (seed % 3) + 17, 4))
        for seed in range(8)
    },
}


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    build, a = CASES[request.param]
    return build(), LengthWindow(a)


def test_planted_pairs_drop(case):
    # Stabilization letters are named d*, e*, D and E, in hopf and planted specs alike.
    dga, _ = case
    kept = [gid for gid in _ids(dga) if not gid.startswith(("d", "e", "D", "E"))]
    assert _ids(destabilize(dga)) == kept


def test_dims_match_full_route(case):
    dga, window = case
    want = dga_oracle.homology_dims_all(dga, window)
    assert homology_dims_all(dga, window, want) == want


def test_h0_slices_match_full_route(case):
    dga, window = case
    bases = [dga_oracle.words_of_degree(dga, window, p) for p in (0, 1)]
    want = dga_oracle.h0_dims_by_wordcount(dga, *bases, 4)
    assert h0_dims_by_wordcount(dga, window, 4) == want


PAGE_CASES = {
    **{f"hopf{d}-{a}": (lambda d=d: build_hopf(d), Fraction(a))
       for d in (2, 3) for a in ("9/2", "11/2")},
    **{name: spec for name, spec in CASES.items() if name.startswith("planted")},
}


@pytest.mark.parametrize("name", sorted(PAGE_CASES))
def test_pages_match_full_complex(name):
    build, a = PAGE_CASES[name]
    dga, window = build(), LengthWindow(a)
    full, small = from_dga(dga, window), from_dga(destabilize(dga), window)
    assert len(small.cells) < len(full.cells)
    small_bars, full_bars = small.barcode(), full.barcode()
    for r in range(1, 5):
        assert page(small_bars, r).dims == page(full_bars, r).dims, r
    assert page(small_bars, math.inf).dims == page(full_bars, math.inf).dims


@pytest.mark.parametrize("command", [
    ["dga-homology", "--degree", "0"],
    ["specseq"],
])
def test_window_is_validated_on_the_full_dga(command, tmp_path, capsys):
    # Only d and e have length 7/3; every other sum of lengths is whole.
    gens = [("x", 0, 1, 1), ("e", 0, Fraction(7, 3), 2), ("d", 1, Fraction(7, 3), 2),
            ("g", 1, 3, 1)]
    dga = _spec(gens, {"d": {"e": 1}, "g": {"x x": 1, "e": -1}})
    LengthWindow(Fraction(7, 3)).ensure_valid(destabilize(dga))
    path = tmp_path / "spec.json"
    save_dga(dga, path)
    argv = command + ["--spec", str(path), "--a", "7/3", "--outdir", str(tmp_path)]
    assert cli.main(argv) == 2
    assert "invalid length window" in capsys.readouterr().err
