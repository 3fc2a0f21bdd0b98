"""Acceptance suite: one test per criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Runtime limits are asserted on CPU time (``time.process_time``) with wall
time printed alongside: the suite must stay meaningful on throttled CI
machines where wall time includes arbitrary scheduler stalls.

The d = 4 low-degree table is specified at window 8.5*d = 34, but 34 is a
realizable sum of generator lengths (integer sums of {1,2,3}), which the
window rule itself forbids; the table is computed at 34.5 instead, which
contains the same words in every degree involved.
"""

import time
from fractions import Fraction

import chord_oracle
import dga_oracle
import numpy as np
import pytest
from dga_oracle import word_weight
from page_oracle import associated_graded_homology, total_dims

from stringhom import chords, cord, free_dga, specseq


def _report(criterion: str, detail: str, wall: float | None = None, cpu: float | None = None):
    timing = ""
    if wall is not None:
        timing = f"  [wall {wall:.2f}s, cpu {cpu:.2f}s]"
    print(f"PASS  {criterion}: {detail}{timing}")


class _Timer:
    def __enter__(self):
        self.wall0 = time.perf_counter()
        self.cpu0 = time.process_time()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self.wall0
        self.cpu = time.process_time() - self.cpu0


# (builtin, d, z2star, length bound) of the three acceptance chord searches.
ACCEPTANCE_CHORD_CONFIGS = {
    "hopf2": ("hopf", 2, None, 3.5),
    "unlink": ("unlink", 2, 3.0, 4.0),
    "hopf3": ("hopf", 3, None, 3.5),
}


@pytest.fixture(scope="module")
def spectrum_runs():
    """The three acceptance chord searches, shared across criteria 7/9/10."""
    runs = {}
    for key, (name, d, z, bound) in ACCEPTANCE_CHORD_CONFIGS.items():
        manifold = chords.builtin_config(name, d, z)
        diagnostics = {}
        with _Timer() as t:
            results = chords.find_spectrum(
                manifold, chords.ChordConfig(length_bound=bound), diagnostics
            )
        runs[key] = (results, diagnostics, t)
    return runs


def test_criterion_01_dga_well_formedness():
    with _Timer() as t:
        for d in (2, 3, 4, 5):
            for dga in (free_dga.build_hopf(d), free_dga.build_unlink(d, 3)):
                ok, witness = free_dga.d_squared_zero_check(dga)
                assert ok, f"D^2 != 0 on {dga.name}: {witness}"
                for g in dga.generators:
                    img = dga.diff[g.id]
                    for w in img.terms:
                        assert dga.word_degree(w) == g.degree - 1
                        assert dga_oracle.word_length(dga, w) <= g.length
    assert t.cpu < 1.0
    _report(
        "criterion 1",
        "D^2 = 0, degree drop and length filtration hold for hopf(2..5) "
        "and unlink(2..5)",
        t.wall,
        t.cpu,
    )


def test_criterion_02_hopf2_degree0_slices():
    with _Timer() as t:
        dims = free_dga.h0_dims_by_wordcount(
            free_dga.build_hopf(2), free_dga.LengthWindow(Fraction(13, 2)), 4
        )
    assert dims == [1, 2, 2, 2, 2]
    assert t.cpu < 5.0
    _report("criterion 2", f"hopf(2) H_0 slices = {dims}", t.wall, t.cpu)


def test_criterion_03_unlink2_degree0_slices():
    with _Timer() as t:
        dims = free_dga.h0_dims_by_wordcount(
            free_dga.build_unlink(2, 3), free_dga.LengthWindow(Fraction(41, 2)), 4
        )
    assert dims == [1, 2, 4, 8, 16]
    assert t.cpu < 5.0
    _report("criterion 3", f"unlink(2,3) H_0 slices = {dims}", t.wall, t.cpu)


@pytest.mark.parametrize("d", [3, 4])
def test_criterion_04_low_degree_table(d):
    a = Fraction(17, 2) * d
    hopf = free_dga.build_hopf(d)
    try:
        window = free_dga.LengthWindow(a)
        window.ensure_valid(hopf)
        note = f"a = {a}"
    except free_dga.WindowCollision:
        window = free_dga.LengthWindow(a + Fraction(1, 2))
        note = f"a = {a} collides with the length spectrum; used {a + Fraction(1, 2)}"
    unlink = free_dga.build_unlink(d, 3)
    with _Timer() as t:
        low = {p: free_dga.homology_dims_all(hopf, window, [p])[p] for p in range(0, 2 * d - 4)}
        expected = {p: (1 if p == 0 else 2 if p == d - 2 else 0) for p in low}
        assert low == expected
        disc_hopf = free_dga.homology_dims_all(hopf, window, [2 * d - 4])[2 * d - 4]
        disc_unlink = free_dga.homology_dims_all(unlink, window, [2 * d - 4])[2 * d - 4]
    assert disc_hopf == 2
    assert disc_unlink == 4
    assert t.cpu < 60.0
    _report(
        "criterion 4",
        f"d={d}: low degrees {low}, discriminator {disc_hopf} vs {disc_unlink} ({note})",
        t.wall,
        t.cpu,
    )


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("a", [Fraction(9, 2), Fraction(13, 2)])
def test_criterion_05_stabilization(d, a):
    dga = free_dga.forget_F(free_dga.build_hopf(d))
    window = free_dga.LengthWindow(a)
    with _Timer() as t:
        dims = free_dga.homology_dims_all(dga, window, dga_oracle.word_counts_all(dga, window))
        counts = dga_oracle.chord_word_counts_all(dga, window)
    degrees = sorted(set(dims) | set(counts))
    for p in degrees:
        assert dims.get(p, 0) == counts.get(p, 0), f"degree {p}"
    _report(
        "criterion 5",
        f"d={d}, a={a}: homology of the stabilization-only differential counts "
        f"chord words in degrees {degrees[0]}..{degrees[-1]}",
        t.wall,
        t.cpu,
    )


def test_criterion_06_spectral_sequence():
    dga = free_dga.build_hopf(2)
    window = free_dga.LengthWindow(Fraction(9, 2))
    with _Timer() as t:
        fc = specseq.from_dga(dga, window)
        e1 = specseq.page(fc.barcode(), 1)
        graded = associated_graded_homology(fc)
        assert {k: v for k, v in e1.dims.items() if v} == graded
        totals, hom = total_dims(specseq.pages(fc.barcode(), 1)[-1]), fc.homology_dims()
        assert all(totals.get(n, 0) == hom.get(n, 0) for n in set(totals) | set(hom))

        stripped = free_dga.forget_F(dga)
        fc2 = specseq.from_dga(stripped, window)
        e2 = specseq.page(fc2.barcode(), 2)
        words = free_dga._enumerate_words(dga, window)
        chord_counts: dict = {}
        for w in words:
            if all(dga.gen(g).weight == 1 for g in w):
                key = (-word_weight(dga, w), dga.word_degree(w) + word_weight(dga, w))
                chord_counts[key] = chord_counts.get(key, 0) + 1
        assert {k: v for k, v in e2.dims.items() if v} == chord_counts
    _report(
        "criterion 6",
        "E1 = associated graded homology, E-infinity sums to homology, and the "
        "stabilization-only E2 is supported exactly on chord words",
        t.wall,
        t.cpu,
    )


CHORD_TARGETS = {
    "hopf2": [1.0, 2.0, 3.0],
    "unlink": [2.0, 3.0, 13**0.5],
    "hopf3": [1.0, 2.0, 3.0],
}

# The (source, target) component pair reported for each target length.
CHORD_PAIRS = {
    "hopf2": [(0, 1), (0, 0), (0, 1)],
    "unlink": [(0, 0), (0, 1), (0, 1)],
    "hopf3": [(0, 1), (1, 1), (0, 1)],
}


def test_criterion_07_chord_spectra(spectrum_runs):
    for key, target in CHORD_TARGETS.items():
        results, diagnostics, t = spectrum_runs[key]
        lengths = [r.length for r in results]
        assert len(lengths) == len(target), f"{key}: {lengths}"
        for got, want in zip(lengths, target):
            assert abs(got - want) < 1e-6, f"{key}: {got} vs {want}"
        pairs = [(r.comp_source, r.comp_target) for r in results]
        assert pairs == CHORD_PAIRS[key], f"{key}: {pairs}"
        assert all(r.residual < 1e-8 for r in results)
        assert t.cpu < 30.0
        _report(
            "criterion 7",
            f"{key}: lengths {[round(x, 7) for x in lengths]}, "
            f"max residual {max(r.residual for r in results):.1e}",
            t.wall,
            t.cpu,
        )


def test_criterion_08_gradient_finite_differences():
    from test_chords import _fd_gradient_error

    K2 = chords.builtin_config("hopf", 2)
    K3 = chords.builtin_config("hopf", 3)
    rng = np.random.default_rng(17)
    with _Timer() as t:
        worst = 0.0
        for trial in range(100):
            K = K2 if trial % 2 == 0 else K3
            i, j = rng.integers(0, 2, size=2)
            u0 = rng.standard_normal(K.components[i].param_dim)
            u0 /= np.linalg.norm(u0)
            u1 = rng.standard_normal(K.components[j].param_dim)
            u1 /= np.linalg.norm(u1)
            path = chord_oracle.straight_path(K, int(i), int(j), u0, u1, 6)
            path.points[1:-1] += 0.15 * rng.standard_normal(path.points[1:-1].shape)
            for r in (1e-2, 1e-6):
                err = _fd_gradient_error(path, r)
                worst = max(worst, err)
                assert err < 1e-5
    _report(
        "criterion 8",
        f"analytic gradient vs central differences on 100 random paths, "
        f"worst relative error {worst:.1e}",
        t.wall,
        t.cpu,
    )


def test_criterion_09_flow_monotonicity(spectrum_runs):
    from chord_oracle import R_SCHEDULE, _batch_lr, descend, descent_search

    # Batched descents on the acceptance configurations: every stage ends
    # with each row's L_r and largest smoothed segment no larger than at its
    # start, and each chord the descended seeds polish to is in the spectrum.
    stages_checked = 0
    for key, (name, d, z, bound) in ACCEPTANCE_CHORD_CONFIGS.items():
        manifold = chords.builtin_config(name, d, z)
        cfg = chords.ChordConfig(length_bound=bound)
        lengths, stages = descent_search(manifold, cfg)
        for r, before, after in stages:
            lr0, f0, _, _ = _batch_lr(before, r)
            lr1, f1, _, _ = _batch_lr(after, r)
            assert np.all(lr1 <= lr0), (key, r)
            assert np.all(f1 <= f0), (key, r)
        stages_checked += len(stages)
        assert lengths, key
        reported = np.array([res.length for res in spectrum_runs[key][0]])
        for length in lengths:
            assert np.min(np.abs(reported - length)) < 1e-7, (key, length)
    # Direct trace check on explicit descents.
    K = chords.builtin_config("hopf", 2)
    rng = np.random.default_rng(23)
    for _ in range(5):
        u0 = rng.standard_normal(2)
        u0 /= np.linalg.norm(u0)
        u1 = rng.standard_normal(2)
        u1 /= np.linalg.norm(u1)
        path = chord_oracle.straight_path(K, 0, 1, u0, u1, 16)
        path.points[1:-1] += 0.1 * rng.standard_normal(path.points[1:-1].shape)
        history = []
        out = path
        for r in R_SCHEDULE[:4]:
            history_r: list = []
            out = descend(out, r, history=history_r)
            values = [v for v, _ in history_r]
            maxes = [f for _, f in history_r]
            assert all(b <= a for a, b in zip(values, values[1:]))
            assert all(b <= a for a, b in zip(maxes, maxes[1:]))
            history.extend(history_r)
        assert history
    _report(
        "criterion 9",
        "L_r and the max smoothed segment are nonincreasing along every "
        f"accepted step and across all {stages_checked} batched descent stages; "
        "every chord found by descent is in the Gauss-Newton spectrum",
    )


def test_criterion_10_refinement_stability(spectrum_runs):
    # The search has no polygon; refinement applies to the L_r flow, whose
    # 32-segment descents must reach every spectrum length and no other.
    base = np.array([r.length for r in spectrum_runs["hopf2"][0]])
    with _Timer() as t:
        fine, _ = chord_oracle.descent_search(
            chords.builtin_config("hopf", 2), chords.ChordConfig(length_bound=3.5), nu=32
        )
    fine = np.array(fine)
    assert len(fine) and len(base)
    missed = [float(np.min(np.abs(fine - b))) for b in base]
    strays = [float(np.min(np.abs(base - f))) for f in fine]
    assert max(missed) < 1e-6 and max(strays) < 1e-6
    _report(
        "criterion 10",
        f"nu = 32 descents reach all {len(base)} spectrum lengths within "
        f"{max(missed):.1e} and find none outside (worst {max(strays):.1e})",
        t.wall,
        t.cpu,
    )


def test_criterion_11_cord_cross_check():
    with _Timer() as t:
        ok_hopf, _ = cord.compare_with_h0(
            cord.quotient_dims_by_wordcount(cord.builtin_presentation("hopf_link", 2), 4),
            free_dga.build_hopf(2),
            free_dga.LengthWindow(Fraction(13, 2)),
        )
        ok_unlink, _ = cord.compare_with_h0(
            cord.quotient_dims_by_wordcount(cord.builtin_presentation("unlink2", 2), 4),
            free_dga.build_unlink(2, 3),
            free_dga.LengthWindow(Fraction(41, 2)),
        )
        unknot_dims = cord.quotient_dims_by_wordcount(
            cord.builtin_presentation("unknot", 2), 3
        )
        stable = all(
            cord.truncation_stable(
                name, 2, cord.quotient_dims_by_wordcount(cord.builtin_presentation(name, 2), wmax)
            )
            for name, wmax in (("unknot", 3), ("hopf_link", 4), ("unlink2", 4))
        )
    assert ok_hopf and ok_unlink
    assert unknot_dims == [1, 0, 0, 0]
    assert stable
    _report(
        "criterion 11",
        "cord algebras match degree-0 homology for the linked and spaced "
        "pairs, the unknot collapses to scalars, and all dims are stable "
        "under kmax -> kmax + 2",
        t.wall,
        t.cpu,
    )


def test_criterion_12_scale_note():
    # The limit objects (all window bounds at once, chain-level data) are
    # not finitely computable; acceptance rests on the finite algebra
    # homology, the chord/length consistency, and the degree-0 cross-check
    # exercised above.
    _report(
        "criterion 12",
        "scale note acknowledged: finite windows, finite truncations, "
        "numerical chords; no claim about the limit objects",
    )
