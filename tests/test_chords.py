import functools
import operator
import random
from itertools import combinations_with_replacement

import numpy as np
import pytest

from chord_oracle import (
    R_SCHEDULE,
    BrokenPath,
    DegenerateSegment,
    binormality_residual,
    copy_with_points,
    descend,
    l_r_gradient,
    l_r_value,
    polygonal_length,
    refine,
    straight_path,
)
from stringhom.chords import (
    _count_distinct,
    ChordConfig,
    Component,
    ParameterOutOfRange,
    ParamSubmanifold,
    builtin_config,
    chord_sum_spectrum,
    find_spectrum,
    single_sphere,
)


QUICK = ChordConfig(length_bound=3.5, seeds_per_circle=10, seeds_per_sphere=14)


class TestBuiltinConfigs:
    def test_hopf2_unit_circles(self):
        K = builtin_config("hopf", 2)
        assert K.ambient_dim == 3
        c0, c1 = K.components
        # First circle in the xy-plane around the origin.
        assert np.allclose(c0.embed(np.array([1.0, 0.0])), [1, 0, 0])
        assert np.allclose(c0.embed(np.array([0.0, 1.0])), [0, 1, 0])
        # Second circle in the yz-plane around (0, 1, 0).
        assert np.allclose(c1.embed(np.array([0.0, 1.0])), [0, 1, 1])
        assert np.allclose(c1.embed(np.array([-1.0, 0.0])), [0, 0, 0])

    def test_unlink_parallel_offset(self):
        K = builtin_config("unlink", 2, 3)
        c0, c1 = K.components
        u = np.array([0.6, 0.8])
        assert np.allclose(c1.embed(u) - c0.embed(u), [0, 0, 3])

    def test_hopf3_spheres_in_r5(self):
        K = builtin_config("hopf", 3)
        assert K.ambient_dim == 5
        assert all(c.param_dim == 3 for c in K.components)

    def test_unlink_spacing_required(self):
        with pytest.raises(ParameterOutOfRange):
            builtin_config("unlink", 2, 1.5)
        with pytest.raises(ParameterOutOfRange):
            builtin_config("unlink", 2)

    def test_tangent_frames_orthonormal(self):
        K = builtin_config("hopf", 3)
        rng = np.random.default_rng(3)
        u = rng.standard_normal((20, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        frames = K.components[0].tangent_frame(u)
        gram = np.einsum("snj,snk->sjk", frames, frames)
        assert np.allclose(gram, np.eye(2), atol=1e-12)
        points = K.components[0].embed(u)
        # Tangents are perpendicular to the sphere radius through the point.
        radii = points - K.components[0].offset
        assert np.allclose(np.einsum("sn,snj->sj", radii, frames), 0, atol=1e-12)


def _two_segment_path():
    K = builtin_config("hopf", 2)
    return straight_path(K, 0, 1, np.array([0.0, 1.0]), np.array([1.0, 0.0]), 2)


class TestLrValue:
    def test_limit_of_small_r(self):
        path = _two_segment_path()
        total = polygonal_length(path)
        assert abs(l_r_value(path, 1e-14) - total) < 1e-6

    def test_all_points_equal(self):
        K = builtin_config("hopf", 2)
        u = np.array([1.0, 0.0])
        pts = np.tile(K.components[0].embed(u), (5, 1))
        path = BrokenPath(K, 0, 0, u, u, pts)
        assert l_r_value(path, 0.01) == pytest.approx(0.4)

    def test_positive_r_required(self):
        with pytest.raises(ParameterOutOfRange):
            l_r_value(_two_segment_path(), 0.0)


class TestGradient:
    def test_collinear_interior_zero(self):
        K = builtin_config("hopf", 2)
        path = straight_path(K, 0, 1, np.array([0.0, 1.0]), np.array([1.0, 0.0]), 4)
        g_int, gu0, gu1 = l_r_gradient(path, 1e-9)
        assert np.allclose(g_int, 0, atol=1e-6)
        # Endpoint gradients are the tangential parts of the unit directions.
        assert np.linalg.norm(gu0) <= 1.0 + 1e-9
        assert np.linalg.norm(gu1) <= 1.0 + 1e-9

    def test_diameter_is_critical(self):
        K = single_sphere(2)
        path = straight_path(K, 0, 0, np.array([1.0, 0.0]), np.array([-1.0, 0.0]), 2)
        g_int, gu0, gu1 = l_r_gradient(path, 1e-12)
        assert np.linalg.norm(g_int) < 1e-9
        assert np.linalg.norm(gu0) < 1e-9
        assert np.linalg.norm(gu1) < 1e-9

    @pytest.mark.parametrize("r", [1e-2, 1e-6])
    def test_finite_differences(self, r):
        # Central differences with step 1e-6 on every free coordinate.
        K = builtin_config("hopf", 2)
        rng = np.random.default_rng(11)
        for _ in range(10):
            u0 = rng.standard_normal(2)
            u0 /= np.linalg.norm(u0)
            u1 = rng.standard_normal(2)
            u1 /= np.linalg.norm(u1)
            path = straight_path(K, 0, 1, u0, u1, 6)
            path.points[1:-1] += 0.1 * rng.standard_normal(path.points[1:-1].shape)
            assert _fd_gradient_error(path, r) < 1e-5


def _fd_gradient_error(path, r, h=1e-6):
    g_int, gu0, gu1 = l_r_gradient(path, r)
    K = path.manifold
    analytic = [g_int.ravel()]
    numeric = []
    for l in range(1, path.nu):
        for c in range(path.points.shape[1]):
            plus = path.points.copy()
            plus[l, c] += h
            minus = path.points.copy()
            minus[l, c] -= h
            numeric.append(
                (
                    l_r_value(copy_with_points(path, plus), r)
                    - l_r_value(copy_with_points(path, minus), r)
                )
                / (2 * h)
            )
    for which, u, comp, frame_u in (
        (0, path.u0, path.comp0, None),
        (1, path.u1, path.comp1, None),
    ):
        from stringhom.chords import _perp_frame

        frame = _perp_frame(u[None, :])[0]
        grads = gu0 if which == 0 else gu1
        analytic.append(frame.T @ grads)
        for t in range(frame.shape[1]):
            def value(sign):
                shifted = u + sign * h * frame[:, t]
                shifted = shifted / np.linalg.norm(shifted)
                pts = path.points.copy()
                comp_obj = K.components[comp]
                if which == 0:
                    pts[0] = comp_obj.embed(shifted)
                    return l_r_value(
                        BrokenPath(K, path.comp0, path.comp1, shifted, path.u1, pts), r
                    )
                pts[-1] = comp_obj.embed(shifted)
                return l_r_value(
                    BrokenPath(K, path.comp0, path.comp1, path.u0, shifted, pts), r
                )

            numeric.append((value(1.0) - value(-1.0)) / (2 * h))
    analytic_vec = np.concatenate(analytic)
    numeric_vec = np.asarray(numeric)
    scale = max(np.linalg.norm(analytic_vec), 1e-12)
    return np.linalg.norm(analytic_vec - numeric_vec) / scale


class TestDescent:
    def test_perturbed_seed_reaches_short_chord(self):
        K = builtin_config("hopf", 2)
        rng = np.random.default_rng(5)
        u0 = np.array([np.cos(0.3 + np.pi / 2), np.sin(0.3 + np.pi / 2)])
        u1 = np.array([np.cos(-0.2 - np.pi / 2), np.sin(-0.2 - np.pi / 2)])
        path = straight_path(K, 0, 1, u0, u1, 8)
        path.points[1:-1] += 0.05 * rng.standard_normal(path.points[1:-1].shape)
        out = path
        history = []
        for r in R_SCHEDULE:
            out = descend(out, r, grad_tol=1e-8, history=history)
        assert abs(polygonal_length(out) - 1.0) < 1e-3
        values = [v for v, _ in history]
        maxes = [f for _, f in history]
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert all(b <= a + 1e-15 for a, b in zip(maxes, maxes[1:]))

    def test_critical_seed_fixed(self):
        K = single_sphere(2)
        path = straight_path(K, 0, 0, np.array([1.0, 0.0]), np.array([-1.0, 0.0]), 4)
        out = descend(path, 1e-8)
        assert np.allclose(out.points, path.points, atol=1e-9)
        assert out.converged

    def test_positive_r_required(self):
        with pytest.raises(ParameterOutOfRange):
            descend(_two_segment_path(), 0.0)


class TestRefine:
    def test_single_segment(self):
        path = _two_segment_path()
        doubled = refine(path)
        assert doubled.nu == 2 * path.nu
        assert np.allclose(doubled.points[0::2], path.points)

    def test_length_preserved(self):
        path = _two_segment_path()
        assert polygonal_length(refine(path)) == pytest.approx(
            polygonal_length(path), abs=1e-12
        )

    def test_double_refine(self):
        path = _two_segment_path()
        assert refine(refine(path)).nu == 4 * path.nu


class TestBinormality:
    def test_exact_diameter(self):
        K = single_sphere(2)
        path = straight_path(K, 0, 0, np.array([1.0, 0.0]), np.array([-1.0, 0.0]), 2)
        assert binormality_residual(path) < 1e-12

    def test_short_cross_chord(self):
        # The segment from (0,1,0) on the first circle to the origin on the
        # second is perpendicular to both tangent lines.
        K = builtin_config("hopf", 2)
        path = straight_path(K, 0, 1, np.array([0.0, 1.0]), np.array([-1.0, 0.0]), 2)
        assert binormality_residual(path) < 1e-12

    def test_perturbed_diameter_positive_and_decreasing(self):
        # A diameter is a saddle of the length functional, so a long descent
        # eventually escapes it; over a short run the flow first equalizes
        # the broken segments and the criticality defect drops.
        K = single_sphere(2)
        path = straight_path(K, 0, 0, np.array([1.0, 0.0]), np.array([-1.0, 0.0]), 4)
        rng = np.random.default_rng(2)
        path.points[1:-1] += 0.08 * rng.standard_normal(path.points[1:-1].shape)
        before = binormality_residual(path)
        assert before > 1e-3
        out = descend(path, 1e-6, grad_tol=1e-12, max_iter_per_stage=1)
        after = binormality_residual(out)
        assert 0 < after < before

    def test_degenerate_rejected(self):
        K = builtin_config("hopf", 2)
        u = np.array([1.0, 0.0])
        pts = np.tile(K.components[0].embed(u), (3, 1))
        path = BrokenPath(K, 0, 0, u, u, pts)
        with pytest.raises(DegenerateSegment):
            binormality_residual(path)


def test_sigma_r_slope_times_sqrt_increasing():
    # sigma_r'(z) sqrt(z) must be strictly increasing in z; this is what
    # forces equal segment lengths at critical points.
    r = 0.37
    z = np.linspace(0.0, 5.0, 400)
    tau = np.sqrt(z) / (2.0 * np.sqrt(z + r))
    assert np.all(np.diff(tau) > 0)


def grid_oracle_lengths(K, n=720, tol=0.02):
    """Brute-force chord oracle for circle pairs: no descent, no solver.

    Scans a dense (theta0, theta1) grid over every ordered component pair,
    keeps the grid points where the chord direction is perpendicular to both
    tangent lines up to ``tol``, and clusters the surviving lengths.  Grid
    resolution bounds the accuracy; used to confirm the frozen spectrum
    targets by an independent route.
    """
    th = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    circle = np.stack([np.cos(th), np.sin(th)], axis=1)
    tangent = np.stack([-np.sin(th), np.cos(th)], axis=1)
    lengths = []
    for i, ci in enumerate(K.components):
        for j, cj in enumerate(K.components):
            p0 = circle @ ci.matrix.T + ci.offset
            p1 = circle @ cj.matrix.T + cj.offset
            t0 = tangent @ ci.matrix.T
            t1 = tangent @ cj.matrix.T
            chord = p1[None, :, :] - p0[:, None, :]
            dist = np.linalg.norm(chord, axis=2)
            ok = dist > 0.05
            safe = np.where(ok, dist, 1.0)
            perp0 = np.abs(np.einsum("abk,ak->ab", chord, t0)) / safe
            perp1 = np.abs(np.einsum("abk,bk->ab", chord, t1)) / safe
            mask = ok & (perp0 < tol) & (perp1 < tol)
            lengths.extend(dist[mask].tolist())
    lengths.sort()
    clusters = []
    for value in lengths:
        if not clusters or value - clusters[-1][-1] > 0.05:
            clusters.append([value])
        else:
            clusters[-1].append(value)
    return [float(np.median(c)) for c in clusters]


class TestGridOracle:
    """Independent confirmation of the frozen spectrum constants."""

    def test_hopf2_targets(self):
        got = grid_oracle_lengths(builtin_config("hopf", 2))
        assert len(got) == 3
        assert np.allclose(got, [1.0, 2.0, 3.0], atol=0.02)

    def test_unlink_targets(self):
        got = grid_oracle_lengths(builtin_config("unlink", 2, 3))
        assert len(got) == 3
        assert np.allclose(got, [2.0, 3.0, 13**0.5], atol=0.02)

    def test_single_circle_target(self):
        got = grid_oracle_lengths(single_sphere(2))
        assert len(got) == 1
        assert abs(got[0] - 2.0) < 0.02

    def test_solver_agrees_with_oracle(self):
        K = builtin_config("hopf", 2)
        oracle = grid_oracle_lengths(K)
        solved = [r.length for r in find_spectrum(K, QUICK)]
        assert len(oracle) == len(solved)
        assert np.allclose(oracle, solved, atol=0.02)


class TestSpectrum:
    def test_single_circle_diameters(self):
        res = find_spectrum(single_sphere(2), QUICK)
        assert [round(r.length, 9) for r in res] == [2.0]

    def test_component_swap_symmetric(self):
        K = builtin_config("hopf", 2)
        swapped = ParamSubmanifold(list(reversed(K.components)))
        a = [r.length for r in find_spectrum(K, QUICK)]
        b = [r.length for r in find_spectrum(swapped, QUICK)]
        assert np.allclose(a, b, atol=1e-9)

    def test_results_sorted_with_multiplicity(self):
        res = find_spectrum(builtin_config("hopf", 2), QUICK)
        lengths = [r.length for r in res]
        assert lengths == sorted(lengths)
        assert all(r.multiplicity >= 1 for r in res)


class TestSumSpectrum:
    def test_pairs(self):
        assert chord_sum_spectrum([1, 2, 3], 2, 5) == [2, 3, 4]

    def test_m1_is_window_filter(self):
        assert chord_sum_spectrum([1, 2, 3], 1, 2.5) == [1, 2]

    def test_triple(self):
        assert chord_sum_spectrum([2], 3, 10) == [6]

    def test_parameter_validation(self):
        with pytest.raises(ParameterOutOfRange):
            chord_sum_spectrum([1], 0, 5)
        with pytest.raises(ParameterOutOfRange):
            chord_sum_spectrum([1], 1, 0)
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ParameterOutOfRange, match="chord lengths must be positive"):
                chord_sum_spectrum([1.0, bad], 2, 5)

    @staticmethod
    def _enumerated(lengths, m, a, tol=1e-7):
        """Every multiset of m sorted lengths, summed left to right, then filtered."""
        sums = sorted(
            s
            for combo in combinations_with_replacement(sorted(lengths), m)
            if (s := float(functools.reduce(operator.add, combo, 0))) < a
        )
        out = []
        for s in sums:
            if not out or s - out[-1] > tol:
                out.append(s)
        return out

    @pytest.mark.parametrize("seed", range(20))
    def test_walk_equals_full_enumeration(self, seed):
        rng = random.Random(seed)
        for _ in range(30):
            lengths = [rng.uniform(1e-3, 3.0) for _ in range(rng.randint(0, 6))]
            lengths += rng.sample(lengths, min(2, len(lengths)))  # repeated lengths
            m, a = rng.randint(1, 6), rng.uniform(0.01, 12.0)
            got = chord_sum_spectrum(lengths, m, a)
            assert got == self._enumerated(lengths, m, a), (lengths, m, a)
            assert all(type(s) is float for s in got)

    def test_huge_m_runs_at_once(self):
        # Every branch stops within four terms: four lengths of 1.0 reach a = 3.5.
        assert chord_sum_spectrum([1.0, 2.0, 3.0], 100_000, 3.5) == []
        # One branch 2,000 terms deep, summed in the same order as the enumeration.
        assert chord_sum_spectrum([1e-3], 2_000, 3.5) == [functools.reduce(operator.add,
                                                                           [1e-3] * 2_000)]


def _count_distinct_loop(keys, tol):
    """Pairwise greedy loop: one max-norm test per (key, representative)."""
    reps = []
    for key in keys:
        for rkey in reps:
            if len(rkey) == len(key) and np.max(np.abs(key - rkey)) < tol:
                break
        else:
            reps.append(key)
    return len(reps)


@pytest.mark.parametrize("seed", range(8))
def test_count_distinct_matches_pairwise_loop(seed):
    rng = np.random.default_rng(seed)
    tol = 1e-3
    # Key lengths 4, 5, 6: circle/circle, circle/sphere, sphere/sphere pairs.
    # Centres per length, from a few to about a hundred representatives,
    # jittered so that some neighbours lie within tol of each other and
    # some do not.
    centres = [rng.normal(size=dim) for dim in (4, 5, 6) for _ in range(3 + 30 * (seed % 4))]
    keys = [
        centres[k] + rng.uniform(-0.6, 0.6, size=len(centres[k])) * tol
        for k in rng.integers(0, len(centres), size=4 * len(centres))
    ]
    count = _count_distinct(keys, tol)
    assert count == _count_distinct_loop(keys, tol)
    assert 1 < count < len(keys)


def test_count_distinct_never_matches_across_key_lengths():
    keys = [np.zeros(4), np.zeros(5), np.zeros(4), np.zeros(5) + 1.0]
    assert _count_distinct(keys, 1e-3) == 3


def test_count_distinct_beyond_one_block():
    keys = [np.full(4, float(k)) for k in range(200)]
    assert _count_distinct(keys + [k + 1e-4 for k in keys], 1e-3) == 200
