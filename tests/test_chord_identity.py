"""The chord search reproduces its earlier form, stopped at each seed's floor.

``chord_oracle`` keeps verbatim copies of the Gauss-Newton solver and of the
multiplicity count from before the search reused its endpoint frames and
bucketed its representatives.  The solver now also stops a seed at its
solver floor: the first step at which its residual norm is below
``GRAD_TOL`` and did not fall to half of the previous step's.  So every row
the solver returns must equal, bit for bit, the oracle's row after the step
at which the oracle stops it (dead, below 1e-14 or out of steps) or the
floor rule fires, whichever comes first; and every row that the floor rule
stopped early must sit below ``GRAD_TOL``.  The reported lengths and
component pairs stay those of the oracle's full solve: the reported pair of
a length carried by several self pairs follows last-ulp differences between
Gauss-Newton results.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chord_oracle
from stringhom import chords


def _random_link(d: int, seed: int) -> chords.ParamSubmanifold:
    """Two unit (d-1)-spheres with random orthonormal frames and offsets."""
    rng = np.random.default_rng(seed)
    n = 2 * d - 1
    comps = []
    for c in range(2):
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        comps.append(chords.Component(q[:, :d], 1.5 * rng.standard_normal(n), f"R{c}"))
    return chords.ParamSubmanifold(comps)


MANIFOLDS = {
    "hopf2": lambda: chords.builtin_config("hopf", 2),
    "unlink2": lambda: chords.builtin_config("unlink", 2, 3.0),
    "hopf3": lambda: chords.builtin_config("hopf", 3),
    "single2": lambda: chords.single_sphere(2),
    "single3": lambda: chords.single_sphere(3),
    "random4": lambda: _random_link(4, 5),
}

# (manifold, length bound): bounds drawn as the benchmark draws them, the
# acceptance searches of criteria 7 and 9, and unbounded searches.
CASES = {
    "bench_hopf2": ("hopf2", 3.77),
    "bench_unlink2": ("unlink2", 4.55),
    "bench_hopf3": ("hopf3", 3.21),
    "acceptance_hopf2": ("hopf2", 3.5),
    "acceptance_unlink2": ("unlink2", 4.0),
    "acceptance_hopf3": ("hopf3", 3.5),
    "single2": ("single2", None),
    "single3": ("single3", None),
    "random4": ("random4", None),
}


def _oracle_states(manifold, i, j, u0, u1):
    """The oracle's (u0, u1, residual norm, alive) after 0..GN_ITERATIONS steps.

    Each step restarts the oracle for one step from the last state.  Its
    only other state is which seeds are frozen, and it recomputes that from
    the endpoints: a dead seed stays dead and a seed below 1e-14 stays
    below, where they were frozen.
    """
    states = [chord_oracle._gauss_newton(manifold, i, j, u0, u1, 0)]
    for _ in range(chords.GN_ITERATIONS):
        states.append(chord_oracle._gauss_newton(manifold, i, j, *states[-1][:2], 1))
    return [np.stack(field) for field in zip(*states)]


def _expected_stop(resnorm, alive):
    """Per seed, the step after which the solver should return it.

    ``resnorm`` and ``alive`` hold the oracle's rows for steps
    0..GN_ITERATIONS.  The oracle stops a seed at the first step where it is
    dead or at most 1e-14, else after the last step; the floor rule fires at
    the first step t >= 1 where its residual norm is below ``GRAD_TOL`` and
    above half of step t - 1's.
    """
    hit = ~alive | (resnorm <= 1e-14)
    hit[1:] |= (resnorm[1:] < chords.GRAD_TOL) & (resnorm[1:] > 0.5 * resnorm[:-1])
    return np.where(hit.any(axis=0), hit.argmax(axis=0), len(resnorm) - 1)


@pytest.fixture(scope="module")
def solves():
    """Per manifold: (pair, seeds, solver result, oracle states) per solved pair."""
    cache = {}

    def get(name):
        if name not in cache:
            manifold = MANIFOLDS[name]()
            cfg = chords.ChordConfig()
            ncomp = len(manifold.components)
            cache[name] = []
            for i in range(ncomp):
                for j in range(i, ncomp):
                    u0, u1 = chords._seed_grid(manifold, i, j, cfg)
                    got = chords._gauss_newton(manifold, i, j, u0, u1, chords.GN_ITERATIONS)
                    states = _oracle_states(manifold, i, j, u0, u1)
                    full = chord_oracle._gauss_newton(
                        manifold, i, j, u0, u1, chords.GN_ITERATIONS
                    )
                    for a, b in zip(full, states):
                        assert np.array_equal(a, b[-1], equal_nan=True), (name, i, j)
                    cache[name].append(((i, j), (u0, u1), got, states))
        return cache[name]

    return get


@pytest.mark.parametrize("case", sorted(CASES))
def test_search_is_bit_identical(case, solves, monkeypatch):
    # (a) Each solver row is the oracle's row after the step at which the
    # oracle stops it or the floor rule fires, whichever comes first: u0,
    # u1, residual norm and alive flag, every bit.
    name, bound = CASES[case]
    runs = solves(name)
    for pair, _, got, states in runs:
        stop = _expected_stop(states[2], states[3])
        rows = np.arange(len(stop))
        for field, (a, b) in enumerate(zip(got, states)):
            assert a.dtype == b.dtype, (pair, field)
            assert np.array_equal(a, b[stop, rows], equal_nan=True), (pair, field)
    # The search solves each pair i <= j once, from its seed grid, for
    # GN_ITERATIONS steps.
    manifold, cfg = MANIFOLDS[name](), chords.ChordConfig(length_bound=bound)
    calls, solve = [], chords._gauss_newton

    def recording(manifold, i, j, u0, u1, iterations):
        calls.append(((i, j), u0, u1, iterations))
        return solve(manifold, i, j, u0, u1, iterations)

    with monkeypatch.context() as m:
        m.setattr(chords, "_gauss_newton", recording)
        got = chords.find_spectrum(manifold, cfg)
    assert [c[0] for c in calls] == [run[0] for run in runs]
    for (_, u0, u1, iterations), (pair, seeds, _, _) in zip(calls, runs):
        assert np.array_equal(u0, seeds[0]) and np.array_equal(u1, seeds[1]), pair
        assert iterations == chords.GN_ITERATIONS, pair
    # The reported lengths and pairs are those of the oracle's full solve.
    with monkeypatch.context() as m:
        m.setattr(chords, "_gauss_newton", chord_oracle._gauss_newton)
        want = chords.find_spectrum(manifold, cfg)
    assert got, case
    assert [(r.length, r.comp_source, r.comp_target) for r in got] == [
        (r.length, r.comp_source, r.comp_target) for r in want
    ]
    # The multiplicity is the oracle's count of the same candidate keys.
    with monkeypatch.context() as m:
        m.setattr(chords, "_count_distinct", chord_oracle._count_distinct)
        counted = chords.find_spectrum(manifold, cfg)
    assert [r.multiplicity for r in got] == [r.multiplicity for r in counted]


@pytest.mark.parametrize("name", sorted(MANIFOLDS))
def test_floor_stops_sit_below_grad_tol(name, solves):
    # (b) A row that the solver stopped before the oracle did was stopped
    # by the floor rule: it must already count as converged.
    early = 0
    for pair, _, (_, _, resnorm, alive), states in solves(name):
        final = states[2][-1]
        stopped = ~((resnorm == final) | (np.isnan(resnorm) & np.isnan(final)))
        assert np.all(resnorm[stopped] < chords.GRAD_TOL), (pair, resnorm[stopped].max())
        assert np.all(alive[stopped]), pair
        early += int(np.sum(stopped))
    if name.startswith(("hopf", "unlink")):
        assert early, name


@pytest.mark.parametrize("case", [c for c in sorted(CASES) if c.startswith(("bench", "accept"))])
def test_residual_is_the_solves(case):
    # A length reports the largest Gauss-Newton residual norm among its
    # candidates, bit for bit; the straight 16-segment polygon of the
    # reported chord, a test-side check now, is never further from critical.
    name, bound = CASES[case]
    manifold = MANIFOLDS[name]()
    cfg = chords.ChordConfig(length_bound=bound)
    found = []
    ncomp = len(manifold.components)
    for i in range(ncomp):
        for j in range(i, ncomp):
            u0s, u1s, resnorms, _ = chords._pair_candidates(manifold, i, j, cfg)
            lens = np.linalg.norm(
                manifold.components[j].embed(u1s) - manifold.components[i].embed(u0s), axis=1
            )
            keep = (lens >= chords.EPS_MIN) & (lens < bound)
            found.extend(zip(lens[keep].tolist(), resnorms[keep].tolist()))
    found.sort()
    groups = [[found[0]]]
    for item in found[1:]:
        if item[0] - groups[-1][-1][0] > chords.DEDUP_LEN_TOL:
            groups.append([])
        groups[-1].append(item)
    results = chords.find_spectrum(manifold, cfg)
    assert len(results) == len(groups)
    for r, group in zip(results, groups):
        assert r.residual == max(res for _, res in group)
        path = chord_oracle.straight_path(
            manifold, r.comp_source, r.comp_target, r.u0, r.u1, 16
        )
        assert chord_oracle.binormality_residual(path) <= max(r.residual, 1e-14)


def test_perp_frame_matches_oracle():
    rng = np.random.default_rng(3)
    for k in (2, 3, 4):
        u = rng.standard_normal((50, k))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        u[0] = np.eye(k)[0]  # the degenerate Householder case
        assert np.array_equal(chords._perp_frame(u), chord_oracle._perp_frame(u))
        assert np.array_equal(chords._perp_frame(u[1]), chord_oracle._perp_frame(u[1]))


# -- the bucketed multiplicity count at cell boundaries -----------------------


def _both_counts(keys, tol):
    """The bucketed count, per key length as ``find_spectrum`` splits, and the oracle's."""
    keys = [np.asarray(k, dtype=float) for k in keys]
    by_length: dict[int, list] = {}
    for key in keys:
        by_length.setdefault(len(key), []).append(key)
    new = sum(chords._count_distinct(np.array(rows), tol) for rows in by_length.values())
    return new, chord_oracle._count_distinct(keys, tol)


def test_keys_on_exact_multiples_of_tol():
    # tol = 1/4 is exact: lattice neighbours sit exactly tol apart and stay
    # distinct.  tol = 0.05 is not: k * tol rounds, and some neighbours in
    # the float lattice are closer than tol.
    for tol in (0.25, 0.05):
        keys = [
            [a * tol, b * tol, 0.0, 0.0]
            for a in range(-4, 5)
            for b in range(-4, 5)
        ]
        new, old = _both_counts(keys, tol)
        assert new == old
    assert _both_counts([[a * 0.25, 0.0, 0.0, 0.0] for a in range(-4, 5)], 0.25) == (9, 9)


def test_negative_coordinates():
    tol = 0.05
    keys = [[-0.999, -0.001, 0.5, 0.5], [-0.951, 0.03, 0.5, 0.5], [-1.0, -0.049, 0.5, 0.5],
            [-0.001, -0.999, 0.1, 0.1], [0.001, -0.97, 0.1, 0.12], [-0.06, -1.0, 0.1, 0.1]]
    new, old = _both_counts(keys, tol)
    assert new == old == 3


def test_pairs_at_distance_exactly_tol():
    tol = 0.25
    base = [-0.5, 0.75, 0.0, 0.0]
    for axis in range(4):
        other = list(base)
        other[axis] += tol
        assert _both_counts([base, other], tol) == (2, 2)
        other[axis] = math.nextafter(other[axis], base[axis])
        assert _both_counts([base, other], tol) == (1, 1)


def test_mixed_key_lengths_share_cells():
    keys = [[0.1, 0.2, 0.3, 0.4], [0.1, 0.2, 0.3, 0.4, 0.5], [0.1, 0.2, 0.3, 0.4, 0.5, 0.6],
            [0.11, 0.2, 0.3, 0.4], [0.1, 0.21, 0.3, 0.4, 0.5], [0.1, 0.2, 0.3, 0.4, 0.5, 0.9]]
    assert _both_counts(keys, 0.05) == (4, 4)


_near_multiple = st.tuples(
    st.integers(-40, 40), st.sampled_from((-2, -1, 0, 1, 2))
)


@settings(max_examples=150, deadline=None)
@given(
    tol=st.sampled_from((0.25, 0.05, 1e-3, 0.3)),
    keys=st.lists(
        st.tuples(st.sampled_from((4, 5, 6)), st.lists(_near_multiple, min_size=6, max_size=6)),
        min_size=1, max_size=40,
    ),
)
def test_keys_within_ulps_of_cell_edges(tol, keys):
    """Coordinates a few ulps from multiples of tol: the count never changes."""

    def coord(k, ulps):
        x = k * tol
        for _ in range(abs(ulps)):
            x = math.nextafter(x, math.copysign(math.inf, ulps))
        return x

    arrays = [[coord(k, u) for k, u in coords[:n]] for n, coords in keys]
    new, old = _both_counts(arrays, tol)
    assert new == old


@pytest.mark.parametrize("case", sorted(CASES))
def test_lengths_are_the_numpy_median(case, monkeypatch):
    # Each reported length is the median of its group's sorted lengths,
    # read off the middle without ``np.median``: bit for bit the same.
    name, bound = CASES[case]
    manifold, cfg = MANIFOLDS[name](), chords.ChordConfig(length_bound=bound)
    got = chords.find_spectrum(manifold, cfg)
    with monkeypatch.context() as m:
        m.setattr(chords, "_median_of_sorted", lambda values: float(np.median(values)))
        want = chords.find_spectrum(manifold, cfg)
    assert got, case
    assert [r.length.hex() for r in got] == [r.length.hex() for r in want]


def test_median_of_sorted_matches_numpy():
    rng = np.random.default_rng(11)
    for n in range(1, 60):
        for _ in range(40):
            values = np.sort(rng.uniform(0.5, 4.0, n) * rng.choice([1e-9, 1.0, 1e9]))
            want = float(np.median(values))
            assert chords._median_of_sorted(values).hex() == want.hex(), values
