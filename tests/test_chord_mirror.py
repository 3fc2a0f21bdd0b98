"""Cross component pairs are solved once and mirrored.

Reversing a binormal chord from K_i to K_j gives one from K_j to K_i of the
same length, so ``find_spectrum`` solves each cross pair i < j and appends
the reversed candidates as the pair (j, i).  These tests check the
diagnostics rows of that bookkeeping, compare the mirror with a direct
Gauss-Newton solve of (j, i), and check that the reported component pair of
a cross length no longer depends on last-ulp differences.
"""

import numpy as np
import pytest

from stringhom import chords
from test_chord_identity import CASES, MANIFOLDS


def _spectrum(case, diagnostics=None):
    name, bound = CASES[case]
    manifold = MANIFOLDS[name]()
    return manifold, chords.find_spectrum(
        manifold, chords.ChordConfig(length_bound=bound), diagnostics
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_pair_rows_add_up_and_mirror_their_solve(case):
    diag = {}
    manifold, results = _spectrum(case, diag)
    ncomp = len(manifold.components)
    rows = diag["pairs"]
    assert [row[:2] for row in rows] == [[i, j] for i in range(ncomp) for j in range(ncomp)]
    for col, key in ((2, "seeds"), (3, "converged"), (4, "failed")):
        assert sum(row[col] for row in rows) == diag[key], key
    assert diag["solved"] == sum(row[2] for row in rows if row[5] == "solved")
    assert diag["failure_rate"] == diag["failed"] / diag["seeds"]
    by_pair = {(row[0], row[1]): row for row in rows}
    for (i, j), row in by_pair.items():
        assert row[2] == row[3] + row[4]
        assert row[5] == ("mirrored" if i > j else "solved")
        if i > j:
            assert row[2:5] == by_pair[(j, i)][2:5]
    # A cross length reports the solved pair, never its mirror.
    assert all(r.comp_source <= r.comp_target for r in results)


def _direct_candidates(manifold, i, j, cfg):
    """Window-filtered endpoints and lengths of a Gauss-Newton solve of (i, j)."""
    u0, u1 = chords._seed_grid(manifold, i, j, cfg)
    out0, out1, resnorm, alive = chords._gauss_newton(manifold, i, j, u0, u1, chords.GN_ITERATIONS)
    good = alive & (resnorm < chords.GRAD_TOL) & ~np.any(np.isnan(out0), axis=1)
    out0, out1 = out0[good], out1[good]
    lens = np.linalg.norm(
        manifold.components[j].embed(out1) - manifold.components[i].embed(out0), axis=1
    )
    bound = cfg.length_bound if cfg.length_bound is not None else np.inf
    keep = (lens >= chords.EPS_MIN) & (lens < bound)
    return out0[keep], out1[keep], lens[keep]


def _clustered(lengths, tol):
    """Distinct lengths: sorted values chained at ``tol``, one per cluster."""
    out = []
    for x in sorted(lengths):
        if not out or x - out[-1][-1] > tol:
            out.append([])
        out[-1].append(x)
    return [c[0] for c in out]


@pytest.mark.parametrize(
    "case", ["bench_hopf2", "bench_hopf3", "bench_unlink2", "random4"]
)
def test_mirror_matches_a_direct_solve_of_the_reversed_pair(case):
    name, bound = CASES[case]
    manifold = MANIFOLDS[name]()
    cfg = chords.ChordConfig(length_bound=bound)
    # The mirror of (0, 1), as find_spectrum builds it: the reversed endpoints.
    s0, s1, mirrored_lens = _direct_candidates(manifold, 0, 1, cfg)
    mirrored_keys = np.concatenate([s1, s0], axis=1)
    d0, d1, direct_lens = _direct_candidates(manifold, 1, 0, cfg)
    assert len(direct_lens) and len(mirrored_lens)

    want = _clustered(mirrored_lens, chords.DEDUP_LEN_TOL)
    got = _clustered(direct_lens, chords.DEDUP_LEN_TOL)
    assert len(got) == len(want)
    assert np.allclose(got, want, rtol=0, atol=1e-9)

    for key in np.concatenate([d0, d1], axis=1):
        gap = np.min(np.max(np.abs(mirrored_keys - key), axis=1))
        assert gap < chords.DEDUP_PT_TOL, (case, key, gap)


# One-ulp nudges of every coordinate.  Before cross pairs were mirrored,
# "away" made hopf d=3 report its length-1 chord as (1, 0).
NUDGES = {
    "up": lambda x: np.nextafter(x, np.inf),
    "down": lambda x: np.nextafter(x, -np.inf),
    "away": lambda x: np.nextafter(x, np.copysign(np.inf, x)),
    "toward": lambda x: np.nextafter(x, 0.0),
}


def _nudged_solver(nudge):
    solve = chords._gauss_newton

    def nudged(manifold, i, j, u0, u1, iterations):
        out0, out1, resnorm, alive = solve(manifold, i, j, u0, u1, iterations)
        if i < j:
            out0, out1 = nudge(out0), nudge(out1)
        return out0, out1, resnorm, alive

    return nudged


@pytest.mark.parametrize("nudge", sorted(NUDGES))
@pytest.mark.parametrize(
    "case,cross_lengths",
    [
        ("bench_hopf2", (1.0, 3.0)),
        ("bench_hopf3", (1.0, 3.0)),
        ("bench_unlink2", (3.0, 13**0.5)),
    ],
)
def test_cross_lengths_report_the_solved_pair_after_a_one_ulp_nudge(
    case, cross_lengths, nudge, monkeypatch
):
    monkeypatch.setattr(chords, "_gauss_newton", _nudged_solver(NUDGES[nudge]))
    _, results = _spectrum(case)
    for length in cross_lengths:
        (hit,) = [r for r in results if abs(r.length - length) < 1e-6]
        assert (hit.comp_source, hit.comp_target) == (0, 1), length
