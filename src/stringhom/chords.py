"""Binormal chord spectra of sphere links in Euclidean space.

A binormal chord is a straight segment meeting a submanifold K
perpendicularly at both endpoints; the multiset of chord lengths controls
where length-filtered homology can jump.  K here is a disjoint union of
round (d-1)-spheres embedded affinely in R^(2d-1), which covers the built-in
link configurations and keeps all tangent data closed-form.

The spectrum search solves the endpoint perpendicularity system by
Gauss-Newton from a fixed grid of endpoint pairs per component pair, which
reaches minima and saddle-type chords alike.  Each length is reported with
the largest Gauss-Newton residual norm among the chords grouped into it.
The straight polygons of a chord and their smoothed-length flow
L_r = sum_l sqrt(|q^(l+1) - q^l|^2 + r) live in the test oracle
``tests/chord_oracle.py``, which checks that descending the seeds first
finds no chord that this solve misses.
Reversing a chord from K_i to K_j gives a chord from K_j to K_i of the same
length, so each cross pair i < j is solved once and its chords are mirrored
into (j, i); only self pairs (i, i) are solved on their own.
Each Gauss-Newton step builds the endpoint frames once and reuses them for
the residual, every finite-difference column and the step; a seed grid
whose arrays would exceed ``MAX_GRID_FLOATS`` is refused before it is
built.  A seed stops after ``GN_ITERATIONS`` steps, below a residual norm of
1e-14, or at its solver floor: the first step at which its residual norm is
below ``GRAD_TOL`` and did not fall to half of the previous step's.  On
degenerate chord families the finite-difference Jacobian leaves residuals
of 1e-9 to 2e-8 that drift rather than shrink; a seed at its floor already
counts as converged.  The candidates of all component pairs form one table
of arrays, sorted once by length.  Results are deduplicated by length, with
endpoint clusters counted as a multiplicity hint for chord families; the
count is greedy in length order and finds nearby representatives through a
grid of cells of the dedup tolerance.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from math import isfinite

import numpy as np

from .free_dga import ParameterOutOfRange


# -- geometry ----------------------------------------------------------------


class Component:
    """Round unit sphere S^(k-1) affinely embedded in R^n.

    Points are parametrized by their unit preimage u in R^k; the embedding
    is u -> matrix @ u + offset with orthonormal matrix columns, so tangent
    vectors push forward isometrically.
    """

    def __init__(self, matrix, offset, label: str = ""):
        self.matrix = np.asarray(matrix, dtype=float)
        self.offset = np.asarray(offset, dtype=float)
        self.label = label
        n, k = self.matrix.shape
        if self.offset.shape != (n,):
            raise ValueError("offset dimension mismatch")
        gram = self.matrix.T @ self.matrix
        if not np.allclose(gram, np.eye(k), atol=1e-12):
            raise ValueError("embedding matrix must have orthonormal columns")
        self.ambient_dim = n
        self.param_dim = k

    def embed(self, u):
        return np.asarray(u, dtype=float) @ self.matrix.T + self.offset

    def tangent_frame(self, u):
        """Orthonormal basis of the tangent space at embed(u).

        Shape (..., n, k-1): ambient pushforwards of a basis of u-perp,
        computed from the Householder map sending e1 to u.
        """
        return self.matrix @ _perp_frame(u)


def _perp_frame(u):
    """Orthonormal basis of u-perp for batched unit vectors u (..., k)."""
    u = np.asarray(u, dtype=float)
    k = u.shape[-1]
    v = u.copy()
    v[..., 0] -= 1.0
    nrm2 = np.sum(v * v, axis=-1)
    degenerate = nrm2 < 1e-24
    safe = np.where(degenerate, 1.0, nrm2)
    frame = 2.0 * v[..., :, None] * (v[..., None, 1:] / safe[..., None, None])
    # eye - frame in place: the same subtraction, one frame-sized temporary less.
    np.subtract(np.eye(k)[:, 1:], frame, out=frame)
    if np.any(degenerate):
        frame[degenerate] = np.eye(k)[:, 1:]
    return frame


def _normalize(u):
    return u / np.linalg.norm(u, axis=-1, keepdims=True)


class ParamSubmanifold:
    """Disjoint union of embedded sphere components in a common R^n."""

    def __init__(self, components: Iterable[Component]):
        self.components = list(components)
        if not self.components:
            raise ValueError("need at least one component")
        dims = {c.ambient_dim for c in self.components}
        if len(dims) != 1:
            raise ValueError("components live in different ambient spaces")
        self.ambient_dim = dims.pop()

    def __repr__(self) -> str:
        labels = ",".join(c.label or "?" for c in self.components)
        return f"ParamSubmanifold({labels})"


def _first_sphere(d: int) -> Component:
    """The unit (d-1)-sphere on the first d axes of R^(2d-1)."""
    if d < 2:
        raise ParameterOutOfRange("d must be at least 2")
    n = 2 * d - 1
    _check_grid_size(1, n, 2 * d - 2)  # a d too large for even one seed pair
    return Component(np.eye(n, d), np.zeros(n), "K0")


def builtin_config(name: str, d: int, z2star: float | None = None) -> ParamSubmanifold:
    """The linked and the spaced pair of unit (d-1)-spheres in R^(2d-1)."""
    n = 2 * d - 1
    first = _first_sphere(d)
    if name == "hopf":
        e_second = np.zeros((n, d))
        e_second[d - 1, 0] = 1.0
        e_second[d:, 1:] = np.eye(d - 1)
        offset = np.zeros(n)
        offset[d - 1] = 1.0
        return ParamSubmanifold([first, Component(e_second, offset, "K1")])
    if name == "unlink":
        if z2star is None:
            raise ParameterOutOfRange("unlink needs z2star")
        if not isfinite(z2star):
            raise ParameterOutOfRange("z2star must be finite")
        if z2star <= 2:
            raise ParameterOutOfRange("z2star must exceed 2")
        offset = np.zeros(n)
        offset[d] = float(z2star)
        return ParamSubmanifold([first, Component(first.matrix, offset, "K2")])
    raise ParameterOutOfRange(f"unknown builtin config {name!r}")


def single_sphere(d: int) -> ParamSubmanifold:
    """One unit (d-1)-sphere in R^(2d-1); its only chords are diameters."""
    return ParamSubmanifold([_first_sphere(d)])


# -- configuration and result types ------------------------------------------

GRAD_TOL = 1e-9  # largest Gauss-Newton residual norm of a converged seed
DEDUP_LEN_TOL = 1e-7  # chord lengths closer than this are one length
DEDUP_PT_TOL = 5e-2  # endpoint keys closer than this (max norm) are one cluster
EPS_MIN = 1e-3  # shortest chord kept, and closest endpoints of a self-pair seed
RNG_SEED = 0  # seed grids on spheres of dimension above 2
GN_ITERATIONS = 40
# Most floats one Gauss-Newton array of a component pair may hold, counted as
# seed pairs x max(n, m) x m for m tangent coordinates in R^n: this bounds
# both the endpoint frames (n x (k-1)) and the Jacobian (m x m).  The
# largest any test or workload reaches is 54,432 (1,296 seed pairs, d = 4).
# Near the cap, hopf d = 2 with 408 circle seeds ran 16 s and peaked at
# 300 MB on a 2-CPU x86-64 host.
MAX_GRID_FLOATS = 10**6


class ChordConfig(namedtuple("ChordConfig", "length_bound seeds_per_circle seeds_per_sphere")):
    __slots__ = ()

    def __new__(cls, length_bound: float | None = None, seeds_per_circle: int = 24,
                seeds_per_sphere: int = 36):
        if seeds_per_circle < 1:
            raise ParameterOutOfRange("seeds_per_circle must be positive")
        if seeds_per_sphere < 1:
            raise ParameterOutOfRange("seeds_per_sphere must be positive")
        if length_bound is not None and not isfinite(length_bound):
            raise ParameterOutOfRange("length_bound must be finite")
        if length_bound is not None and length_bound <= 0:
            raise ParameterOutOfRange("length_bound must be positive")
        return super().__new__(cls, length_bound, seeds_per_circle, seeds_per_sphere)


class ChordResult(namedtuple(
    "ChordResult", "comp_source comp_target u0 u1 length residual multiplicity"
)):
    __slots__ = ()

    def as_json_dict(self) -> dict:
        return {
            "components": [self.comp_source, self.comp_target],
            "theta0": [float(x) for x in self.u0],
            "theta1": [float(x) for x in self.u1],
            "length": self.length,
            "residual": self.residual,
            "multiplicity": self.multiplicity,
        }


# -- multistart search --------------------------------------------------------


def _check_grid_size(seeds: int, n: int, m: int) -> None:
    floats = seeds * max(n, m) * m
    if floats > MAX_GRID_FLOATS:
        raise ParameterOutOfRange(
            f"{floats} floats per Gauss-Newton array for {seeds} seed pairs in R^{n},"
            f" above the cap of {MAX_GRID_FLOATS}"
        )


def _circle_points(n: int):
    ang = 2.0 * np.pi * np.arange(n) / n
    return np.stack([np.cos(ang), np.sin(ang)], axis=1)


def _fibonacci_sphere(n: int):
    i = np.arange(n) + 0.5
    phi = np.arccos(1 - 2 * i / n)
    golden = np.pi * (1 + 5**0.5)
    theta = golden * i
    return np.stack(
        [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)], axis=1
    )


def _grid_size(comp: Component, cfg: ChordConfig) -> int:
    return cfg.seeds_per_circle if comp.param_dim == 2 else cfg.seeds_per_sphere


def _component_grid(comp: Component, cfg: ChordConfig):
    k, size = comp.param_dim, _grid_size(comp, cfg)
    if k == 2:
        return _circle_points(size)
    if k == 3:
        return _fibonacci_sphere(size)
    rng = np.random.default_rng(RNG_SEED + 7 * k)
    return _normalize(rng.standard_normal((size, k)))


def _perp_residual(p0, tan0, p1, tan1):
    """Inner products of the unit chord p0 -> p1 with both tangent frames."""
    chord = p1 - p0
    dist = np.linalg.norm(chord, axis=1)
    ok = dist > 1e-9
    dirs = chord / np.where(ok, dist, 1.0)[:, None]
    r0 = np.einsum("sn,snj->sj", dirs, tan0)
    r1 = np.einsum("sn,snj->sj", dirs, tan1)
    return np.concatenate([r0, r1], axis=1), ok


def _gauss_newton(manifold, comp0, comp1, u0, u1, iterations):
    """Batched Gauss-Newton on the endpoint perpendicularity system.

    Variables are tangent coordinates of (u0, u1); residuals are the inner
    products of the unit chord direction with the tangent frames at both
    ends.  Square system: (k0-1)+(k1-1) equations in as many unknowns.
    Each step builds the frames at both current endpoints once; the base
    residual, the unperturbed end of every finite-difference column and the
    step directions all reuse them.  A seed is frozen, and leaves the batch,
    once it is dead (its endpoints meet), its residual norm is at most
    1e-14, or it sits at its solver floor: its residual norm is below
    ``GRAD_TOL`` and did not fall to half of the previous step's.
    """
    c0 = manifold.components[comp0]
    c1 = manifold.components[comp1]
    t0 = c0.param_dim - 1
    t1 = c1.param_dim - 1
    m = t0 + t1
    u0 = u0.copy()
    u1 = u1.copy()
    alive = np.ones(len(u0), dtype=bool)

    h = 1e-7
    work = np.arange(len(u0))
    prev = np.full(len(u0), np.inf)  # residual norm of each seed at the step before
    for _ in range(iterations):
        w0, w1 = u0[work], u1[work]
        f0, f1 = _perp_frame(w0), _perp_frame(w1)
        p0, tan0 = c0.embed(w0), c0.matrix @ f0
        p1, tan1 = c1.embed(w1), c1.matrix @ f1
        res, ok = _perp_residual(p0, tan0, p1, tan1)
        alive[work] &= ok
        # Freeze seeds that are done, at their floor or dead; compact the batch.
        resnorm_w = np.max(np.abs(res), axis=1)
        floor = (resnorm_w < GRAD_TOL) & (resnorm_w > 0.5 * prev[work])
        prev[work] = resnorm_w
        busy = alive[work] & (resnorm_w > 1e-14) & ~floor
        if not np.any(busy):
            break
        if not np.all(busy):
            work, res = work[busy], res[busy]
            w0, w1 = w0[busy], w1[busy]
            f0, f1 = f0[busy], f1[busy]
            p0, p1 = p0[busy], p1[busy]
            tan0, tan1 = tan0[busy], tan1[busy]
        jac = np.empty((len(work), m, m))
        for col in range(m):
            if col < t0:
                pert = _normalize(w0 + h * f0[:, :, col])
                res_p, _ = _perp_residual(c0.embed(pert), c0.tangent_frame(pert), p1, tan1)
            else:
                pert = _normalize(w1 + h * f1[:, :, col - t0])
                res_p, _ = _perp_residual(p0, tan0, c1.embed(pert), c1.tangent_frame(pert))
            jac[:, :, col] = (res_p - res) / h
        jtj = np.einsum("sij,sik->sjk", jac, jac)
        jtr = np.einsum("sij,si->sj", jac, res)
        jtj += 1e-12 * np.eye(m)
        try:
            delta = -np.linalg.solve(jtj, jtr[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            delta = -np.stack(
                [np.linalg.lstsq(jtj[s], jtr[s], rcond=None)[0] for s in range(len(work))]
            )
        delta = np.clip(delta, -0.5, 0.5)
        step0 = np.einsum("skj,sj->sk", f0, delta[:, :t0])
        step1 = np.einsum("skj,sj->sk", f1, delta[:, t0:])
        u0[work] = _normalize(w0 + step0)
        u1[work] = _normalize(w1 + step1)
    res, ok = _perp_residual(
        c0.embed(u0), c0.tangent_frame(u0), c1.embed(u1), c1.tangent_frame(u1)
    )
    alive &= ok
    resnorm = np.max(np.abs(res), axis=1)
    return u0, u1, resnorm, alive


def _seed_grid(manifold, i, j, cfg: ChordConfig):
    """All grid endpoint pairs (u0, u1) for one ordered component pair.

    On a single component, pairs closer than EPS_MIN are dropped.  A grid
    beyond ``MAX_GRID_FLOATS`` is refused before it is built.
    """
    c0, c1 = manifold.components[i], manifold.components[j]
    _check_grid_size(
        _grid_size(c0, cfg) * _grid_size(c1, cfg),
        manifold.ambient_dim,
        c0.param_dim + c1.param_dim - 2,
    )
    g0 = _component_grid(c0, cfg)
    g1 = _component_grid(c1, cfg)
    u0 = np.repeat(g0, len(g1), axis=0)
    u1 = np.tile(g1, (len(g0), 1))
    if i == j:
        keep = np.linalg.norm(c0.embed(u0) - c1.embed(u1), axis=1) > EPS_MIN
        u0, u1 = u0[keep], u1[keep]
    return u0, u1


def _pair_candidates(manifold, i, j, cfg: ChordConfig):
    """Endpoint candidates for one ordered component pair.

    Gauss-Newton on the criticality system from every grid seed: it
    reaches minima and saddle-type chords alike.  Returns the converged
    endpoints, their residual norms and the counts (seeds, converged,
    failed).
    """
    u0, u1 = _seed_grid(manifold, i, j, cfg)
    if len(u0) == 0:
        return u0, u1, np.zeros(0), (0, 0, 0)
    out0, out1, resnorm, alive = _gauss_newton(manifold, i, j, u0, u1, GN_ITERATIONS)
    good = alive & (resnorm < GRAD_TOL) & ~np.any(np.isnan(out0), axis=1)
    converged = int(np.sum(good))
    return out0[good], out1[good], resnorm[good], (len(u0), converged, len(u0) - converged)


def _count_distinct(keys: np.ndarray, tol: float) -> int:
    """Greedy count of representatives among the rows of a key matrix, in order.

    A key becomes a new representative unless it lies within ``tol`` (max
    norm, strict) of an earlier representative.  Keys are finite, have at
    least two coordinates, and their first two are below 2^53 * tol in
    size.  Representatives are bucketed by (floor(x0 / tol), floor(x1 /
    tol)), and a key is tested only against the cells that the open
    intervals (x - tol, x + tol) of its first two coordinates reach:
    rounding is monotone, so no representative within ``tol`` lies
    elsewhere.  Those are the 3 x 3 neighbouring cells, rarely one more row
    or column.
    """
    head = keys[:, :2]
    # Per key: its own cell, then the first and one past the last reachable
    # row and column.  Keys become lists one at a time, which keeps the
    # Python objects to the representatives.
    reach = np.floor(
        np.concatenate([head / tol, (head - tol) / tol, (head + tol) / tol], axis=1)
    ).astype(np.int64)
    reach[:, 4:] += 1
    cells: dict[tuple, list] = {}
    count = 0
    for key, (h0, h1, r0, c0, r1, c1) in zip(keys, reach.tolist()):
        x = key.tolist()
        if not _has_near(x, cells, range(r0, r1), range(c0, c1), tol):
            cells.setdefault((h0, h1), []).append(x)
            count += 1
    return count


def _median_of_sorted(values: np.ndarray) -> float:
    """``float(np.median(values))`` of sorted values, bit for bit.

    ``np.median`` imports ``numpy.ma`` on its first call, which costs more
    than a whole short search.
    """
    half = len(values) // 2
    return float(values[half] if len(values) % 2 else (values[half - 1] + values[half]) / 2)


def _has_near(x: list, cells: dict, rows: range, cols: range, tol: float) -> bool:
    """Whether a representative in the given cells lies within ``tol`` of x."""
    for r in rows:
        for c in cols:
            for rep in cells.get((r, c), ()):
                for a, b in zip(rep, x):
                    if abs(a - b) >= tol:
                        break
                else:
                    return True
    return False


def find_spectrum(
    manifold: ParamSubmanifold, cfg: ChordConfig, diagnostics: dict | None = None
) -> list[ChordResult]:
    """Multistart search for all binormal chords below the length bound.

    Runs a Gauss-Newton criticality solve from the seed grid of every
    component pair (i, j) with i <= j, keeps the converged chords inside
    the length window and deduplicates them by length.  Each kept candidate
    of a cross pair i < j is followed by its mirror in (j, i): the reversed
    chord, with the same length and residual norm bit for bit.  A length
    reports the largest residual norm among its candidates.  The
    multiplicity of a length is the number of endpoint clusters among its
    candidates: a greedy pass in length order keeps a candidate unless its
    endpoints lie within ``DEDUP_PT_TOL`` of a kept one, looked up in grid
    cells of that size (``_count_distinct``).  Keys from component pairs of
    different dimension never match: a length whose candidates mix key
    lengths is counted per key length, each without its zero padding.
    Returns results sorted by length.

    The candidates form one table of arrays: length, residual norm,
    component pair and endpoint key (u0 then u1), one row per candidate.
    A length reports the component pair of its first candidate by float
    length.  The sort is stable and a mirror ties its original, so that
    candidate is never a mirror: a cross pair reports as (i, j) with i < j.
    Among several pairs carrying one length (say the self pairs (0, 0) and
    (1, 1)), the reported one still follows the float order of their
    candidates.

    ``diagnostics`` receives ``seeds``, ``converged`` and ``failed`` over
    the full ordered seed grid (a mirrored pair counts what its solve
    counted), ``solved`` (the seeds that went through Gauss-Newton),
    ``failure_rate``, and ``pairs``: one row ``[i, j, seeds, converged,
    failed, "solved" | "mirrored"]`` per ordered pair.
    """
    diagnostics = diagnostics if diagnostics is not None else {}
    bound = cfg.length_bound if cfg.length_bound is not None else np.inf
    comps = manifold.components
    dims = [c.param_dim for c in comps]
    width = 2 * max(dims)  # keys of smaller spheres are zero-padded to it
    table: list[tuple] = []
    pairs: list[list] = []
    for i in range(len(comps)):
        for j in range(i, len(comps)):
            u0s, u1s, resnorms, counts = _pair_candidates(manifold, i, j, cfg)
            pairs.append([i, j, *counts, "solved"])
            if i != j:
                pairs.append([j, i, *counts, "mirrored"])
            lens = np.linalg.norm(comps[j].embed(u1s) - comps[i].embed(u0s), axis=1)
            keep = (lens >= EPS_MIN) & (lens < bound)
            ends = [(i, j)] if i == j else [(i, j), (j, i)]
            halves = [u0s[keep], u1s[keep]]
            keys = np.zeros((len(halves[0]), len(ends), width))
            keys[:, 0, : dims[i] + dims[j]] = np.concatenate(halves, axis=1)
            if i != j:
                # The reversed chord: same length and residual, bit for bit.
                keys[:, 1, : dims[i] + dims[j]] = np.concatenate(halves[::-1], axis=1)
            table.append((
                np.repeat(lens[keep], len(ends)),
                np.repeat(resnorms[keep], len(ends)),
                np.tile(ends, (len(keys), 1)),
                keys.reshape(-1, width),
            ))
    lens, resnorms, ends, keys = (np.concatenate(column) for column in zip(*table))
    order = np.argsort(lens, kind="stable")
    lens, resnorms, ends, keys = lens[order], resnorms[order], ends[order], keys[order]
    key_lengths = np.take(dims, ends).sum(axis=1)
    cuts = (np.flatnonzero(np.diff(lens) > DEDUP_LEN_TOL) + 1).tolist()
    edges = [0, *cuts, len(lens)] if len(lens) else []
    results: list[ChordResult] = []
    for lo, hi in zip(edges, edges[1:]):
        source, target = ends[lo].tolist()
        group, sizes = keys[lo:hi], key_lengths[lo:hi]
        results.append(
            ChordResult(
                comp_source=source,
                comp_target=target,
                u0=keys[lo, : dims[source]].copy(),
                u1=keys[lo, dims[source] : dims[source] + dims[target]].copy(),
                length=_median_of_sorted(lens[lo:hi]),
                residual=float(np.max(resnorms[lo:hi])),
                multiplicity=sum(_count_distinct(group[sizes == n, :n], DEDUP_PT_TOL)
                                 for n in dict.fromkeys(sizes.tolist())),
            )
        )
    pairs.sort(key=lambda row: row[:2])
    diagnostics["pairs"] = diagnostics.get("pairs", []) + pairs
    for col, key in ((2, "seeds"), (3, "converged"), (4, "failed")):
        diagnostics[key] = diagnostics.get(key, 0) + sum(row[col] for row in pairs)
    diagnostics["solved"] = diagnostics.get("solved", 0) + sum(
        row[2] for row in pairs if row[5] == "solved"
    )
    total = diagnostics["seeds"]
    diagnostics["failure_rate"] = diagnostics["failed"] / total if total else 0.0
    return results


def chord_sum_spectrum(lengths: list[float], m: int, a: float) -> list[float]:
    """All m-fold sums of chord lengths below a, sorted, and sums closer than
    ``DEDUP_LEN_TOL`` reported once.

    Each multiset of m lengths is summed left to right in ascending order.
    The walk over them stops a branch once its partial sum reaches a: the
    lengths are positive, so adding more never lowers a float sum.
    """
    if m < 1:
        raise ParameterOutOfRange("m must be at least 1")
    if a <= 0:
        raise ParameterOutOfRange("a must be positive")
    ordered = sorted(lengths)
    if not all(x > 0 for x in ordered):
        raise ParameterOutOfRange("chord lengths must be positive")
    sums = []
    stack = [(0, 0, 0)]  # (partial sum, terms in it, index of its last length)
    while stack:
        partial, terms, last = stack.pop()
        if terms == m:
            sums.append(float(partial))
            continue
        for k in range(last, len(ordered)):
            if (s := partial + ordered[k]) >= a:
                break
            stack.append((s, terms + 1, k))
    out: list[float] = []
    for s in sorted(sums):
        if not out or s - out[-1] > DEDUP_LEN_TOL:
            out.append(s)
    return out
