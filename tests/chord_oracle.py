"""Earlier forms of the chord search, kept as test oracles.

Broken paths: ``BrokenPath`` is a polygon q^0 ... q^nu with endpoints on
K, ``straight_path`` the straight equal-speed polygon of a chord, and
``binormality_residual`` its deviation from chord criticality.  The search
once reported that residual of its chords' 16-segment polygons; it reports
its Gauss-Newton residual now, and the tests check that the polygon's is
no larger.

The smoothed-length flow: a broken path q^0 ... q^nu with endpoints on K
is graded by

    L_r = sum_l sqrt(|q^(l+1) - q^l|^2 + r),

whose critical points (as r -> 0) are exactly the binormal chords,
traversed as straight equal-speed polygons.  ``descend`` is gradient
descent of L_r whose accepted steps never increase L_r nor the largest
smoothed segment, mirroring the confinement property of the continuous
flow; ``refine`` doubles the segments of a path.

``descent_search``: the spectrum search once ran this flow before its
Gauss-Newton solve: a strided subset of the seed grid (at most
``DESCENT_SEED_CAP`` seeds per ordered component pair) descends L_r down
``R_SCHEDULE`` with ``MAX_ITER_PER_STAGE`` iterations per stage, each stage
settling to ``DESCENT_STAGE_TOL``; the descended endpoints are then
polished by Gauss-Newton and filtered by the search's length window.  It
found no chord that Gauss-Newton from the raw grid misses, so the search no
longer runs it; the oracle keeps the claim checked, and exercises the
batched flow on the acceptance configurations.

``_gauss_newton`` and ``_count_distinct``: the solver and the multiplicity
count as they were before the search stopped rebuilding tangent frames
inside each Jacobian column, bucketed its representatives by grid cell and
stopped each seed at its solver floor.  They are verbatim copies, with the
Householder frame (``_perp_frame``) copied too and reached through
``_tangent_frame``, so that the tests can require every solver row to be
this solver's row after the step at which one of the two stops the seed,
and every count to be this count.
"""

from typing import Iterable

import numpy as np

from stringhom import chords
from stringhom.chords import EPS_MIN, ParameterOutOfRange

_normalize = chords._normalize

R_SCHEDULE = tuple(10.0 ** (-k) for k in range(2, 11))
MAX_ITER_PER_STAGE = 40
DESCENT_SEED_CAP = 256
DESCENT_STAGE_TOL = 1e-4


# -- broken paths and the smoothed length --------------------------------------


class DegenerateSegment(Exception):
    pass


class BrokenPath:
    """Polygonal path with endpoints on two (possibly equal) components."""

    def __init__(self, manifold, comp0: int, comp1: int, u0, u1, points):
        self.manifold = manifold
        self.comp0 = comp0
        self.comp1 = comp1
        self.u0 = _normalize(np.asarray(u0, dtype=float))
        self.u1 = _normalize(np.asarray(u1, dtype=float))
        self.points = np.array(points, dtype=float)
        c0 = manifold.components[comp0]
        c1 = manifold.components[comp1]
        if not np.allclose(self.points[0], c0.embed(self.u0), atol=1e-9):
            raise ValueError("first point must equal the embedded start parameter")
        if not np.allclose(self.points[-1], c1.embed(self.u1), atol=1e-9):
            raise ValueError("last point must equal the embedded end parameter")

    @property
    def nu(self) -> int:
        return len(self.points) - 1


def straight_path(manifold, comp0: int, comp1: int, u0, u1, nu: int) -> BrokenPath:
    p0 = manifold.components[comp0].embed(u0)
    p1 = manifold.components[comp1].embed(u1)
    t = np.linspace(0.0, 1.0, nu + 1)[:, None]
    return BrokenPath(manifold, comp0, comp1, u0, u1, (1 - t) * p0 + t * p1)


def binormality_residual(path: BrokenPath) -> float:
    """Deviation from chord criticality.

    Maximum of: consecutive unit-direction mismatches, chord-tangency
    inner products at both endpoints, and the segment-length spread.
    Zero exactly on straight equally-spaced binormal chords.  A path with
    a segment no longer than EPS_MIN / nu is degenerate.
    """
    seg = np.diff(path.points, axis=0)
    lens = np.linalg.norm(seg, axis=1)
    eps = EPS_MIN / max(path.nu, 1)
    if np.any(lens <= eps):
        raise DegenerateSegment("segment shorter than EPS_MIN/nu")
    dirs = seg / lens[:, None]
    turn = 0.0
    if len(dirs) > 1:
        turn = float(np.max(np.linalg.norm(dirs[1:] - dirs[:-1], axis=1)))
    c0 = path.manifold.components[path.comp0]
    c1 = path.manifold.components[path.comp1]
    f0 = c0.tangent_frame(path.u0)
    f1 = c1.tangent_frame(path.u1)
    t0 = float(np.max(np.abs(dirs[0] @ f0))) if f0.shape[-1] else 0.0
    t1 = float(np.max(np.abs(dirs[-1] @ f1))) if f1.shape[-1] else 0.0
    spread = float(lens.max() - lens.min())
    return max(turn, t0, t1, spread)


def segment_lengths(path: BrokenPath):
    return np.linalg.norm(np.diff(path.points, axis=0), axis=1)


def polygonal_length(path: BrokenPath) -> float:
    return float(segment_lengths(path).sum())


def copy_with_points(path: BrokenPath, points) -> BrokenPath:
    return BrokenPath(path.manifold, path.comp0, path.comp1, path.u0, path.u1, points)


def l_r_value(path: BrokenPath, r: float) -> float:
    if r <= 0:
        raise ParameterOutOfRange("r must be positive")
    d = np.diff(path.points, axis=0)
    return float(np.sum(np.sqrt(np.sum(d * d, axis=1) + r)))


def _batch_lr(points, r):
    d = np.diff(points, axis=1)
    h = np.sum(d * d, axis=2)
    seg = np.sqrt(h + r)
    return seg.sum(axis=1), seg.max(axis=1), d, seg


def _batch_gradient(manifold, comp0, comp1, u0, u1, points, r):
    """Interior gradient plus tangent-projected endpoint gradients."""
    total, fmax, d, seg = _batch_lr(points, r)
    w = 1.0 / seg
    g_all = np.zeros_like(points)
    g_all[:, 1:, :] += d * w[:, :, None]
    g_all[:, :-1, :] -= d * w[:, :, None]
    c0 = manifold.components[comp0]
    c1 = manifold.components[comp1]
    gu0 = g_all[:, 0, :] @ c0.matrix
    gu1 = g_all[:, -1, :] @ c1.matrix
    gu0 -= np.sum(gu0 * u0, axis=1, keepdims=True) * u0
    gu1 -= np.sum(gu1 * u1, axis=1, keepdims=True) * u1
    g_int = g_all[:, 1:-1, :]
    return total, fmax, g_int, gu0, gu1


def l_r_gradient(path: BrokenPath, r: float):
    """Analytic gradient of l_r_value with endpoints constrained to K.

    Returns (interior, g_u0, g_u1): ambient vectors for the free points and
    sphere-tangent vectors for the two endpoint parameters.
    """
    if r <= 0:
        raise ParameterOutOfRange("r must be positive")
    total, fmax, g_int, gu0, gu1 = _batch_gradient(
        path.manifold,
        path.comp0,
        path.comp1,
        path.u0[None, :],
        path.u1[None, :],
        path.points[None, :, :],
        r,
    )
    return g_int[0], gu0[0], gu1[0]


def _grad_norm(g_int, gu0, gu1):
    return np.sqrt(
        np.sum(g_int * g_int, axis=(1, 2))
        + np.sum(gu0 * gu0, axis=1)
        + np.sum(gu1 * gu1, axis=1)
    )


class _DescentState:
    """Batched projected gradient descent with monotone step acceptance.

    A step is accepted only if L_r strictly decreases and the largest
    smoothed segment does not grow, so both traces are nonincreasing along
    accepted steps by construction.
    """

    def __init__(self, manifold, comp0, comp1, u0, u1, points):
        self.manifold = manifold
        self.comp0 = comp0
        self.comp1 = comp1
        self.u0 = u0.copy()
        self.u1 = u1.copy()
        self.points = points.copy()
        self.step = np.full(len(points), 0.1)

    def run_stage(self, r, grad_tol, max_iter, history=None):
        c0 = self.manifold.components[self.comp0]
        c1 = self.manifold.components[self.comp1]
        gnorm = None
        for _ in range(max_iter):
            lr, fmax, g_int, gu0, gu1 = _batch_gradient(
                self.manifold, self.comp0, self.comp1, self.u0, self.u1, self.points, r
            )
            gnorm = _grad_norm(g_int, gu0, gu1)
            active = (gnorm > grad_tol) & (self.step > 1e-15)
            if not np.any(active):
                break
            s = np.where(active, self.step, 0.0)[:, None]
            new_u0 = _normalize(self.u0 - s * gu0)
            new_u1 = _normalize(self.u1 - s * gu1)
            new_points = self.points.copy()
            new_points[:, 1:-1, :] -= s[:, :, None] * g_int
            new_points[:, 0, :] = c0.embed(new_u0)
            new_points[:, -1, :] = c1.embed(new_u1)
            new_lr, new_f, _, _ = _batch_lr(new_points, r)
            accept = active & (new_lr < lr) & (new_f <= fmax)
            self.u0[accept] = new_u0[accept]
            self.u1[accept] = new_u1[accept]
            self.points[accept] = new_points[accept]
            self.step[accept] = np.minimum(self.step[accept] * 1.3, 1.0)
            shrink = active & ~accept
            self.step[shrink] *= 0.5
            if history is not None and bool(accept[0]):
                history.append((float(new_lr[0]), float(new_f[0])))
        if gnorm is None:
            _, _, g_int, gu0, gu1 = _batch_gradient(
                self.manifold, self.comp0, self.comp1, self.u0, self.u1, self.points, r
            )
            gnorm = _grad_norm(g_int, gu0, gu1)
        return gnorm


def descend(
    path: BrokenPath,
    r: float,
    grad_tol: float = chords.GRAD_TOL,
    max_iter_per_stage: int = MAX_ITER_PER_STAGE,
    history: list | None = None,
) -> BrokenPath:
    """Gradient descent of L_r for one path; accepted steps are monotone.

    Runs at most ``4 * max_iter_per_stage`` steps.  The returned path
    carries ``converged`` (gradient below ``grad_tol``).  ``history``
    (optional list) receives one (L_r, max smoothed segment) pair per
    accepted step.
    """
    if r <= 0:
        raise ParameterOutOfRange("r must be positive")
    state = _DescentState(
        path.manifold,
        path.comp0,
        path.comp1,
        path.u0[None, :],
        path.u1[None, :],
        path.points[None, :, :],
    )
    gnorm = state.run_stage(r, grad_tol, max_iter_per_stage * 4, history=history)
    out = BrokenPath(
        path.manifold, path.comp0, path.comp1, state.u0[0], state.u1[0], state.points[0]
    )
    out.converged = bool(gnorm[0] <= grad_tol)
    return out


def refine(path: BrokenPath) -> BrokenPath:
    """Insert segment midpoints: 2*nu segments, same polygonal length."""
    pts = path.points
    mids = 0.5 * (pts[:-1] + pts[1:])
    new = np.empty((2 * path.nu + 1, pts.shape[1]))
    new[0::2] = pts
    new[1::2] = mids
    return copy_with_points(path, new)


# -- the descent-then-polish search ---------------------------------------------


def descent_search(manifold, cfg, nu=16):
    """Descend, polish and window-filter every ordered component pair.

    Each seed starts as a straight path of ``nu`` segments.  Returns ``(lengths, stages)``: the lengths of the chords the polish
    converges to inside the window, and one ``(r, before, after)`` triple
    per descent stage, holding the batch's points at the start and at the
    end of that stage.
    """
    bound = cfg.length_bound if cfg.length_bound is not None else np.inf
    stage_tol = max(chords.GRAD_TOL, DESCENT_STAGE_TOL)
    lengths: list[float] = []
    stages: list[tuple] = []
    ncomp = len(manifold.components)
    for i in range(ncomp):
        for j in range(ncomp):
            u0, u1 = chords._seed_grid(manifold, i, j, cfg)
            if len(u0) == 0:
                continue
            stride = max(1, -(-len(u0) // DESCENT_SEED_CAP))
            d0, d1 = u0[::stride].copy(), u1[::stride].copy()
            c0, c1 = manifold.components[i], manifold.components[j]
            t = np.linspace(0.0, 1.0, nu + 1)[None, :, None]
            p0, p1 = c0.embed(d0), c1.embed(d1)
            points = (1 - t) * p0[:, None, :] + t * p1[:, None, :]
            state = _DescentState(manifold, i, j, d0, d1, points)
            for r in R_SCHEDULE:
                before = state.points.copy()
                state.run_stage(r, stage_tol, MAX_ITER_PER_STAGE)
                stages.append((r, before, state.points.copy()))
            out0, out1, resnorm, alive = chords._gauss_newton(
                manifold, i, j, state.u0, state.u1, chords.GN_ITERATIONS
            )
            good = alive & (resnorm < chords.GRAD_TOL) & ~np.any(np.isnan(out0), axis=1)
            lens = np.linalg.norm(c1.embed(out1[good]) - c0.embed(out0[good]), axis=1)
            keep = (lens >= chords.EPS_MIN) & (lens < bound)
            lengths.extend(float(x) for x in lens[keep])
    return lengths, stages


# -- the solver and the multiplicity count, before frame reuse and buckets ----


def _perp_frame(u):
    """Orthonormal basis of u-perp for batched unit vectors u (..., k)."""
    u = np.asarray(u, dtype=float)
    k = u.shape[-1]
    v = u.copy()
    v[..., 0] -= 1.0
    nrm2 = np.sum(v * v, axis=-1)
    degenerate = nrm2 < 1e-24
    safe = np.where(degenerate, 1.0, nrm2)
    frame = np.broadcast_to(np.eye(k)[:, 1:], u.shape[:-1] + (k, k - 1)).copy()
    frame -= 2.0 * v[..., :, None] * (v[..., None, 1:] / safe[..., None, None])
    if np.any(degenerate):
        frame[degenerate] = np.eye(k)[:, 1:]
    return frame


def _tangent_frame(comp, u):
    return comp.matrix @ _perp_frame(u)


def _gauss_newton(manifold, comp0, comp1, u0, u1, iterations):
    """Batched Gauss-Newton on the endpoint perpendicularity system.

    Variables are tangent coordinates of (u0, u1); residuals are the inner
    products of the unit chord direction with the tangent frames at both
    ends.  Square system: (k0-1)+(k1-1) equations in as many unknowns.
    """
    c0 = manifold.components[comp0]
    c1 = manifold.components[comp1]
    t0 = c0.param_dim - 1
    t1 = c1.param_dim - 1
    m = t0 + t1
    u0 = u0.copy()
    u1 = u1.copy()
    alive = np.ones(len(u0), dtype=bool)

    def residual(a0, a1):
        p0 = c0.embed(a0)
        p1 = c1.embed(a1)
        chord = p1 - p0
        dist = np.linalg.norm(chord, axis=1)
        ok = dist > 1e-9
        dirs = chord / np.where(ok, dist, 1.0)[:, None]
        f0 = _tangent_frame(c0, a0)
        f1 = _tangent_frame(c1, a1)
        r0 = np.einsum("sn,snj->sj", dirs, f0)
        r1 = np.einsum("sn,snj->sj", dirs, f1)
        return np.concatenate([r0, r1], axis=1), ok

    h = 1e-7
    work = np.arange(len(u0))
    for _ in range(iterations):
        res, ok = residual(u0[work], u1[work])
        alive[work] &= ok
        # Freeze seeds that are done (or dead) and compact the batch.
        resnorm_w = np.max(np.abs(res), axis=1)
        busy = alive[work] & (resnorm_w > 1e-14)
        if not np.any(busy):
            break
        work = work[busy]
        res = res[busy]
        w0, w1 = u0[work], u1[work]
        jac = np.empty((len(work), m, m))
        f0 = _perp_frame(w0)
        f1 = _perp_frame(w1)
        for col in range(m):
            if col < t0:
                pert0 = _normalize(w0 + h * f0[:, :, col])
                pert1 = w1
            else:
                pert0 = w0
                pert1 = _normalize(w1 + h * f1[:, :, col - t0])
            res_p, _ = residual(pert0, pert1)
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
    res, ok = residual(u0, u1)
    alive &= ok
    resnorm = np.max(np.abs(res), axis=1)
    return u0, u1, resnorm, alive


_REP_BLOCK = 64


def _count_distinct(keys: Iterable[np.ndarray], tol: float) -> int:
    """Greedy count of representatives among endpoint keys, in order.

    A key becomes a new representative unless it lies within ``tol`` (max
    norm) of an earlier representative of the same length; keys from
    component pairs of different dimension never match.  Representatives
    are stacked in blocks of ``_REP_BLOCK`` rows and each key is tested
    against a whole block in one vectorised step; small fixed blocks keep
    the temporaries of that test, and so the peak memory, small.
    """
    reps: dict[int, list] = {}  # key length -> [blocks, rows used in the last block]
    count = 0
    for key in keys:
        slot = reps.setdefault(len(key), [[], _REP_BLOCK])
        blocks, used = slot
        stacks = blocks[:-1] + [blocks[-1][:used]] if blocks else []
        if any(np.any(np.max(np.abs(s - key), axis=1) < tol) for s in stacks):
            continue
        if used == _REP_BLOCK:
            blocks.append(np.empty((_REP_BLOCK, len(key))))
            used = 0
        blocks[-1][used] = key
        slot[1] = used + 1
        count += 1
    return count

