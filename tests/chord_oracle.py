"""Descent-then-polish chord search, kept as a test oracle.

The spectrum search once ran this phase before its Gauss-Newton solve:
a strided subset of the seed grid (at most ``DESCENT_SEED_CAP`` seeds per
ordered component pair) descends L_r down ``cfg.r_schedule`` with
``cfg.max_iter_per_stage`` iterations per stage, each stage settling to
``DESCENT_STAGE_TOL``; the descended endpoints are then polished by
Gauss-Newton and filtered by the search's length window.  It found no
chord that Gauss-Newton from the raw grid misses, so the search no longer
runs it; the oracle keeps the claim checked, and exercises the batched
flow on the acceptance configurations.
"""

import numpy as np

from stringhom import chords

DESCENT_SEED_CAP = 256
DESCENT_STAGE_TOL = 1e-4


def descent_search(manifold, cfg):
    """Descend, polish and window-filter every ordered component pair.

    Returns ``(lengths, stages)``: the lengths of the chords the polish
    converges to inside the window, and one ``(r, before, after)`` triple
    per descent stage, holding the batch's points at the start and at the
    end of that stage.
    """
    bound, b0, eps_g = cfg.resolved_bounds()
    stage_tol = max(cfg.grad_tol, DESCENT_STAGE_TOL)
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
            t = np.linspace(0.0, 1.0, cfg.nu + 1)[None, :, None]
            p0, p1 = c0.embed(d0), c1.embed(d1)
            points = (1 - t) * p0[:, None, :] + t * p1[:, None, :]
            state = chords._DescentState(manifold, i, j, d0, d1, points)
            for r in cfg.r_schedule:
                before = state.points.copy()
                state.run_stage(r, stage_tol, cfg.max_iter_per_stage)
                stages.append((r, before, state.points.copy()))
            out0, out1, resnorm, alive = chords._gauss_newton(
                manifold, i, j, state.u0, state.u1, cfg.gn_iterations
            )
            good = alive & (resnorm < cfg.grad_tol) & ~np.any(np.isnan(out0), axis=1)
            lens = np.linalg.norm(c1.embed(out1[good]) - c0.embed(out0[good]), axis=1)
            keep = (lens >= cfg.eps_min) & (lens < min(bound, b0)) & (lens / cfg.nu < eps_g)
            lengths.extend(float(x) for x in lens[keep])
    return lengths, stages
