"""Subquotient page engine, kept as the test oracle for ``specseq.pages``.

Computes each page straight from the defining formula

    Z^r(p, n)  = { x in F_p, degree n : dx in F_(p-r) }
    E^r_(p,q)  = Z^r(p, p+q) / ( Z^(r-1)(p-1, p+q) + d Z^(r-1)(p+r-1, p+q+1) )

with one kernel and one row reduction per (p, n, r).  It shares no code
with the persistence-pair route, which is what makes it an oracle; it is
far too slow for the command line.

``associated_graded_homology`` is a second independent route, to the first
page only: the homology of each graded piece.  ``total_dims`` totals a
page by degree p + q.
"""

from __future__ import annotations

from fractions import Fraction

from stringhom import exactlin
from stringhom.exactlin import RowReducer, SparseMatrix, Subspace
from stringhom.specseq import FilteredComplex, PageTable


def total_dims(table: PageTable) -> dict[int, int]:
    """The dims of page ``table`` totalled by degree p + q."""
    out: dict[int, int] = {}
    for (p, q), d in table.dims.items():
        out[p + q] = out.get(p + q, 0) + d
    return out


def filtration_range(fc: FilteredComplex) -> tuple[int, int]:
    levels = [c.filtration for c in fc.cells]
    return (min(levels), max(levels)) if levels else (0, 0)


def degree_range(fc: FilteredComplex) -> tuple[int, int]:
    degs = [c.degree for c in fc.cells]
    return (min(degs), max(degs)) if degs else (0, 0)


def stable_page_index(fc: FilteredComplex) -> int:
    """A page index past which pages no longer change: the filtration width plus 2."""
    lo, hi = filtration_range(fc)
    return hi - lo + 2


def kernel_basis(m: SparseMatrix) -> Subspace:
    """Canonical basis of the right kernel {v : m v = 0}.

    One free column per basis vector, read off the reduced rows of ``m``.
    """
    red = RowReducer()
    for row in m.row_dicts():
        red.add(row)
    rows, pivots = red.reduced_rows(), red.pivot_columns()
    pivot_set = set(pivots)
    vectors = []
    for f in range(m.cols):
        if f in pivot_set:
            continue
        vec = {f: Fraction(1)}
        for row, p in zip(rows, pivots):
            coeff = row.get(f)
            if coeff:
                vec[p] = -coeff
        vectors.append(vec)
    return Subspace.from_vectors(m.cols, vectors)


class _PageEngine:
    """Caches the Z^r subspaces of one filtered complex."""

    def __init__(self, fc: FilteredComplex):
        self.fc = fc
        self.n_cells = len(fc.cells)
        self.cols = fc.boundary.col_dicts()
        self._z_cache: dict = {}
        lo, hi = filtration_range(fc)
        self.p_min, self.p_max = lo, hi
        self.width = hi - lo

    def _cells_at(self, p: int, n: int) -> list[int]:
        return [
            i
            for i, c in enumerate(self.fc.cells)
            if c.degree == n and c.filtration <= p
        ]

    def z_space(self, p: int, n: int, r: int) -> Subspace:
        """Z^r(p, n) in global cell coordinates."""
        key = (p, n, r)
        cached = self._z_cache.get(key)
        if cached is not None:
            return cached
        idxs = self._cells_at(p, n)
        if not idxs:
            space = Subspace(self.n_cells, [])
            self._z_cache[key] = space
            return space
        # Constraint rows: components of the boundary in filtration > p - r.
        bad_rows: dict[int, dict[int, Fraction]] = {}
        for col_pos, j in enumerate(idxs):
            for i, v in self.cols[j].items():
                if self.fc.cells[i].filtration > p - r:
                    bad_rows.setdefault(i, {})[col_pos] = v
        m = SparseMatrix(
            self.n_cells,
            len(idxs),
            {(i, c): v for i, row in bad_rows.items() for c, v in row.items()},
        )
        local = kernel_basis(m)
        vectors = [
            {idxs[c]: v for c, v in row.items()} for row in local.basis
        ]
        space = Subspace.from_vectors(self.n_cells, vectors)
        self._z_cache[key] = space
        return space

    def boundary_image(self, space: Subspace) -> list[dict]:
        out = []
        for row in space.basis:
            img: dict = {}
            for j, coeff in row.items():
                for i, v in self.cols[j].items():
                    val = img.get(i, Fraction(0)) + coeff * v
                    if val == 0:
                        img.pop(i, None)
                    else:
                        img[i] = val
            if img:
                out.append(img)
        return out

    def page_dim(self, p: int, q: int, r: int) -> int:
        n = p + q
        z = self.z_space(p, n, r)
        if z.dim == 0:
            return 0
        red = RowReducer()
        for row in self.z_space(p - 1, n, r - 1).basis:
            red.add(row)
        for row in self.boundary_image(self.z_space(p + r - 1, n + 1, r - 1)):
            red.add(row)
        boundary_dim = red.rank
        # All boundary-part vectors lie inside Z^r, so the subquotient
        # dimension is a plain difference.
        return z.dim - boundary_dim


def oracle_pages(fc: FilteredComplex, rs) -> list[PageTable]:
    """Page tables for each r in ``rs``; r = -1 stands for E-oo."""
    eng = _PageEngine(fc)
    n_lo, n_hi = degree_range(fc)
    tables = []
    for r in rs:
        r_eff = stable_page_index(fc) if r < 0 else r
        dims = {}
        for p in range(eng.p_min, eng.p_max + 1):
            for n in range(n_lo, n_hi + 1):
                d = eng.page_dim(p, n - p, r_eff)
                if d:
                    dims[(p, n - p)] = d
        tables.append(PageTable(r, dims))
    return tables


def associated_graded_homology(fc: FilteredComplex) -> dict[tuple[int, int], int]:
    """Homology of each graded piece; independent route to the first page.

    The level-p graded piece keeps cells of filtration exactly p with the
    boundary projected back to level p.
    """
    out: dict[tuple[int, int], int] = {}
    levels = sorted({c.filtration for c in fc.cells})
    cols = fc.boundary.col_dicts()
    for p in levels:
        idxs = [i for i, c in enumerate(fc.cells) if c.filtration == p]
        sub = {j: k for k, j in enumerate(idxs)}
        by_degree: dict[int, list[int]] = {}
        for j in idxs:
            by_degree.setdefault(fc.cells[j].degree, []).append(j)
        dims = exactlin.homology_dims(
            {n: len(js) for n, js in by_degree.items()},
            [
                (n, lambda cleared, js=js: (
                    {sub[i]: v for i, v in cols[j].items() if i in sub}
                    for j in js if sub[j] not in cleared
                ))
                for n, js in by_degree.items()
            ],
        )
        for n, dim in dims.items():
            if dim:
                out[(p, n - p)] = dim
    return out
