"""Spectral sequences of bounded filtered finite chain complexes.

A filtered complex is a finite based chain complex whose boundary never
raises the integer filtration level.  Page r is the subquotient

    Z^r(p, n)  = { x in F_p, degree n : dx in F_(p-r) }
    E^r_(p,q)  = Z^r(p, p+q) / ( Z^(r-1)(p-1, p+q) + d Z^(r-1)(p+r-1, p+q+1) )

but every page is read off the persistence pairs of one exact reduction of
the boundary, ordered by (filtration, index) (Zomorodian-Carlsson; pages
from pairs as in Basu-Parida): a pair whose filtration gap is g lives on
E^1..E^g, and unpaired cells live on every page.  The pairs are computed
once per complex and shared by all pages, E-oo and ``convergence_check``,
which confirms that the E-oo column sums recover the total homology in
every degree; that homology, and the associated graded homology checked
against E^1, are computed independently of the pairs.

``from_dga`` realizes the weight filtration of a length-windowed free DGA:
cells are words, the filtration level of a word is minus its total weight,
and the boundary is the algebra differential.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import Mapping

from . import exactlin, free_dga, jsonio
from .exactlin import RowReducer, SparseMatrix, as_fraction


class FilteredComplexError(Exception):
    pass


@dataclass(frozen=True)
class Cell:
    id: str
    degree: int
    filtration: int


class FilteredComplex:
    """Finite chain complex with a bounded integer filtration."""

    def __init__(self, cells: list[Cell], boundary: SparseMatrix, validate: bool = True):
        self.cells = list(cells)
        if boundary.rows != len(cells) or boundary.cols != len(cells):
            raise FilteredComplexError("boundary shape must match the cell count")
        self.boundary = boundary
        self.index = {c.id: i for i, c in enumerate(self.cells)}
        if len(self.index) != len(self.cells):
            raise FilteredComplexError("duplicate cell ids")
        self._pairs = None
        if validate:
            self.validate()

    def validate(self) -> None:
        for (i, j), v in self.boundary.entries.items():
            src, dst = self.cells[j], self.cells[i]
            if dst.degree != src.degree - 1:
                raise FilteredComplexError(
                    f"boundary of {src.id} hits {dst.id}: degree drop is not 1"
                )
            if dst.filtration > src.filtration:
                raise FilteredComplexError(
                    f"boundary of {src.id} raises filtration at {dst.id}"
                )
        square = self.boundary @ self.boundary
        if square.entries:
            raise FilteredComplexError("boundary squared is nonzero")

    @property
    def filtration_range(self) -> tuple[int, int]:
        if not self.cells:
            return (0, 0)
        levels = [c.filtration for c in self.cells]
        return min(levels), max(levels)

    @property
    def degree_range(self) -> tuple[int, int]:
        if not self.cells:
            return (0, 0)
        degs = [c.degree for c in self.cells]
        return min(degs), max(degs)

    def homology_dims(self) -> dict[int, int]:
        by_degree: dict[int, list[int]] = {}
        for i, c in enumerate(self.cells):
            by_degree.setdefault(c.degree, []).append(i)
        cols = self.boundary.col_dicts()
        return exactlin.homology_dims(
            {n: len(idxs) for n, idxs in by_degree.items()},
            [
                (n, lambda cleared, idxs=idxs: (cols[j] for j in idxs if j not in cleared))
                for n, idxs in by_degree.items()
            ],
        )

    def persistence_pairs(self) -> tuple[list[tuple[int, int]], list[int]]:
        """(lead, column) pairs and unpaired cells of one filtered reduction.

        The standard persistence algorithm: cells are ordered by
        (filtration, index) and each boundary column is added in that order
        to a single ``RowReducer`` whose leading entry is the latest cell in
        the order.  A column that leaves a new pivot pairs its cell with the
        pivot cell; cells in no pair carry the homology.  Computed once per
        complex and cached.
        """
        if self._pairs is None:
            order = sorted(range(len(self.cells)), key=lambda i: (self.cells[i].filtration, i))
            pos = [0] * len(order)
            for k, i in enumerate(order):
                pos[i] = k
            red = RowReducer(col_key=lambda i: -pos[i])
            cols = self.boundary.col_dicts()
            pairs = []
            for j in order:
                if cols[j] and red.add(cols[j]):
                    pairs.append((next(reversed(red.pivots)), j))
            paired = {c for pair in pairs for c in pair}
            self._pairs = (pairs, [i for i in order if i not in paired])
        return self._pairs

    def __repr__(self) -> str:
        return f"FilteredComplex({len(self.cells)} cells)"


@dataclass
class PageTable:
    r: int
    dims: dict[tuple[int, int], int]

    def dim(self, p: int, q: int) -> int:
        return self.dims.get((p, q), 0)

    def nonzero(self) -> list[tuple[int, int, int]]:
        return [(p, q, d) for (p, q), d in sorted(self.dims.items()) if d > 0]

    def total_dims(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for (p, q), d in self.dims.items():
            out[p + q] = out.get(p + q, 0) + d
        return out


def page(fc: FilteredComplex, r: int) -> PageTable:
    """Dimension table of the r-th page (r >= 1), read off the pairs.

    E^r_(p,q) counts the unpaired cells at (p, p+q) plus both ends of
    every pair whose filtration gap is at least r: a pair with gap g
    survives to E^g and is cancelled by the differential d^g.
    """
    if r < 1:
        raise ValueError("page index must be at least 1")
    pairs, unpaired = fc.persistence_pairs()
    cells = fc.cells
    alive = list(unpaired)
    for i, j in pairs:
        if cells[j].filtration - cells[i].filtration >= r:
            alive += (i, j)
    dims: dict[tuple[int, int], int] = {}
    for i in alive:
        key = (cells[i].filtration, cells[i].degree - cells[i].filtration)
        dims[key] = dims.get(key, 0) + 1
    return PageTable(r, dims)


def stable_page_index(fc: FilteredComplex) -> int:
    lo, hi = fc.filtration_range
    return hi - lo + 2


def einfinity(fc: FilteredComplex) -> PageTable:
    """Stable page; pages no longer change beyond the filtration width."""
    table = page(fc, stable_page_index(fc))
    table.r = -1
    return table


def convergence_check(fc: FilteredComplex) -> bool:
    """Does the stable page add up to the homology in every total degree?"""
    einf = einfinity(fc)
    totals = einf.total_dims()
    hom = fc.homology_dims()
    degrees = set(totals) | set(hom)
    return all(totals.get(n, 0) == hom.get(n, 0) for n in degrees)


def from_dga(dga: free_dga.DGA, window: free_dga.LengthWindow) -> FilteredComplex:
    """Weight-filtration complex of a length-windowed DGA.

    Cells are the window's words; a word of total weight m sits in
    filtration -m, so heavier words are deeper in the filtration and the
    differential (which never lowers weight) never raises the level.
    """
    window.ensure_valid(dga)
    words = free_dga._enumerate_words(dga, window, None)
    index = {w: i for i, w in enumerate(words)}
    cells = [
        Cell("*".join(w) if w else "1", dga.word_degree(w), -dga.word_weight(w))
        for w in words
    ]
    entries: dict = {}
    for j, w in enumerate(words):
        img: dict = {}
        free_dga._word_differential(dga, w, img, 1)
        for ww, c in img.items():
            entries[(index[ww], j)] = c
    boundary = SparseMatrix(len(words), len(words), entries)
    return FilteredComplex(cells, boundary)


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


# -- serialization -----------------------------------------------------------


def complex_to_json_dict(fc: FilteredComplex) -> dict:
    return {
        "cells": [
            {"id": c.id, "degree": c.degree, "filtration": c.filtration}
            for c in fc.cells
        ],
        "boundary": [
            {"from": fc.cells[j].id, "to": fc.cells[i].id, "coeff": str(v)}
            for (i, j), v in sorted(fc.boundary.entries.items())
        ],
    }


def complex_from_json_dict(data: Mapping) -> FilteredComplex:
    """Strict inverse of ``complex_to_json_dict``.

    ``cells`` is required, each cell with a string ``id`` and integer
    ``degree`` and ``filtration``; ``boundary`` (default empty) holds
    records with string ``from`` and ``to`` naming cells and a ``coeff``,
    a rational as a string or an integer.  A missing key, a field of the
    wrong JSON type, an unknown cell, a repeated record, a coefficient that
    is not a rational, or a boundary that fails ``validate`` raises
    ``FilteredComplexError``.
    """

    def get(record, key, kinds, what, default=jsonio.REQUIRED):
        return jsonio.field(record, key, kinds, what, FilteredComplexError, default)

    cells = [
        Cell(get(c, "id", str, "cell"), get(c, "degree", int, "cell"),
             get(c, "filtration", int, "cell"))
        for c in get(data, "cells", list, "complex")
    ]
    index = {c.id: i for i, c in enumerate(cells)}
    entries = {}
    for rec in get(data, "boundary", list, "complex", []):
        src, dst = get(rec, "from", str, "boundary record"), get(rec, "to", str, "boundary record")
        if src not in index or dst not in index:
            raise FilteredComplexError(f"boundary record {src} -> {dst} names an unknown cell")
        key = (index[dst], index[src])
        if key in entries:
            raise FilteredComplexError(f"duplicate boundary record {src} -> {dst}")
        coeff = get(rec, "coeff", (str, int), "boundary record")
        try:
            entries[key] = as_fraction(coeff)
        except (ValueError, ZeroDivisionError) as exc:
            raise FilteredComplexError(
                f"boundary record {src} -> {dst}: coefficient {coeff!r} is not a rational"
            ) from exc
    return FilteredComplex(cells, SparseMatrix(len(cells), len(cells), entries))


def save_complex(fc: FilteredComplex, path) -> None:
    with open(path, "w") as fh:
        json.dump(complex_to_json_dict(fc), fh, indent=1, sort_keys=True)


def load_complex(path) -> FilteredComplex:
    return complex_from_json_dict(jsonio.load(path, FilteredComplexError))


def pages_to_csv(tables: list[PageTable], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r", "p", "q", "dim"])
        for t in tables:
            label = "inf" if t.r < 0 else t.r
            for p, q, d in t.nonzero():
                writer.writerow([label, p, q, d])
