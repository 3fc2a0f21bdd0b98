"""Spectral sequences of bounded filtered finite chain complexes.

A filtered complex is a finite based chain complex whose boundary never
raises the integer filtration level.  Page r is the subquotient

    Z^r(p, n)  = { x in F_p, degree n : dx in F_(p-r) }
    E^r_(p,q)  = Z^r(p, p+q) / ( Z^(r-1)(p-1, p+q) + d Z^(r-1)(p+r-1, p+q+1) )

Over a field the complex splits into single cells and pairs with a
filtration gap g (Zomorodian-Carlsson; pages from pairs as in
Basu-Parida): a pair lives on E^1..E^g, and a single cell on every page.
So every page is read off the complex's barcode, its cells counted by
(filtration, degree, gap), with gap ``math.inf`` for an unpaired cell.
``FilteredComplex.barcode`` reads it off the persistence pairs of one exact
reduction, ordered by (filtration, index).

``from_dga`` realizes the weight filtration of a length-windowed free DGA:
cells are words, the filtration level of a word is minus its total weight,
and the boundary is the algebra differential.  ``dga_barcode`` builds that
complex block by block, as ``free_dga.homology_dims_all`` ranks it: where
the DGA splits by composable segments, the window is a direct sum of
tensor products of segment blocks, and the tensor of a pair with gap g and
a pair with gap h is two pairs with gap min(g, h), so the window's barcode
is the blocks' barcodes convolved; otherwise the whole window is one
block.  ``barcode`` raises ``ConvergenceFailure`` unless its unpaired
cells, totalled by degree, equal the complex's homology computed without
persistence; an unpaired cell of a tensor is unpaired in both factors, so
checking every block checks the window.  One function, ``pages``, reads
E^1..E^r and E-oo off the barcode.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from collections.abc import Mapping

from . import exactlin, free_dga, jsonio
from .exactlin import RowReducer, SparseMatrix, as_fraction


class FilteredComplexError(Exception):
    pass


class ConvergenceFailure(Exception):
    """The unpaired cells of a barcode differ from the homology: a page is wrong."""


Cell = namedtuple("Cell", "id degree filtration")


class FilteredComplex:
    """Finite chain complex with a bounded integer filtration."""

    def __init__(self, cells: list[Cell], boundary: SparseMatrix):
        self.cells = list(cells)
        if boundary.rows != len(cells) or boundary.cols != len(cells):
            raise FilteredComplexError("boundary shape must match the cell count")
        self.boundary = boundary
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

    def homology_dims(self) -> dict[int, int]:
        by_degree: dict[int, list[int]] = {}
        for i, c in enumerate(self.cells):
            by_degree.setdefault(c.degree, []).append(i)
        return exactlin.homology_dims({n: len(idxs) for n, idxs in by_degree.items()},
                                      by_degree, self.boundary.col_dicts().__getitem__)

    def barcode(self) -> dict[tuple, int]:
        """Cells counted by (filtration, degree, gap), from one filtered reduction.

        The standard persistence algorithm: cells are ordered by
        (filtration, index) and each boundary column is added in that order
        to a single ``RowReducer``.  Its rows are numbered latest cell first,
        so the pivot of a column is its latest cell in the order.  A column
        that leaves a new pivot pairs its cell with the pivot cell, and both
        carry the pair's filtration gap; a cell in no pair carries the
        homology, and the gap ``math.inf``.  Raises ``ConvergenceFailure``
        unless the unpaired cells, totalled by degree, equal
        ``homology_dims``, whose clearing ranks use no persistence.
        """
        cells = self.cells
        order = sorted(range(len(cells)), key=lambda i: (cells[i].filtration, i))
        latest_first = order[::-1]
        number = {i: k for k, i in enumerate(latest_first)}
        cols: list[dict] = [{} for _ in cells]
        for (i, j), v in self.boundary.entries.items():
            cols[j][number[i]] = v
        red = RowReducer()
        gaps = dict.fromkeys(order, math.inf)
        for j in order:
            if cols[j] and red.add(cols[j], owned=True):
                i = latest_first[next(reversed(red.pivots))]
                gaps[i] = gaps[j] = cells[j].filtration - cells[i].filtration
        unpaired = Counter(cells[k].degree for k, g in gaps.items() if g == math.inf)
        homology = self.homology_dims()
        for n in sorted(set(unpaired) | set(homology)):
            if unpaired[n] != homology.get(n, 0):
                raise ConvergenceFailure(f"degree {n}: E-oo has {unpaired[n]} cells, "
                                         f"homology dimension {homology.get(n, 0)}")
        return Counter((cells[k].filtration, cells[k].degree, g) for k, g in gaps.items())

    def __repr__(self) -> str:
        return f"FilteredComplex({len(self.cells)} cells)"


class PageTable(namedtuple("PageTable", "r dims")):
    """Page E^r as ``dims[p, q]``; E-oo has ``r == -1``."""

    __slots__ = ()

    def nonzero(self) -> list[tuple[int, int, int]]:
        return [(p, q, d) for (p, q), d in sorted(self.dims.items()) if d > 0]


def page(bars: dict[tuple, int], r) -> PageTable:
    """E^r_(p,q): the cells of the barcode ``bars`` at (p, p+q) whose gap is at least r.

    A pair with gap g survives to E^g and is cancelled by the differential
    d^g; with r = ``math.inf`` only the unpaired cells are left, as on E-oo.
    """
    dims: dict[tuple[int, int], int] = {}
    for (p, n, gap), count in bars.items():
        if gap >= r:
            dims[p, n - p] = dims.get((p, n - p), 0) + count
    return PageTable(r, dims)


def pages(bars: dict[tuple, int], rmax: int) -> list[PageTable]:
    """E^1..E^rmax of the barcode ``bars``, then E-oo (r = -1).

    ``FilteredComplex.barcode`` has checked E-oo against the homology.
    """
    if rmax < 1:
        raise free_dga.ParameterOutOfRange("rmax must be at least 1")
    return [page(bars, r) for r in range(1, rmax + 1)] + [PageTable(-1, page(bars, math.inf).dims)]


def _tensor(a: tuple, b: tuple) -> tuple:
    """(filtration, degree, gap) of the tensor of two barcode cells."""
    return a[0] + b[0], a[1] + b[1], min(a[2], b[2])


def dga_barcode(dga: free_dga.DGA, window: free_dga.LengthWindow) -> dict[tuple, int]:
    """Barcode of the weight-filtered complex of ``destabilize(dga)``'s window.

    ``window`` is validated on ``dga``, whose lengths include those of the
    letters ``destabilize`` drops.  Each block of ``free_dga._over_blocks``
    is built as ``from_dga`` builds the window, and its barcode read off
    and checked against its homology; a tensor of pairs with gaps g and h
    splits into two pairs with gap min(g, h), so the segment blocks' keys
    combine by ``_tensor``.
    """
    def block_barcode(small, by_deg):
        return _complex(small, [w for words in by_deg.values() for w in words]).barcode()

    return free_dga._over_blocks(dga, window, None, None, block_barcode,
                                 _tensor, (0, 0, math.inf))


def from_dga(dga: free_dga.DGA, window: free_dga.LengthWindow) -> FilteredComplex:
    """Weight-filtration complex of a length-windowed DGA.

    Cells are the window's words; a word of total weight m sits in
    filtration -m, so heavier words are deeper in the filtration and the
    differential (which never lowers weight) never raises the level.
    """
    window.ensure_valid(dga)
    return _complex(dga, free_dga._enumerate_words(dga, window))


def _complex(dga: free_dga.DGA, words: list) -> FilteredComplex:
    """Weight-filtered complex on ``words``, which D must map into their span.

    Degree and weight are summed from per-letter tables built once, and
    column j is ``free_dga._row`` of word j.  Cell ids join letters with
    ``*`` and need not be unique.
    """
    index = {w: i for i, w in enumerate(words)}
    degree = {g.id: g.degree for g in dga.generators}.__getitem__
    weight = {g.id: g.weight for g in dga.generators}.__getitem__
    cells = [
        Cell("*".join(w) if w else "1", sum(map(degree, w)), -sum(map(weight, w)))
        for w in words
    ]
    entries: dict = {}
    for j, w in enumerate(words):
        entries.update(((i, j), c) for i, c in free_dga._row(dga, w, index).items())
    boundary = SparseMatrix(len(words), len(words), entries)
    return FilteredComplex(cells, boundary)


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
    wrong JSON type, a repeated cell id, an unknown cell, a repeated
    record, a coefficient that is not a rational, or a boundary that fails
    ``validate`` raises ``FilteredComplexError``.
    """

    def get(record, key, kinds, what, default=jsonio.REQUIRED):
        return jsonio.field(record, key, kinds, what, FilteredComplexError, default)

    cells = [
        Cell(get(c, "id", str, "cell"), get(c, "degree", int, "cell"),
             get(c, "filtration", int, "cell"))
        for c in get(data, "cells", list, "complex")
    ]
    index = {c.id: i for i, c in enumerate(cells)}
    if len(index) != len(cells):
        raise FilteredComplexError("duplicate cell ids")
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
    jsonio.save(path, complex_to_json_dict(fc))


def load_complex(path) -> FilteredComplex:
    return complex_from_json_dict(jsonio.load(path, FilteredComplexError))
