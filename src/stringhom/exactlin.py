"""Exact sparse linear algebra over the rationals.

Every dimension computed by this package (homology groups, spectral sequence
pages, cord quotients) comes down to ranks of sparse matrices whose entries
are small integers or exact rationals.  A rank that is off by one is
worthless, so no floating point ever enters.  ``RowReducer`` keeps entries
as ``int`` while they stay integral (a lead of +-1 is normalised by
negation) and moves to ``fractions.Fraction`` only when it divides by a
lead that is not +-1; the built-in differentials never need it.

``homology_dims`` is the one place where homology dimensions are formed
from block ranks, taken from the top degree down with clearing; only it
decides which cells' boundaries to ask for.  Matrices
store a ``(row, col) -> int or Fraction`` map with no explicit zeros
(``int`` entries stay ``int``, as in ``RowReducer``); row vectors are plain
``{col: int or Fraction}`` dicts.
Reduced row echelon form is canonical for a given row space, which makes
every basis produced here deterministic regardless of input order.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from fractions import Fraction


def as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) or isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class SparseMatrix:
    """Immutable sparse matrix over Q; ``int`` entries are kept as ``int``."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Mapping | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        self.rows = rows
        self.cols = cols
        clean = {}
        for (i, j), v in (entries or {}).items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry ({i},{j}) out of range")
            v = v if type(v) is int else as_fraction(v)
            if v != 0:
                clean[(i, j)] = v
        self.entries = clean

    def row_dicts(self) -> list[dict]:
        out = [dict() for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            out[i][j] = v
        return out

    def col_dicts(self) -> list[dict]:
        out = [dict() for _ in range(self.cols)]
        for (i, j), v in self.entries.items():
            out[j][i] = v
        return out

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        cols_of_other = other.row_dicts()
        entries: dict = {}
        for (i, k), v in self.entries.items():
            for j, w in cols_of_other[k].items():
                key = (i, j)
                entries[key] = entries.get(key, 0) + v * w
        return SparseMatrix(self.rows, other.cols, entries)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={len(self.entries)})"


def _clean(row: Mapping) -> dict:
    """A fresh copy of ``row`` without zeros, entries ``int`` or ``Fraction``."""
    return {c: v if type(v) is int else as_fraction(v) for c, v in row.items() if v != 0}


class RowReducer:
    """Incremental Gaussian elimination keeping one pivot row per column.

    ``add`` reduces a row against the current pivots and installs it if a new
    pivot emerges.  ``reduced_rows`` back-substitutes to full RREF, which is
    the canonical basis of the accumulated row space.

    A row's pivot is its smallest column, so a caller sets the pivot order
    by how it numbers the columns: ``FilteredComplex.barcode`` numbers its
    cells latest first, and ``free_dga._segment_h0`` its words heaviest
    first.  Ranks restricted to a prefix of the columns can then be read
    off the pivot positions.
    """

    def __init__(self):
        self.pivots: dict = {}  # pivot column -> row dict (leading coeff 1)

    def reduce(self, row: Mapping) -> dict:
        """Return the residual of ``row`` after reduction, without inserting."""
        return self._reduce(_clean(row))[0]

    def _reduce(self, row: dict) -> tuple[dict, object]:
        """Reduce ``row`` in place; return it and its leading column (None when zero)."""
        pivots = self.pivots
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                return row, lead
            coeff = row[lead]
            for c, v in piv.items():
                nv = row.get(c, 0) - coeff * v
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
        return row, None

    def add(self, row: Mapping, owned: bool = False) -> bool:
        """Reduce and insert; True if the row enlarged the span.

        ``owned`` hands over a fresh dict of nonzero ``int`` or ``Fraction``
        entries, which is reduced in place and may be kept as a pivot row;
        otherwise the row is copied, its zeros dropped and its entries made
        exact first.
        """
        res, lead = self._reduce(row if owned else _clean(row))
        if not res:
            return False
        v = res[lead]
        if v == -1:
            res = {c: -x for c, x in res.items()}
        elif v != 1:
            inv = Fraction(1) / v
            res = {c: x * inv for c, x in res.items()}
        self.pivots[lead] = res
        return True

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def contains(self, row: Mapping) -> bool:
        return not self.reduce(row)

    def pivot_columns(self) -> list:
        return sorted(self.pivots)

    def reduced_rows(self) -> list[dict]:
        """Full RREF rows, sorted by pivot column."""
        cols = self.pivot_columns()
        # Back-substitute from the last pivot upwards.  A fully reduced row
        # has entries only at its own pivot and at non-pivot columns, so one
        # pass over the snapshot suffices.
        final: dict = {}
        for col in reversed(cols):
            row = dict(self.pivots[col])
            for c in [c for c in list(row) if c != col and c in final]:
                coeff = row[c]
                for cc, vv in final[c].items():
                    nv = row.get(cc, 0) - coeff * vv
                    if nv:
                        row[cc] = nv
                    else:
                        row.pop(cc, None)
            final[col] = row
        return [final[c] for c in cols]


def homology_dims(sizes: Mapping[int, int], sources: Mapping, column: Callable) -> dict[int, int]:
    """dim H_n = sizes[n] - rank d_n - rank d_(n+1) for each degree n of ``sizes``.

    ``sources[n]`` lists the cells of degree n whose boundary may be asked
    for, and ``column(cell)`` gives that boundary, d_n of the cell, as a
    fresh dict of nonzero ``int`` or ``Fraction`` entries keyed by cells of
    degree n - 1, consumed here.  A degree not in ``sources`` has d_n = 0;
    cell names are unique across degrees.  Empty columns are skipped, and
    each block d_n gets its own reducer.

    Blocks are ranked from the top degree down, with clearing: a cell that
    is a pivot column of the block just ranked is never asked for, as its
    row would leave the rank of d_n unchanged:

    * a pivot row R of d_(n+1) is a boundary, so D(R) = 0;
    * R's lead has coefficient 1 and its other columns come later, so D of
      the lead is a combination of the D-rows of R's later columns;
    * by induction from the last column down, the rows of the cells that
      are no pivot already span the image of d_n.
    """
    ranks, cleared = {}, {}
    for n in sorted(sources, reverse=True):
        red = RowReducer()
        for cell in sources[n]:
            if cell not in cleared and (row := column(cell)):
                red.add(row, owned=True)
        ranks[n], cleared = red.rank, red.pivots
    return {n: size - ranks.get(n, 0) - ranks.get(n + 1, 0) for n, size in sizes.items()}


class Subspace:
    """Subspace of Q^n held as canonical RREF basis rows."""

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis: list[dict]):
        self.ambient_dim = ambient_dim
        self.basis = basis

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable[Mapping]) -> "Subspace":
        red = RowReducer()
        for v in vectors:
            for c in v:
                if not 0 <= c < ambient_dim:
                    raise ValueError("coordinate out of range")
            red.add(v)
        return cls(ambient_dim, red.reduced_rows())

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vec: Mapping) -> bool:
        red = RowReducer()
        for row in self.basis:
            red.add(row)
        return red.contains(vec)

    def sum(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return Subspace.from_vectors(self.ambient_dim, self.basis + other.basis)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"
