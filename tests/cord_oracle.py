"""The padded-echelon route of the cord slices: the tests' reference for
``cord.quotient_dims_by_wordcount``, which reads the same slices as H_0 of
``cord.presentation_dga``.

After the Tietze pass every leftover relation row is padded on both sides
by words over the surviving alphabet, inside the letter-count cap, and the
padded rows are echelonned with longer words first.  This shares the Tietze
pass with ``cord`` and nothing of the DGA, window or segment machinery.
"""

from __future__ import annotations

from blockwise_oracle import quotient_slice_dims

from stringhom.cord import BoundExceeded, CordError, CordPresentation, Word, _extract_rewrites
from stringhom.exactlin import RowReducer


def padded_quotient_dims(pres: CordPresentation, wmax: int) -> list[int]:
    """Letter-count slice dimensions of the presented quotient algebra.

    Relation rows are padded by words up to wmax + 1 letters and the slices
    are read off the pivots of one echelon pass.
    """
    if wmax < 0:
        raise CordError("wmax must be nonnegative")
    if wmax > pres.bound:
        raise BoundExceeded(f"wmax {wmax} exceeds presentation bound {pres.bound}")
    table, leftovers = _extract_rewrites(pres, pres.relation_rows())
    alphabet = sorted(g.id for g in pres.generators if g.id not in table)
    width = wmax + 1

    # Two-sided padding of every leftover row inside the letter-count cap.
    padded: list[dict] = []

    def pad_words(max_len: int):
        frontier: list[Word] = [()]
        out = [()]
        for _ in range(max_len):
            frontier = [w + (g,) for w in frontier for g in alphabet]
            out.extend(frontier)
        return out

    for row in leftovers:
        row_len = max(len(w) for w in row)
        if row_len > width:
            continue
        budget = width - row_len
        pads = pad_words(budget)
        for u in pads:
            for v in pads:
                if len(u) + len(v) > budget:
                    continue
                padded.append({u + w + v: c for w, c in row.items()})

    # Echelon with longer words first, so each pivot is its row's longest word.
    red = RowReducer(col_key=lambda w: (-len(w), w))
    for row in padded:
        red.add(row)
    asize = len(alphabet)
    return quotient_slice_dims([asize**k for k in range(width)], (len(w) for w in red.pivots))
