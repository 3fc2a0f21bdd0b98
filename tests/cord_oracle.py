"""The tests' references for ``cord``.

``padded_quotient_dims`` is the padded-echelon route of the cord slices,
the reference for ``cord.quotient_dims_by_wordcount``, which reads the same
slices as H_0 of ``cord.presentation_dga``.  After the Tietze pass every
leftover relation row is padded on both sides by words over the surviving
alphabet, inside the letter-count cap, and the padded rows are echelonned
with longer words first.  This shares the Tietze pass with ``cord`` and
nothing of the DGA, window or segment machinery.

``hopf_skein_by_cosets`` is the Hopf-link skein table derived from the
path classes themselves: exponent vectors in Z^2 taken modulo the end
longitudes, the reference for the depth rule of
``cord.builtin_presentation("hopf_link", kmax)``.
"""

from __future__ import annotations

from blockwise_oracle import quotient_slice_dims

from stringhom.cord import (
    BoundExceeded,
    CordError,
    CordGenerator,
    CordPresentation,
    SkeinInstance,
    Word,
    _extract_rewrites,
)
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

    # Echelon with longer words first, so each pivot is its row's longest
    # word: a column is keyed (-letters, word), and the smallest key leads.
    red = RowReducer()
    for row in padded:
        red.add({(-len(w), w): c for w, c in row.items()})
    asize = len(alphabet)
    return quotient_slice_dims([asize**k for k in range(width)], (-k for k, _ in red.pivots))


class _HopfClass:
    """Path classes for the Hopf link: Z^2 modulo the end longitudes.

    A class from component i to component j is the coset of an exponent
    vector (e0, e1) modulo the subgroup generated by the longitudes of the
    two ends; the longitude of component i is the other meridian, so
    same-component classes keep the own-meridian power and cross classes
    are single cosets.
    """

    @staticmethod
    def normalize(i: int, j: int, e: tuple[int, int]):
        if i == j:
            return ("self", i, e[i])
        return ("cross", i, j)

    @staticmethod
    def symbol(cls, kmax: int):
        kind = cls[0]
        if kind == "self":
            _, i, power = cls
            if power < 0 or power > kmax:
                return None
            return f"s{i}{i}_{power}"
        _, i, j = cls
        return f"x{i}{j}"


def hopf_skein_by_cosets(kmax: int) -> list[SkeinInstance]:
    """The Hopf-link skein instances, in the order of composable pairs (g1, g2).

    Each pair's concatenation and meridian insertion are added as exponent
    vectors and named through their cosets; an instance whose inserted
    class lies beyond the truncation depth kmax is dropped.
    """
    gens = []
    for i in (0, 1):
        for k in range(kmax + 1):
            gens.append(CordGenerator(f"s{i}{i}_{k}", i, i, depth=k))
    gens.append(CordGenerator("x01", 0, 1, depth=0))
    gens.append(CordGenerator("x10", 1, 0, depth=0))
    by_symbol = {}
    for g in gens:
        by_symbol[g.id] = g

    def lift(gid: str) -> tuple[int, int, int, tuple[int, int]]:
        g = by_symbol[gid]
        if gid.startswith("s"):
            e = [0, 0]
            e[g.source] = g.depth
            return g.source, g.target, (e[0], e[1])
        return g.source, g.target, (0, 0)

    skein = []
    for g1 in gens:
        for g2 in gens:
            if g1.target != g2.source:
                continue
            c = g1.target
            i1, _, e1 = lift(g1.id)
            _, j2, e2 = lift(g2.id)
            concat = (e1[0] + e2[0], e1[1] + e2[1])
            inserted = list(concat)
            inserted[c] += 1
            sym_c = _HopfClass.symbol(_HopfClass.normalize(i1, j2, concat), kmax)
            sym_i = _HopfClass.symbol(
                _HopfClass.normalize(i1, j2, tuple(inserted)), kmax
            )
            if sym_c is None or sym_i is None:
                continue
            skein.append(SkeinInstance(sym_c, sym_i, g1.id, g2.id))
    return skein
