"""Homology of a whole length window, degree by degree, counting each
degree's basis and walking only the words with a live letter: the tests'
reference route for ``free_dga.homology_dims_all`` and
``free_dga.h0_dims_by_wordcount``."""

from __future__ import annotations

from collections import Counter
from functools import partial

from stringhom import exactlin
from stringhom.exactlin import RowReducer
from stringhom.free_dga import DGA, UNIT, Word, _degree_counts, _diff_rows


def quotient_slice_dims(slice_sizes: list[int], pivot_weights) -> list[int]:
    """Slices dim F_w/F_(w-1) of V/R: weight-w basis vectors minus weight-w pivots of R."""
    per_weight = Counter(pivot_weights)
    return [size - per_weight[w] for w, size in enumerate(slice_sizes)]


def _live_words(dga: DGA, moves: list, degrees: set[int]) -> dict[int, list[Word]]:
    """Words of the given degrees that contain a letter with D != 0.

    Depth-first along ``_moves``: first the prefixes made of dead letters
    (D = 0), then, from each live letter appended to one, every word that
    continues it.  A prefix is kept only while some suffix that fits in the
    window can still complete it to a wanted word: per rank, the degrees of
    all suffixes that fit and of those with a live letter are tabulated
    first, from the top rank down.  That prunes above the largest wanted
    degree under a nonnegative grading, and drops dead prefixes with no
    room left for a live letter; with no live letter nothing is walked.
    """
    dead = dga._dead
    tails: list[set[int]] = [set() for _ in moves]
    live_tails: list[set[int]] = [set() for _ in moves]
    for r in reversed(range(len(moves))):
        tails[r].add(0)
        for gid, gdeg, nr in moves[r]:
            tails[r].update(gdeg + t for t in tails[nr])
            live_tails[r].update(gdeg + t for t in (live_tails[nr] if gid in dead else tails[nr]))
    # Degrees a prefix ending at rank r may have and still complete to a
    # wanted word; a prefix with no live letter still needs one.
    fits_dead = [{s - t for s in degrees for t in ts} for ts in live_tails]
    fits = [{s - t for s in degrees for t in ts} for ts in tails]
    found: dict[int, list[Word]] = {p: [] for p in sorted(degrees)}
    prefixes = [(UNIT, 0, 0)] if 0 in fits_dead[0] else []
    words = []
    while prefixes:
        word, deg, r = prefixes.pop()
        for gid, gdeg, nr in moves[r]:
            ndeg = deg + gdeg
            if gid in dead:
                if ndeg in fits_dead[nr]:
                    prefixes.append((word + (gid,), ndeg, nr))
            elif ndeg in fits[nr]:
                words.append((word + (gid,), ndeg, nr))
    while words:
        word, deg, r = words.pop()
        if deg in found:
            found[deg].append(word)
        for gid, gdeg, nr in moves[r]:
            ndeg = deg + gdeg
            if ndeg in fits[nr]:
                words.append((word + (gid,), ndeg, nr))
    return found


def blockwise_dims(dga: DGA, moves: list, wanted: list[int]) -> dict[int, int]:
    """Homology at the sorted degrees ``wanted`` of the window ``moves`` spans.

    No word list is built.  The basis size of each degree is counted by one
    dynamic program over the ``_moves`` table, ``counts[rank][degree]``
    pushed forward by each letter.  Rows of D come only from words
    with a live letter (D != 0) in a degree that sources a needed block,
    found in one walk; each block numbers its columns on first sight.  The
    block from degree p to p - 1 serves both H_p and H_(p-1), and
    ``exactlin.homology_dims`` ranks the blocks from the top down with
    clearing.
    """
    sizes = _degree_counts(moves)
    # The block of degree p is D from degree p to degree p - 1.
    sources = _live_words(
        dga, moves,
        {p + k for p in wanted for k in (0, 1) if p + k in sizes and p + k - 1 in sizes},
    )
    # columns[q] numbers the degree-q words on first sight as columns of
    # the block of degree q + 1; the block of degree q reads it to find its
    # cleared sources and then drops it, as it drops its own sources.
    columns: dict[int, dict[Word, int]] = {}

    def rows(p: int, cleared):
        above = columns.pop(p, {})
        live = (w for w in sources.pop(p) if above.get(w) not in cleared)
        return _diff_rows(dga, live, columns.setdefault(p - 1, {}))

    blocks = [(p, partial(rows, p)) for p in sources]
    return exactlin.homology_dims({p: sizes.get(p, 0) for p in wanted}, blocks)


def blockwise_h0(dga: DGA, moves: list, wmax: int) -> list[int]:
    """H_0 slices of the window ``moves`` spans, walking its degree-0 words and, per
    rank, the degree-0 suffixes that still fit; no degree-1 word is enumerated."""
    moves0 = [[(gid, r) for gid, deg, r in row if deg == 0] for row in moves]
    live = {g.id: dga._letters[g.id][1] for g in dga.generators
            if g.degree == 1 and g.id not in dga._dead}
    moves1 = [[(live[gid], r) for gid, _, r in row if gid in live] for row in moves]

    def walk(start: int) -> list[tuple[Word, int]]:
        """Degree-0 words that fit after a prefix of rank ``start``, with end ranks."""
        found = []
        stack = [(UNIT, start)]
        while stack:
            word, r = stack.pop()
            found.append((word, r))
            for gid, nr in moves0[r]:
                stack.append((word + (gid,), nr))
        return found

    basis0 = walk(0)
    # Columns by decreasing letter count, so that each pivot is the longest
    # word of its row.
    columns = sorted((w for w, _ in basis0), key=lambda w: (-len(w), w))
    index = {w: i for i, w in enumerate(columns)}
    suffixes: dict[int, list[Word]] = {}
    red = RowReducer()
    for u, r in basis0:
        for terms, r1 in moves1[r]:
            tails = suffixes.get(r1)
            if tails is None:
                tails = suffixes[r1] = [v for v, _ in walk(r1)]
            for v in tails:
                red.add({index[u + t + v]: c for t, c in terms})
    per_count = Counter(map(len, columns))
    sizes = [per_count[k] for k in range(wmax + 1)]
    return quotient_slice_dims(sizes, (len(columns[c]) for c in red.pivots))
