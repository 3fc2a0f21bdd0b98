"""Surd- and Fraction-based routes, kept as test oracles for ``free_dga``.

``free_dga`` validates windows and enumerates words over integer-scaled
lengths, reads differentials from a per-letter table with ``int``
coefficients, and reads degree-0 slices off pivot counts per letter count
in ``_segment_h0``.  The routes here share none of that:

* ``realizable_sums`` is the breadth-first search over ``Surd`` values;
* ``words_of_degree`` enumerates words with ``Surd`` lengths;
* ``leibniz_differential`` writes D(word) out as a sum of ``AlgebraElement``
  products u·D(g)·v with ``Fraction`` coefficients;
* ``h0_dims_by_wordcount`` counts "pivots beyond w" the way the slices were
  first computed;
* ``homology_dims_all`` and ``chord_word_counts`` read every word of the
  window from ``_enumerate_words``, as ``free_dga`` did before it counted
  bases along the length table.  Homology keys each row of
  ``_word_differential`` by word, against a full index of the target
  degree, and ranks each block whole: no counting, live-word walk, column
  numbering on first sight or clearing is shared;
* ``word_weight`` and ``word_key`` look every letter up through
  ``DGA.gen``, and ``filtered_complex`` builds the weight-filtration complex
  that way, one ``_word_differential`` per word keyed by word, as
  ``specseq.from_dga`` did before it read per-letter tables.

They are far too slow for the command line.  ``word_basis``,
``chord_word_counts_all``, ``word_counts_all``, ``degree_counts``,
``word_length`` and ``admits`` are helpers that only the tests call; they
run ``free_dga``'s own enumeration and ``_moves`` table.
``scale`` multiplies an ``AlgebraElement`` by a coefficient.
"""

from __future__ import annotations

from stringhom import free_dga
from stringhom.exactlin import RowReducer, SparseMatrix
from stringhom.free_dga import (
    DGA,
    AlgebraElement,
    LengthWindow,
    _enumerate_words,
    _moves,
    _word_differential,
)
from stringhom.lengths import Surd
from stringhom.specseq import Cell, FilteredComplex


def word_basis(dga: DGA, degree: int, window: LengthWindow) -> list:
    """Canonically ordered basis of the degree slice below the window."""
    window.ensure_valid(dga)
    if degree < 0 and dga.nonneg_graded:
        return []
    # Through the module, so that a patched ``_enumerate_words`` is the one called.
    return [w for w in free_dga._enumerate_words(dga, window, degree)
            if dga.word_degree(w) == degree]


def chord_word_counts_all(dga: DGA, window: LengthWindow) -> dict[int, int]:
    """Per-degree counts of words built only from weight-1 generators.

    Counted along the ``_moves`` table restricted to weight-1 letters;
    degrees with no such word are absent.
    """
    window.ensure_valid(dga)
    light = {g.id for g in dga.generators if g.weight == 1}
    moves = [[m for m in row if m[0] in light] for row in _moves(dga, window)]
    return degree_counts(moves)


def word_counts_all(dga: DGA, window: LengthWindow) -> dict[int, int]:
    """Per-degree counts of the window's words, keyed by every populated degree."""
    window.ensure_valid(dga)
    return degree_counts(_moves(dga, window))


def degree_counts(moves: list) -> dict[int, int]:
    """Number of words per degree along the ``_moves`` table, without listing them.

    ``counts[r][degree]`` counts the words of length rank r and that degree.
    Every move raises the rank, so one pass in rank order pushes each count
    forward by each letter.
    """
    counts: list[dict[int, int]] = [{} for _ in moves]
    counts[0][0] = 1
    total: dict[int, int] = {}
    for here, row in zip(counts, moves):
        for deg, c in here.items():
            total[deg] = total.get(deg, 0) + c
        for _, gdeg, nr in row:
            there = counts[nr]
            for deg, c in here.items():
                there[deg + gdeg] = there.get(deg + gdeg, 0) + c
    return dict(sorted(total.items()))


def word_length(dga: DGA, word) -> Surd:
    total = Surd(0)
    for g in word:
        total = total + dga.gen(g).length
    return total


def admits(window: LengthWindow, length: Surd) -> bool:
    return (length - window.bound).sign() < 0


def realizable_sums(window: LengthWindow, dga: DGA) -> list[Surd]:
    """Every sum of generator lengths up to the window bound + 1, by value."""
    cap = window.bound + 1
    seen = {Surd(0)}
    frontier = [Surd(0)]
    lengths = [g.length for g in dga.generators]
    while frontier:
        nxt = []
        for base in frontier:
            for ell in lengths:
                val = base + ell
                if val <= cap and val not in seen:
                    seen.add(val)
                    nxt.append(val)
        frontier = nxt
    return sorted(seen, key=float)


def words_of_degree(dga: DGA, window: LengthWindow, degree: int) -> list:
    """Words of one degree below the bound, in (length, letter count, lex) order.

    The grading must be nonnegative.  Steps are memoised per (length,
    generator); lengths are ranked by sorting the distinct ``Surd`` values.
    """
    steps: dict = {}  # (length, generator id) -> longer length, or None past the bound
    found = []
    stack = [((), 0, Surd(0))]
    while stack:
        word, deg, length = stack.pop()
        if deg == degree:
            found.append((length, word))
        for g in dga.generators:
            if deg + g.degree > degree:
                continue
            key = (length, g.id)
            if key not in steps:
                longer = length + g.length
                steps[key] = longer if admits(window, longer) else None
            if steps[key] is not None:
                stack.append((word + (g.id,), deg + g.degree, steps[key]))
    rank = {v: r for r, v in enumerate(sorted({length for length, _ in found}))}
    found.sort(key=lambda lw: (rank[lw[0]], len(lw[1]), lw[1]))
    return [word for _, word in found]


def scale(element: AlgebraElement, coeff) -> AlgebraElement:
    return AlgebraElement({w: c * coeff for w, c in element.terms.items()})


def leibniz_differential(dga: DGA, word) -> AlgebraElement:
    """D(g1...gk) = sum_i (-1)^deg(g1...g(i-1)) g1...D(gi)...gk."""
    total = AlgebraElement.zero()
    prefix_degree = 0
    for i, letter in enumerate(word):
        image = dga.diff[letter]
        if not image.is_zero():
            left = AlgebraElement.from_word(word[:i])
            right = AlgebraElement.from_word(word[i + 1 :])
            total = total + scale(left * image * right, -1 if prefix_degree % 2 else 1)
        prefix_degree += dga.gen(letter).degree
    return total


def h0_dims_by_wordcount(dga: DGA, basis0: list, basis1: list, wmax: int) -> list[int]:
    """dim F_w/F_(w-1) of H_0 for the letter-count filtration F.

    ``basis0`` and ``basis1`` are the degree-0 and degree-1 words of the window.
    """
    order = {w: i for i, w in enumerate(sorted(basis0, key=lambda w: (-len(w), w)))}
    red = RowReducer()
    for w in basis1:
        img = leibniz_differential(dga, w)
        if not img.is_zero():
            red.add({order[ww]: c for ww, c in img.terms.items()})
    total_rank = red.rank
    pivot_words = sorted(order, key=order.get)
    pivot_counts = [len(pivot_words[c]) for c in red.pivots]

    def beyond(w: int) -> int:
        return sum(1 for k in pivot_counts if k > w)

    def ambient(w: int) -> int:
        return sum(1 for word in basis0 if len(word) <= w)

    dims = []
    prev = 0
    for w in range(wmax + 1):
        f_w = ambient(w) - (total_rank - beyond(w))
        dims.append(f_w - prev)
        prev = f_w
    return dims


def homology_dims_all(dga: DGA, window: LengthWindow, degrees=None) -> dict[int, int]:
    """Homology dimensions from the enumerated, degree-bucketed window basis."""
    window.ensure_valid(dga)
    wanted = None if degrees is None else sorted(set(degrees))
    if wanted == []:
        return {}
    by_degree: dict[int, list] = {}
    degree_of = {g.id: g.degree for g in dga.generators}
    # Enumeration is already canonically ordered; bucketing preserves it.
    for w in _enumerate_words(dga, window, wanted[-1] + 1 if wanted else None):
        by_degree.setdefault(sum(map(degree_of.__getitem__, w)), []).append(w)
    if wanted is None:
        wanted = sorted(by_degree)
    # The block of degree p is D from degree p to degree p - 1.
    ranks = {}
    for p in sorted({p + k for p in wanted for k in (0, 1)}):
        if p in by_degree and p - 1 in by_degree:
            index = {w: i for i, w in enumerate(by_degree[p - 1])}
            red = RowReducer()
            for w in by_degree[p]:
                img: dict = {}
                _word_differential(dga, w, img, 1)
                if img:
                    red.add({index[ww]: c for ww, c in img.items()})
            ranks[p] = red.rank
    return {p: len(by_degree.get(p, ())) - ranks.get(p, 0) - ranks.get(p + 1, 0) for p in wanted}


def chord_word_counts(dga: DGA, words: list) -> dict[int, int]:
    """Per-degree counts of the words, in enumeration order, built only from weight-1 generators."""
    counts: dict[int, int] = {}
    for w in words:
        if all(dga.gen(g).weight == 1 for g in w):
            d = dga.word_degree(w)
            counts[d] = counts.get(d, 0) + 1
    return counts


def word_weight(dga: DGA, word) -> int:
    return sum(dga.gen(g).weight for g in word)


def word_key(dga: DGA, word):
    """Monomial order: (degree, exact length, letter count, lex on ids)."""
    return (dga.word_degree(word), word_length(dga, word), len(word), word)


def filtered_complex(dga: DGA, window: LengthWindow) -> FilteredComplex:
    """Weight-filtration complex: cell degree and weight from ``DGA.gen`` per letter."""
    window.ensure_valid(dga)
    words = _enumerate_words(dga, window)
    index = {w: i for i, w in enumerate(words)}
    cells = [
        Cell("*".join(w) if w else "1", dga.word_degree(w), -word_weight(dga, w))
        for w in words
    ]
    entries: dict = {}
    for j, w in enumerate(words):
        img: dict = {}
        _word_differential(dga, w, img, 1)
        for ww, c in img.items():
            entries[(index[ww], j)] = c
    return FilteredComplex(cells, SparseMatrix(len(words), len(words), entries))
