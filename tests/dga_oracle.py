"""Surd- and Fraction-based routes, kept as test oracles for ``free_dga``.

``free_dga`` validates windows and enumerates words over integer-scaled
lengths, reads differentials from a per-letter table with ``int``
coefficients, and reads degree-0 slices through
``exactlin.quotient_slice_dims``.  The routes here share none of that:

* ``realizable_sums`` is the breadth-first search over ``Surd`` values;
* ``words_of_degree`` enumerates words with ``Surd`` lengths;
* ``leibniz_differential`` writes D(word) out as a sum of ``AlgebraElement``
  products u·D(g)·v with ``Fraction`` coefficients;
* ``h0_dims_by_wordcount`` counts "pivots beyond w" the way the slices were
  first computed.

They are far too slow for the command line.
"""

from __future__ import annotations

from stringhom.exactlin import RowReducer
from stringhom.free_dga import DGA, AlgebraElement, LengthWindow
from stringhom.lengths import Surd


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
                steps[key] = longer if window.admits(longer) else None
            if steps[key] is not None:
                stack.append((word + (g.id,), deg + g.degree, steps[key]))
    rank = {v: r for r, v in enumerate(sorted({length for length, _ in found}))}
    found.sort(key=lambda lw: (rank[lw[0]], len(lw[1]), lw[1]))
    return [word for _, word in found]


def leibniz_differential(dga: DGA, word) -> AlgebraElement:
    """D(g1...gk) = sum_i (-1)^deg(g1...g(i-1)) g1...D(gi)...gk."""
    total = AlgebraElement.zero()
    prefix_degree = 0
    for i, letter in enumerate(word):
        image = dga.diff[letter]
        if not image.is_zero():
            left = AlgebraElement.from_word(word[:i])
            right = AlgebraElement.from_word(word[i + 1 :])
            total = total + (left * image * right).scale(-1 if prefix_degree % 2 else 1)
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
