"""Tame changes of generators, for tests.

A tame automorphism ψ of the free algebra sends one letter x to x + w,
with w a word without x, and fixes every other letter.  Its inverse sends
x to x - w, and D' = ψ⁻¹Dψ is a differential that ψ carries to D.  When w
has x's degree and is no longer than x, ψ and ψ⁻¹ keep every length
window, so the two windows have the same homology; when w is also at least
as heavy as x, ψ keeps the weight filtration and the pages agree.
"""

from __future__ import annotations

from stringhom.free_dga import DGA, AlgebraElement, differential


def _substitute(element: AlgebraElement, x: str, image: AlgebraElement) -> AlgebraElement:
    """``element`` with every letter x replaced by ``image``."""
    out = AlgebraElement.zero()
    for word, coeff in element.terms.items():
        term = AlgebraElement.from_word((), coeff)
        for letter in word:
            term = term * (image if letter == x else AlgebraElement.gen(letter))
        out = out + term
    return out


def conjugate(dga: DGA, x: str, w) -> DGA:
    """``dga`` with D' = ψ⁻¹Dψ for ψ: x ↦ x + w, where ``w`` is a word without x.

    D'(g) = ψ⁻¹(D(ψ(g))): ψ(g) = g for every letter but x, and ψ(x) = x + w.
    """
    if x in w:
        raise ValueError(f"the word {w} contains {x}")
    word = AlgebraElement.from_word(w)
    inverse = AlgebraElement.gen(x) - word
    diff = {}
    for g in dga.generators:
        image = AlgebraElement.gen(g.id) + (word if g.id == x else AlgebraElement.zero())
        diff[g.id] = _substitute(differential(dga, image), x, inverse)
    return DGA(dga.generators, diff, name=f"{dga.name}|{x}+{'*'.join(w)}")
