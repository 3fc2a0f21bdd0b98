"""Free graded noncommutative algebras with length-filtered differentials.

A DGA here is a free unital algebra over Q on finitely many graded
generators, each carrying a positive length and a positive integer weight,
together with a degree -1 derivation D.  D is required to respect the
length filtration (every word of D(g) is at most as long as g) and to
square to zero.  Homology is computed degree by degree inside a length
window: words of total length below the window bound form a finite
subcomplex, and all dimensions are exact rational ranks.

Two families are built in:

* ``build_hopf(d)`` -- the 24-generator algebra attached to a pair of
  (d-1)-spheres forming a higher-dimensional Hopf link in R^(2d-1), with
  differential split as a stabilization part (d -> e) plus a linking part F.
* ``build_unlink(d, z)`` -- the 12-generator algebra of two spheres spaced
  by a vector of norm z > 2, with zero differential.

``forget_F`` drops the linking part, which exhibits the hopf algebra as a
stabilization of its chord subalgebra; homology then counts pure chord
words.  ``destabilize`` splits the d/e pairs off with F kept, and homology
and the degree-0 slices are computed on the chord letters that remain.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, cmp_to_key, partial
from math import lcm
from typing import Iterable, Mapping

from . import exactlin
from .exactlin import RowReducer, as_fraction, quotient_slice_dims
from .lengths import IncompatibleRadicals, Surd, parse_length

Word = tuple[str, ...]
UNIT: Word = ()


class DGAError(Exception):
    pass


class UnknownGenerator(DGAError):
    pass


class GradingViolation(DGAError):
    pass


class InvalidDGA(DGAError):
    pass


class NotApplicable(DGAError):
    pass


class ParameterOutOfRange(DGAError):
    pass


class WindowCollision(DGAError):
    """The window bound sits on (or too near) a realizable word length."""


@dataclass(frozen=True)
class Generator:
    id: str
    degree: int
    length: Surd
    weight: int = 1
    tags: tuple | None = None

    def __post_init__(self):
        if self.length.sign() <= 0:
            raise InvalidDGA(f"generator {self.id} needs positive length")
        if self.weight <= 0:
            raise InvalidDGA(f"generator {self.id} needs positive weight")


class AlgebraElement:
    """Finite Q-linear combination of words in generator ids."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Word, Fraction] | None = None):
        clean = {}
        for w, c in (terms or {}).items():
            c = as_fraction(c)
            if c != 0:
                clean[tuple(w)] = c
        self.terms = clean

    @classmethod
    def zero(cls) -> "AlgebraElement":
        return cls()

    @classmethod
    def unit(cls, coeff=1) -> "AlgebraElement":
        return cls({UNIT: Fraction(coeff)})

    @classmethod
    def from_word(cls, word: Iterable[str], coeff=1) -> "AlgebraElement":
        return cls({tuple(word): Fraction(coeff)})

    @classmethod
    def gen(cls, gen_id: str, coeff=1) -> "AlgebraElement":
        return cls({(gen_id,): Fraction(coeff)})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, Fraction(0)) + c
        return AlgebraElement(out)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement({w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def scale(self, coeff) -> "AlgebraElement":
        coeff = as_fraction(coeff)
        return AlgebraElement({w: c * coeff for w, c in self.terms.items()})

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        out: dict = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                key = w1 + w2
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return AlgebraElement(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, AlgebraElement) and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for w, c in sorted(self.terms.items()):
            mono = "*".join(w) if w else "1"
            bits.append(f"{c}·{mono}" if c != 1 else mono)
        return " + ".join(bits)


class DGA:
    """Generator table plus differential table, validated at construction.

    ``del_part``/``f_part`` optionally record a splitting D = del + F; it is
    only present on built-in algebras and is what ``forget_F`` consumes.
    """

    def __init__(
        self,
        generators: list[Generator],
        diff: Mapping[str, AlgebraElement],
        del_part: Mapping[str, AlgebraElement] | None = None,
        f_part: Mapping[str, AlgebraElement] | None = None,
        name: str = "",
        validate: bool = True,
    ):
        self.generators = list(generators)
        self.by_id = {g.id: g for g in self.generators}
        if len(self.by_id) != len(self.generators):
            raise InvalidDGA("duplicate generator ids")
        unknown = sorted(set(diff) - set(self.by_id))
        if unknown:
            raise InvalidDGA(f"diff names unknown generators {unknown}")
        self.diff = {g.id: diff.get(g.id, AlgebraElement.zero()) for g in self.generators}
        # What ``_word_differential`` reads per letter: degree parity and the
        # D-terms, integral coefficients as int.  Built once; ``diff`` is not
        # meant to change after construction.
        self._letters = {
            g.id: (
                g.degree & 1,
                tuple(
                    (w, c.numerator if c.denominator == 1 else c)
                    for w, c in self.diff[g.id].terms.items()
                ),
            )
            for g in self.generators
        }
        # Letters with D = 0: a word made of them alone has no differential.
        self._dead = frozenset(gid for gid, (_, terms) in self._letters.items() if not terms)
        self.del_part = dict(del_part) if del_part is not None else None
        self.f_part = dict(f_part) if f_part is not None else None
        self.name = name
        if validate:
            self.validate()

    # -- word invariants ---------------------------------------------------

    def gen(self, gen_id: str) -> Generator:
        try:
            return self.by_id[gen_id]
        except KeyError:
            raise UnknownGenerator(gen_id) from None

    def word_degree(self, word: Word) -> int:
        return sum(self.gen(g).degree for g in word)

    def word_length(self, word: Word) -> Surd:
        total = Surd(0)
        for g in word:
            total = total + self.gen(g).length
        return total

    @property
    def nonneg_graded(self) -> bool:
        return all(g.degree >= 0 for g in self.generators)

    @cached_property
    def _length_table(self) -> tuple[int, int, dict[str, tuple[int, int]]]:
        """(denominator D, radicand n, id -> (P, Q)): g is (P + Q*sqrt(n)) / D long.

        Built once; word lengths are then integer sums, compared exactly by
        ``_below_bound``.
        """
        n = 0
        for g in self.generators:
            if g.length.q:
                if n and g.length.n != n:
                    raise IncompatibleRadicals(f"sqrt({g.length.n}) vs sqrt({n})")
                n = g.length.n
        pq = {g.id: (g.length.p, g.length.q) for g in self.generators}
        denom = lcm(*(x.denominator for xs in pq.values() for x in xs))
        return denom, n, {gid: (p.numerator * (denom // p.denominator),
                                q.numerator * (denom // q.denominator))
                          for gid, (p, q) in pq.items()}

    # -- validation --------------------------------------------------------

    def validate(self) -> None:
        radicands = {g.length.n for g in self.generators if g.length.q}
        if len(radicands) > 1:
            raise InvalidDGA(f"generator lengths mix the radicands {sorted(radicands)}")
        _, n, scaled = self._length_table
        for g in self.generators:
            for w in self.diff[g.id].terms:
                degree = self.word_degree(w)  # raises UnknownGenerator first
                if degree != g.degree - 1:
                    raise InvalidDGA(
                        f"diff({g.id}) term {w} has degree {degree} != {g.degree - 1}"
                    )
                if _below_bound(*scaled[g.id], sum(scaled[x][0] for x in w),
                                sum(scaled[x][1] for x in w), n):
                    raise InvalidDGA(
                        f"diff({g.id}) term {w} is longer than the generator"
                    )
        ok, witness = d_squared_zero_check(self)
        if not ok:
            raise InvalidDGA(f"D^2 != 0 on generator {witness[0]}")
        if self.del_part is not None and self.f_part is not None:
            for g in self.generators:
                combined = self.del_part.get(g.id, AlgebraElement.zero()) + self.f_part.get(
                    g.id, AlgebraElement.zero()
                )
                if combined != self.diff[g.id]:
                    raise InvalidDGA(f"recorded splitting disagrees with D on {g.id}")

    def __repr__(self) -> str:
        return f"DGA({self.name or 'anonymous'}, {len(self.generators)} generators)"


def _word_differential(dga: DGA, word: Word, out: dict, coeff, index: dict | None = None):
    """Accumulate coeff * D(word) into ``out`` (word -> int or Fraction).

    Coefficients stay ``int`` while ``coeff`` and the D-terms are integral.
    With ``index``, ``out`` is keyed by each word's number there instead; a
    word not yet numbered gets the next free number.
    """
    letters = dga._letters
    odd_prefix = 0
    for i, letter in enumerate(word):
        try:
            odd, terms = letters[letter]
        except KeyError:
            raise UnknownGenerator(letter) from None
        if terms:
            sign_coeff = -coeff if odd_prefix else coeff
            left, right = word[:i], word[i + 1 :]
            for tw, tc in terms:
                key = left + tw + right
                if index is not None:
                    key = index.setdefault(key, len(index))
                val = out.get(key, 0) + sign_coeff * tc
                if val:
                    out[key] = val
                else:
                    out.pop(key, None)
        odd_prefix ^= odd


def differential(dga: DGA, x: AlgebraElement) -> AlgebraElement:
    """Graded Leibniz extension of the generator table.

    On a word g1...gk the sign in front of the i-th summand is (-1) to the
    degree of the prefix g1...g_{i-1}.
    """
    out: dict = {}
    for word, coeff in x.terms.items():
        _word_differential(dga, word, out, coeff)
    return AlgebraElement(out)


def d_squared_zero_check(dga: DGA) -> tuple[bool, tuple[str, AlgebraElement] | None]:
    """Check D(D(g)) = 0 on every generator.

    Sufficient for D^2 = 0 on the whole algebra, since D^2 is a derivation.
    On failure returns the offending generator and the nonzero residue.
    """
    for g in dga.generators:
        residue = differential(dga, dga.diff[g.id])
        if not residue.is_zero():
            return False, (g.id, residue)
    return True, None


# -- length windows --------------------------------------------------------


class LengthWindow:
    """Upper length bound a, required to avoid realizable word lengths.

    ``ensure_valid`` rejects a bound that equals, exactly, a sum of
    generator lengths (repeats allowed); any other bound is valid, however
    close it comes to such a sum.
    """

    def __init__(self, bound):
        self.bound = Surd.of(Fraction(bound) if not isinstance(bound, Surd) else bound)
        if self.bound.sign() <= 0:
            raise WindowCollision("window bound must be positive")

    def realizable_sums(self, dga: DGA) -> list[Surd]:
        """Every sum of generator lengths up to a + 1, in exact order."""
        scaled, (pa, qa), n, denom = _scaled_lengths(dga, self)
        spectrum = _spectrum(scaled, (pa + denom, qa), n, inclusive=True)
        return [Surd(Fraction(p, denom), Fraction(q, denom), n) for p, q in spectrum]

    def ensure_valid(self, dga: DGA) -> None:
        scaled, bound, n, _ = _scaled_lengths(dga, self)
        if bound in _spectrum(scaled, bound, n, inclusive=True):
            raise WindowCollision(f"window {self.bound} is a realizable length")

    def admits(self, length: Surd) -> bool:
        return (length - self.bound).sign() < 0

    def __repr__(self) -> str:
        return f"LengthWindow({self.bound})"


def _scaled_lengths(dga: DGA, window: LengthWindow):
    """Integer-scaled (p, q) length data over the common radicand.

    Word enumeration and window validation compare many sums against the
    bound; doing that with integers instead of Fraction-backed surds is what
    makes large windows affordable.  The DGA's ``_length_table`` is rescaled
    to clear the bound's denominators too.  Returns (per-generator (P, Q),
    bound (PA, QA), radicand n, common denominator).
    """
    denom, n, table = dga._length_table
    b = window.bound
    if b.q and n and b.n != n:
        raise IncompatibleRadicals(f"sqrt({b.n}) vs sqrt({n})")
    k = lcm(denom, b.p.denominator, b.q.denominator) // denom
    denom *= k
    scaled = [(p * k, q * k) for p, q in table.values()]
    return scaled, (int(b.p * denom), int(b.q * denom)), n or b.n, denom


def _below_bound(p: int, q: int, pa: int, qa: int, n: int) -> bool:
    """Exact test p + q*sqrt(n) < pa + qa*sqrt(n) for integers."""
    dp, dq = pa - p, qa - q
    if dq == 0:
        return dp > 0
    if dp == 0:
        return dq > 0
    if dp > 0 and dq > 0:
        return True
    if dp < 0 and dq < 0:
        return False
    lhs, rhs = dp * dp, dq * dq * n
    if dp > 0:
        return lhs > rhs
    return lhs < rhs


def _exact_order(n: int):
    """Sort key ordering integer pairs (p, q) by the value p + q*sqrt(n)."""
    return cmp_to_key(lambda x, y: -1 if _below_bound(*x, *y, n) else int(x != y))


def _spectrum(steps, cap: tuple[int, int], n: int, inclusive: bool) -> list[tuple[int, int]]:
    """Sums of ``steps`` (repeats and the empty sum allowed) below ``cap``, by value.

    Breadth-first over integer (p, q) pairs; with ``inclusive`` a sum equal
    to ``cap`` counts too.  Steps go by exact length, so the first step that
    overshoots from a base ends that base's row.
    """
    by_length = _exact_order(n)
    steps = sorted(set(steps), key=by_length)
    seen = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        nxt = []
        for bp, bq in frontier:
            for sp, sq in steps:
                val = (bp + sp, bq + sq)
                if not (_below_bound(*val, *cap, n) or inclusive and val == cap):
                    break
                if val not in seen:
                    seen.add(val)
                    nxt.append(val)
        frontier = nxt
    return sorted(seen, key=by_length)


def _moves(dga: DGA, window: LengthWindow) -> list[list[tuple[str, int, int]]]:
    """Per exact length rank, the letters that keep a word inside the window.

    Ranks index the exact, sorted spectrum of realizable sums below the
    bound; rank 0 is the empty word's length.  Row r lists ``(id, degree,
    rank after appending)`` by generator length, so a row ends at the first
    letter that overshoots.
    """
    scaled, bound, n, _ = _scaled_lengths(dga, window)
    by_length = _exact_order(n)
    spectrum = _spectrum(scaled, bound, n, inclusive=False)
    rank = {s: r for r, s in enumerate(spectrum)}
    gens = sorted(zip(scaled, dga.generators), key=lambda sg: by_length(sg[0]))
    moves = []
    for p, q in spectrum:
        row = []
        for (sp, sq), g in gens:
            # A realizable sum is in the spectrum exactly when it is below the bound.
            r = rank.get((p + sp, q + sq))
            if r is None:
                break
            row.append((g.id, g.degree, r))
        moves.append(row)
    return moves


def _enumerate_words(
    dga: DGA, window: LengthWindow, degree: int | None, max_degree: int | None = None
) -> list[Word]:
    """All words below the window bound, optionally filtered to one degree.

    Depth-first over appended letters along the ``_moves`` table, pruning by
    degree above ``degree`` (or above ``max_degree`` when no single degree is
    asked for) when the grading is nonnegative.  Output is sorted in the
    canonical monomial order (degree, exact length, letter count, lex).
    """
    cap = degree if degree is not None else max_degree
    if not dga.nonneg_graded:
        cap = None
    moves = _moves(dga, window)
    out: list[tuple] = []
    stack = [(UNIT, 0, 0)]
    while stack:
        word, deg, r = stack.pop()
        if degree is None or deg == degree:
            out.append((deg, r, len(word), word))
        for gid, gdeg, nr in moves[r]:
            ndeg = deg + gdeg
            if cap is None or ndeg <= cap:
                stack.append((word + (gid,), ndeg, nr))
    out.sort()
    # Strip the sort keys in place: a second list would raise peak memory.
    for k, item in enumerate(out):
        out[k] = item[3]
    return out


def word_basis(dga: DGA, degree: int, window: LengthWindow) -> list[Word]:
    """Canonically ordered basis of the degree slice below the window."""
    window.ensure_valid(dga)
    if degree < 0 and dga.nonneg_graded:
        return []
    return _enumerate_words(dga, window, degree)


def _diff_rows(dga: DGA, source: Iterable[Word], index: dict[Word, int]):
    """Nonzero rows of D on ``source``, columns numbered by ``index``.

    A target word missing from ``index`` gets the next free number, so an
    index that starts empty numbers the columns on first sight; one that
    already holds the whole target degree of a valid window is never
    extended, since the differential never increases length.  A word whose
    letters all have D = 0 is skipped: it gives no row.
    """
    dead = dga._dead
    for w in source:
        if dead.issuperset(w):
            continue
        row: dict = {}
        _word_differential(dga, w, row, 1, index)
        if row:
            yield row


def _degree_counts(moves: list, cap: int | None) -> dict[int, int]:
    """Number of words per degree along the ``_moves`` table, without listing them.

    ``counts[r][degree]`` counts the words of length rank r and that degree.
    Every move raises the rank, so one pass in rank order pushes each count
    forward by each letter.  Degrees above ``cap`` are dropped, which is
    sound only when no letter has negative degree.
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
                ndeg = deg + gdeg
                if cap is None or ndeg <= cap:
                    there[ndeg] = there.get(ndeg, 0) + c
    return dict(sorted(total.items()))


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


def homology_dim(dga: DGA, degree: int, window: LengthWindow) -> int:
    """dim ker(D at this degree) - dim im(D from one degree up)."""
    return homology_dims_all(dga, window, [degree])[degree]


def homology_dims_all(
    dga: DGA, window: LengthWindow, degrees: Iterable[int] | None = None
) -> dict[int, int]:
    """Homology dimensions at ``degrees``, or at every populated degree.

    No word list is built.  The basis size of each degree is counted by one
    dynamic program over the ``_moves`` table, ``counts[rank][degree]``
    pushed forward by each letter (capped at the largest requested degree
    + 1 when the grading is nonnegative).  Rows of D come only from words
    with a live letter (D != 0) in a degree that sources a needed block,
    found in one walk; each block numbers its columns on first sight.  The
    block from degree p to p - 1 serves both H_p and H_(p-1), and
    ``exactlin.homology_dims`` ranks the blocks from the top down with
    clearing.  A pivot row R of d_(p+1) is a boundary, so D(R) = 0.  D of
    R's lead is then a combination of the D-rows of R's later columns, so
    the lead's row of d_p is left out without changing the rank.  All of
    this runs on ``destabilize(dga)``; "every populated degree" is read off
    the original window.
    """
    window.ensure_valid(dga)
    if degrees is None:
        degrees = _degree_counts(_moves(dga, window), None)
    wanted = sorted(set(degrees))
    if not wanted:
        return {}
    dga = destabilize(dga)
    moves = _moves(dga, window)
    sizes = _degree_counts(moves, wanted[-1] + 1 if dga.nonneg_graded else None)
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


def h0_dims_by_wordcount(dga: DGA, window: LengthWindow, wmax: int) -> list[int]:
    """Letter-count slices of degree-0 homology.

    Needs a nonnegative grading: then every degree-0 element is a cycle and
    the image of the degree-1 part is spanned by u·D(g)·v over degree-0
    words u, v and degree-1 letters g with D(g) != 0 (D vanishes on the
    degree-0 letters and the prefix u has degree 0, so every sign is +).
    The rows are built that way, along the ``_moves`` table: the degree-0
    words once, with their length ranks, and per rank the degree-0 suffixes
    that still fit; no degree-1 word is enumerated.  The image is only
    filtered (not graded) by letter count, so the slice dimensions reported
    are those of the induced filtration: dim F_w/F_{w-1} where F_w is
    spanned by words with at most w letters.  The rows are built on
    ``destabilize(dga)``, whose substitution keeps letter count.
    """
    if not dga.nonneg_graded:
        raise GradingViolation("degree-0 homology slices need a nonnegative grading")
    window.ensure_valid(dga)
    dga = destabilize(dga)
    moves = _moves(dga, window)
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


# -- built-in algebras -----------------------------------------------------


def _pairs():
    return [(i, j) for i in (0, 1) for j in (0, 1)]


def _cross():
    return [(0, 1), (1, 0)]


def build_hopf(d: int) -> DGA:
    """Length-filtered algebra of the spherical Hopf link in R^(2d-1).

    24 generators in three families: chord generators c (weight 1),
    stabilization partners d/e (weight 2).  The differential is del + F,
    where del kills everything except d -> e and F records the linking.
    """
    if d < 2:
        raise ParameterOutOfRange("d must be at least 2")
    gens: list[Generator] = []

    def add(gid, degree, length, weight, tags):
        gens.append(Generator(gid, degree, Surd.of(length), weight, tags))

    for i, j in _cross():
        add(f"c0_{i}{j}", d - 2, 1, 1, (i, j))
    for i in (0, 1):
        add(f"c1_{i}{i}", 2 * d - 3, 2, 1, (i, i))
    for i, j in _cross():
        add(f"c1_{i}{j}", 2 * d - 3, 1, 1, (i, j))
        add(f"cb1_{i}{j}", 2 * d - 3, 1, 1, (i, j))
    for i, j in _pairs():
        add(f"c2_{i}{j}", 3 * d - 4, 2 if i == j else 3, 1, (i, j))
    for i in (0, 1):
        add(f"d1_{i}{i}", 2 * d - 3, 2, 2, (i, i))
    for i, j in _pairs():
        add(f"d2_{i}{j}", 3 * d - 4, 2 if i == j else 3, 2, (i, j))
    for i in (0, 1):
        add(f"e1_{i}{i}", 2 * d - 4, 2, 2, (i, i))
    for i, j in _pairs():
        add(f"e2_{i}{j}", 3 * d - 5, 2 if i == j else 3, 2, (i, j))

    sgn_d = Fraction(-1 if d % 2 else 1)
    zero = AlgebraElement.zero()
    del_part = {g.id: zero for g in gens}
    f_part = {g.id: zero for g in gens}
    for i in (0, 1):
        del_part[f"d1_{i}{i}"] = AlgebraElement.gen(f"e1_{i}{i}")
    for i, j in _pairs():
        del_part[f"d2_{i}{j}"] = AlgebraElement.gen(f"e2_{i}{j}")

    f_part["c1_00"] = AlgebraElement.gen("e1_00", sgn_d) + AlgebraElement.from_word(
        ("c0_01", "c0_10"), sgn_d
    )
    f_part["c1_11"] = AlgebraElement.gen("e1_11", sgn_d) + AlgebraElement.from_word(
        ("c0_10", "c0_01")
    )
    f_part["c2_00"] = (
        AlgebraElement.gen("e2_00", -1)
        + AlgebraElement.from_word(("cb1_01", "c0_10"), -1)
        + AlgebraElement.from_word(("c1_01", "c0_10"), -sgn_d)
    )
    f_part["c2_11"] = (
        AlgebraElement.gen("e2_11", -1)
        + AlgebraElement.from_word(("cb1_10", "c0_01"), -sgn_d)
        + AlgebraElement.from_word(("c1_10", "c0_01"), -1)
    )
    f_part["c2_01"] = AlgebraElement.gen("e2_01", -1)
    f_part["c2_10"] = AlgebraElement.gen("e2_10", -1)

    diff = {g.id: del_part[g.id] + f_part[g.id] for g in gens}
    return DGA(gens, diff, del_part=del_part, f_part=f_part, name=f"hopf(d={d})")


def build_unlink(d: int, z2star) -> DGA:
    """Chord algebra of two spheres spaced by a vector of norm z > 2.

    12 generators, zero differential.  Cross chords come in two lengths:
    the straight translates (length z) and the antipodal ones
    (length sqrt(z^2 + 4)); same-component chords are diameters (length 2).
    """
    if d < 2:
        raise ParameterOutOfRange("d must be at least 2")
    z = Fraction(z2star)
    if z <= 2:
        raise ParameterOutOfRange("|z2*| must exceed 2")
    cross_len = Surd.sqrt(z * z + 4)
    gens: list[Generator] = []
    for i, j in _cross():
        gens.append(Generator(f"c0_{i}{j}", d - 2, Surd(z), 1, (i, j)))
    for i in (0, 1):
        gens.append(Generator(f"c1_{i}{i}", 2 * d - 3, Surd(2), 1, (i, i)))
    for i, j in _cross():
        gens.append(Generator(f"c1_{i}{j}", 2 * d - 3, Surd(z), 1, (i, j)))
        gens.append(Generator(f"cb1_{i}{j}", 2 * d - 3, cross_len, 1, (i, j)))
    for i, j in _pairs():
        gens.append(
            Generator(
                f"c2_{i}{j}",
                3 * d - 4,
                Surd(2) if i == j else cross_len,
                1,
                (i, j),
            )
        )
    zero = AlgebraElement.zero()
    diff = {g.id: zero for g in gens}
    return DGA(
        gens,
        diff,
        del_part=dict(diff),
        f_part=dict(diff),
        name=f"unlink(d={d}, z={z})",
    )


def forget_F(dga: DGA) -> DGA:
    """Same generators, differential reduced to the stabilization part."""
    if dga.del_part is None:
        raise NotApplicable("this DGA does not record a del/F splitting")
    zero = AlgebraElement.zero()
    del_part = {g.id: dga.del_part.get(g.id, zero) for g in dga.generators}
    return DGA(
        dga.generators,
        del_part,
        del_part=del_part,
        f_part={g.id: zero for g in dga.generators},
        name=f"{dga.name}|del",
    )


def destabilize(dga: DGA) -> DGA:
    """Drop the stabilization pairs d -> e that a tame substitution splits off.

    A pair has D(d) = λ·e, one one-letter term, with d and e of equal length
    and weight; d occurs in no D(g), and e occurs in any other D(g) only as
    a term μ·e, with len(d) <= len(g) and weight(d) >= weight(g).  Then
    g ↦ g - (μ/λ)·d is tame and keeps length, weight and letter count; the
    d-terms it brings into other D(h) cancel, as D^2 = 0 cancels the e-terms
    of the same shape.  The words with a d or e letter then form a summand
    contracted by u·e·v ↦ u·d·v at the leftmost such letter (Chekanov), so
    homology in every window, the letter-count slices of H_0 and the weight
    pages from E^1 on are those of the other letters with the μ·e terms
    deleted.  Other pairs stay; with none to drop, ``dga`` itself is returned.
    Validate windows on the original, whose lengths include those of d and e.
    """
    _, n, scaled = dga._length_table
    in_terms = {x for img in dga.diff.values() for w in img.terms for x in w}
    in_products = {x for img in dga.diff.values() for w in img.terms if len(w) > 1 for x in w}
    partner: dict[str, str] = {}
    for d in dga.generators:
        terms = list(dga.diff[d.id].terms)
        if len(terms) != 1 or len(terms[0]) != 1 or d.id in in_terms:
            continue
        e = dga.by_id[terms[0][0]]
        if (e.id not in partner.values() and e.id not in in_products
                and (scaled[d.id], d.weight) == (scaled[e.id], e.weight)
                and all(not _below_bound(*scaled[g.id], *scaled[d.id], n) and d.weight >= g.weight
                        for g in dga.generators if (e.id,) in dga.diff[g.id].terms)):
            partner[d.id] = e.id
    if not partner:
        return dga
    gone = set(partner) | set(partner.values())
    diff = {
        g.id: AlgebraElement({w: c for w, c in dga.diff[g.id].terms.items() if gone.isdisjoint(w)})
        for g in dga.generators if g.id not in gone
    }
    return DGA([g for g in dga.generators if g.id not in gone], diff, name=dga.name)


def chord_word_counts_all(dga: DGA, window: LengthWindow) -> dict[int, int]:
    """Per-degree counts of words built only from weight-1 generators.

    Counted along the ``_moves`` table restricted to weight-1 letters;
    degrees with no such word are absent.
    """
    window.ensure_valid(dga)
    light = {g.id for g in dga.generators if g.weight == 1}
    moves = [[m for m in row if m[0] in light] for row in _moves(dga, window)]
    return _degree_counts(moves, None)


# -- JSON interface --------------------------------------------------------


def dga_to_json_dict(dga: DGA) -> dict:
    return {
        "generators": [
            {
                "id": g.id,
                "degree": g.degree,
                "length": str(g.length),
                "weight": g.weight,
            }
            for g in dga.generators
        ],
        "diff": {
            gid: [
                {"coeff": str(c), "word": list(w)}
                for w, c in sorted(img.terms.items())
            ]
            for gid, img in dga.diff.items()
            if not img.is_zero()
        },
    }


def dga_from_json_dict(data: Mapping) -> DGA:
    gens = [
        Generator(
            spec["id"],
            int(spec["degree"]),
            parse_length(spec["length"]),
            int(spec.get("weight", 1)),
        )
        for spec in data["generators"]
    ]
    diff = {}
    for gid, terms in data.get("diff", {}).items():
        el = AlgebraElement.zero()
        for t in terms:
            el = el + AlgebraElement.from_word(tuple(t["word"]), Fraction(t["coeff"]))
        diff[gid] = el
    return DGA(gens, diff, name=str(data.get("name", "")))


def save_dga(dga: DGA, path) -> None:
    with open(path, "w") as fh:
        json.dump(dga_to_json_dict(dga), fh, indent=1, sort_keys=True)


def load_dga(path) -> DGA:
    with open(path) as fh:
        return dga_from_json_dict(json.load(fh))
