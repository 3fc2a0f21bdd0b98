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
  (d-1)-spheres forming a higher-dimensional Hopf link in R^(2d-1), whose
  differential is del + F: a stabilization part del (d -> e) plus a
  linking part F.
* ``build_unlink(d, z)`` -- the 12-generator algebra of two spheres spaced
  by a vector of norm z > 2, with zero differential.

``forget_F`` keeps D only on the stabilization pairs d -> e that
``destabilize`` finds: it keeps del and drops F, on any DGA.  On the hopf
algebra this exhibits a stabilization of its chord subalgebra, and homology
then counts pure chord words.  ``destabilize`` splits the d/e pairs off with
F kept, and homology and the degree-0 slices are computed on the chord
letters that remain, block by block (``_over_blocks``): the blocks are
composable segments, ranked small and convolved, when every term of every
D(g) is exactly as long as g (as in both families), and the whole window
is one block otherwise.
"""

from __future__ import annotations

import operator
from collections import Counter, namedtuple
from collections.abc import Iterable, Mapping
from fractions import Fraction
from functools import cached_property, cmp_to_key
from math import lcm

from . import exactlin, jsonio
from .exactlin import RowReducer, as_fraction
from .lengths import IncompatibleRadicals, Surd, below_bound, parse_length

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


class Generator(namedtuple("Generator", "id degree length weight")):
    """An immutable record ``(id, degree, length, weight)``; ``weight`` defaults to 1."""

    __slots__ = ()

    def __new__(cls, id: str, degree: int, length: Surd, weight: int = 1):
        if length.sign() <= 0:
            raise InvalidDGA(f"generator {id} needs positive length")
        if weight <= 0:
            raise InvalidDGA(f"generator {id} needs positive weight")
        return super().__new__(cls, id, degree, length, weight)


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
    """Generator table plus differential table, validated at construction."""

    def __init__(self, generators: list[Generator], diff: Mapping[str, AlgebraElement],
                 name: str = ""):
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
        self._spectra: dict = {}  # see ``_window_spectrum``
        self.name = name
        self.validate()

    # -- word invariants ---------------------------------------------------

    def gen(self, gen_id: str) -> Generator:
        try:
            return self.by_id[gen_id]
        except KeyError:
            raise UnknownGenerator(gen_id) from None

    def word_degree(self, word: Word) -> int:
        return sum(self.gen(g).degree for g in word)

    @property
    def nonneg_graded(self) -> bool:
        return all(g.degree >= 0 for g in self.generators)

    @cached_property
    def _length_table(self) -> tuple[int, int, dict[str, tuple[int, int]]]:
        """(denominator D, radicand n, id -> (P, Q)): g is (P + Q*sqrt(n)) / D long.

        Built once; word lengths are then integer sums, compared exactly by
        ``below_bound``.  Lengths over two radicands raise ``InvalidDGA``.
        """
        radicands = {g.length.n for g in self.generators if g.length.q}
        if len(radicands) > 1:
            raise InvalidDGA(f"generator lengths mix the radicands {sorted(radicands)}")
        n = radicands.pop() if radicands else 0
        pq = {g.id: (g.length.p, g.length.q) for g in self.generators}
        denom = lcm(*(x.denominator for xs in pq.values() for x in xs))
        return denom, n, {gid: (p.numerator * (denom // p.denominator),
                                q.numerator * (denom // q.denominator))
                          for gid, (p, q) in pq.items()}

    @cached_property
    def _partners(self) -> dict[str, str]:
        """The stabilization pairs ``destabilize`` drops, as {d: e}, found once per DGA."""
        _, n, scaled = self._length_table
        in_terms = {x for img in self.diff.values() for w in img.terms for x in w}
        in_products = {x for img in self.diff.values() for w in img.terms if len(w) > 1 for x in w}
        partner: dict[str, str] = {}
        for d in self.generators:
            terms = list(self.diff[d.id].terms)
            if len(terms) != 1 or len(terms[0]) != 1 or d.id in in_terms:
                continue
            e = self.by_id[terms[0][0]]
            if (e.id not in partner.values() and e.id not in in_products
                    and (scaled[d.id], d.weight) == (scaled[e.id], e.weight)
                    and all(not below_bound(*scaled[g.id], *scaled[d.id], n) and d.weight >= g.weight
                            for g in self.generators if (e.id,) in self.diff[g.id].terms)):
                partner[d.id] = e.id
        return partner

    @cached_property
    def _destabilized(self) -> "DGA":
        """What ``destabilize`` returns, built once per DGA."""
        partner = self._partners
        if not partner:
            return self
        gone = set(partner) | set(partner.values())
        diff = {
            g.id: AlgebraElement({w: c for w, c in self.diff[g.id].terms.items() if gone.isdisjoint(w)})
            for g in self.generators if g.id not in gone
        }
        return DGA([g for g in self.generators if g.id not in gone], diff, name=self.name)

    @cached_property
    def _ends(self) -> tuple[dict[str, int], dict[str, int]] | None:
        """Start and end class of each letter, or None when D shortens or empties a term.

        The finest classes under which each term of each D(g) is a composable
        path from g's start to g's end: one letter's end is the next's start.
        """
        _, _, scaled = self._length_table
        pos = {g.id: 2 * k for k, g in enumerate(self.generators)}
        parent = list(range(2 * len(pos)))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            return x

        for gid, img in self.diff.items():
            for w in img.terms:
                if not w or tuple(map(sum, zip(*(scaled[x] for x in w)))) != scaled[gid]:
                    return None
                # Start of g, start and end of each letter, end of g: join in pairs.
                ends = [pos[gid], *(pos[x] + b for x in w for b in (0, 1)), pos[gid] + 1]
                for x, y in zip(ends[::2], ends[1::2]):
                    parent[find(x)] = find(y)
        return ({gid: find(k) for gid, k in pos.items()},
                {gid: find(k + 1) for gid, k in pos.items()})

    # -- validation --------------------------------------------------------

    def validate(self) -> None:
        _, n, scaled = self._length_table
        for g in self.generators:
            for w in self.diff[g.id].terms:
                degree = self.word_degree(w)  # raises UnknownGenerator first
                if degree != g.degree - 1:
                    raise InvalidDGA(
                        f"diff({g.id}) term {w} has degree {degree} != {g.degree - 1}"
                    )
                if below_bound(*scaled[g.id], sum(scaled[x][0] for x in w),
                               sum(scaled[x][1] for x in w), n):
                    raise InvalidDGA(
                        f"diff({g.id}) term {w} is longer than the generator"
                    )
        ok, witness = d_squared_zero_check(self)
        if not ok:
            raise InvalidDGA(f"D^2 != 0 on generator {witness[0]}")

    def __repr__(self) -> str:
        return f"DGA({self.name or 'anonymous'}, {len(self.generators)} generators)"


def _word_differential(dga: DGA, word: Word, out: dict, coeff, index: dict | None = None):
    """Accumulate coeff * D(word) into ``out`` (word -> int or Fraction).

    Coefficients stay ``int`` while ``coeff`` and the D-terms are integral.
    With ``index``, ``out`` is keyed by each word's number there instead,
    looked up: a target missing from ``index`` raises ``KeyError``.
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
                    key = index[key]
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

# Most realizable lengths a window search may hold; windows in use hold a
# few hundred, and a bound such as 10^400 would otherwise never finish.
MAX_SUMS = 10**5


class LengthWindow:
    """Upper length bound a, required to avoid realizable word lengths.

    ``ensure_valid`` rejects a bound that equals, exactly, a sum of
    generator lengths (repeats allowed); any other bound is valid, however
    close it comes to such a sum.
    """

    def __init__(self, bound):
        self.bound = Surd.of(bound)
        if self.bound.sign() <= 0:
            raise WindowCollision("window bound must be positive")

    def realizable_sums(self, dga: DGA) -> list[Surd]:
        """Every sum of generator lengths up to a + 1, in exact order."""
        scaled, (pa, qa), n, denom = _scaled_lengths(dga, self)
        spectrum = _spectrum(scaled, (pa + denom, qa), n)
        return [Surd(Fraction(p, denom), Fraction(q, denom), n) for p, q in spectrum]

    def ensure_valid(self, dga: DGA) -> None:
        _, bound, _, spectrum = _window_spectrum(dga, self)
        if spectrum[-1] == bound:
            raise WindowCollision(f"window {self.bound} is a realizable length")

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


def _window_spectrum(dga: DGA, window: LengthWindow):
    """``_scaled_lengths`` with the inclusive spectrum, searched once per DGA and
    bound, in place of the denominator.  The bound, if realizable, is last."""
    scaled, bound, n, denom = _scaled_lengths(dga, window)
    # The radicand is the bound's own when the lengths are rational.
    spectrum = dga._spectra.get((bound, denom, n))
    if spectrum is None:
        spectrum = dga._spectra[bound, denom, n] = _spectrum(scaled, bound, n)
    return scaled, bound, n, spectrum


def _exact_order(n: int):
    """Sort key ordering integer pairs (p, q) by the value p + q*sqrt(n)."""
    return cmp_to_key(lambda x, y: -1 if below_bound(*x, *y, n) else int(x != y))


def _spectrum(steps, cap: tuple[int, int], n: int) -> list[tuple[int, int]]:
    """Sums of ``steps`` (repeats and the empty sum allowed) up to ``cap``, by value.

    Breadth-first over integer (p, q) pairs; a sum equal to ``cap`` counts,
    so a realizable bound shows as the last value.  Steps go by exact
    length, so the first step that overshoots from a base ends that base's row.
    More than ``MAX_SUMS`` sums raise ``ParameterOutOfRange``.
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
                if not (below_bound(*val, *cap, n) or val == cap):
                    break
                if val not in seen:
                    seen.add(val)
                    nxt.append(val)
                    if len(seen) > MAX_SUMS:
                        raise ParameterOutOfRange(f"more than {MAX_SUMS} realizable lengths")
        frontier = nxt
    return sorted(seen, key=by_length)


def _moves(dga: DGA, window: LengthWindow) -> list[list[tuple[str, int, int]]]:
    """Per exact length rank, the letters that keep a word inside the window.

    Ranks index the exact, sorted spectrum of realizable sums below the
    bound; rank 0 is the empty word's length.  Row r lists ``(id, degree,
    rank after appending)`` by generator length, so a row ends at the first
    letter that overshoots.
    """
    scaled, bound, n, spectrum = _window_spectrum(dga, window)
    by_length = _exact_order(n)
    if spectrum[-1] == bound:
        spectrum = spectrum[:-1]
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
    dga: DGA, window: LengthWindow, max_degree: int | None = None
) -> list[Word]:
    """All words below the window bound, up to degree ``max_degree`` if given.

    Depth-first over appended letters along the ``_moves`` table, pruning by
    degree above ``max_degree`` when the grading is nonnegative (otherwise
    the cap is ignored).  Output is sorted in the canonical monomial order
    (degree, exact length, letter count, lex).
    """
    cap = max_degree if dga.nonneg_graded else None
    moves = _moves(dga, window)
    out: list[tuple] = []
    stack = [(UNIT, 0, 0)]
    while stack:
        word, deg, r = stack.pop()
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


def _row(dga: DGA, word: Word, index: dict[Word, int]) -> dict:
    """D(word) as a fresh row keyed by each target's number in ``index``, which must
    number every target (else ``KeyError``); empty when every letter has D = 0."""
    row: dict = {}
    if not dga._dead.issuperset(word):
        _word_differential(dga, word, row, 1, index)
    return row


def homology_dims_all(dga: DGA, window: LengthWindow, degrees: Iterable[int]) -> dict[int, int]:
    """Homology dimensions at ``degrees``.

    Runs on ``destabilize(dga)``.  ``_over_blocks`` ranks each block with
    ``_segment_homology``: where D keeps each maximal composable run of a
    word, with its end classes and exact length, and the breakpoints
    between runs, the window is a direct sum of tensor products of segment
    complexes (Koszul signs are the Leibniz rule's), and Künneth over Q
    multiplies their homology; otherwise the whole window is one block.
    """
    wanted = sorted(set(degrees))
    if not wanted:
        window.ensure_valid(dga)
        return {}
    cap = wanted[-1] if dga.nonneg_graded else None
    dims = _over_blocks(dga, window, None if cap is None else cap + 1, cap, _segment_homology)
    return {p: dims.get(p, 0) for p in wanted}


def _over_blocks(dga: DGA, window: LengthWindow, deg_cap: int | None, cap: int | None,
                 measure, combine=operator.add, unit=0) -> dict:
    """``measure`` over the blocks of ``destabilize(dga)``'s window, keys above ``cap`` dropped.

    The window is validated on ``dga`` first.  ``measure(small_dga, words
    by degree)`` gives a block that D maps into itself a piece {key: dim}.
    A block holds its words up to degree ``deg_cap``, which only a
    nonnegative grading may set.  Where the destabilized DGA does not split
    (``DGA._ends`` is None), the whole window is one block and its piece is
    the answer.  Otherwise the blocks are the segment blocks of
    ``_segments``, and the answer sums, over the sequences of blocks that
    fit in the window, the product of their pieces: keys combine along a
    sequence by ``combine``, from the empty word's ``unit``, and neighbours
    meet at a breakpoint (end class != start class).  One pass in rank
    order pushes ``states[rank][last end class]`` forward by each block, to
    the rank its first word lands on.
    """
    window.ensure_valid(dga)
    dga = destabilize(dga)
    if dga._ends is None:
        degree = {g.id: g.degree for g in dga.generators}.__getitem__
        by_deg: dict[int, list[Word]] = {}
        for w in _enumerate_words(dga, window, deg_cap):
            by_deg.setdefault(sum(map(degree, w)), []).append(w)
        return {k: v for k, v in measure(dga, by_deg).items() if cap is None or k <= cap}
    moves = _moves(dga, window)
    pieces = [(next(iter(by_deg.values()))[0], s, e, piece)
              for (s, e, _), by_deg in _segments(dga, moves, deg_cap).items()
              if (piece := measure(dga, by_deg))]
    step = [{g: nr for g, _, nr in row} for row in moves]
    states: list[dict] = [{} for _ in moves]
    states[0][None] = {unit: 1}
    total: dict = {}
    for r, here in enumerate(states):
        for counts in here.values():
            for k, c in counts.items():
                total[k] = total.get(k, 0) + c
        for word, s, e, piece in pieces:
            nr = r
            for x in word:
                if (nr := step[nr].get(x)) is None:
                    break
            else:
                there = states[nr].setdefault(e, {})
                for k, c in ((combine(k, k2), c * c2) for last, counts in here.items() if last != s
                             for k, c in counts.items() for k2, c2 in piece.items()):
                    if cap is None or k <= cap:
                        there[k] = there.get(k, 0) + c
    return total


def _segments(dga: DGA, moves: list, cap: int | None) -> dict[tuple, dict[int, list[Word]]]:
    """Composable words along ``moves``, by (start class, end class, length rank), then degree.

    Each letter's end class (``DGA._ends``) is the next one's start class.
    Degrees above ``cap`` are pruned: sound only with no negative degree.
    """
    start, end = dga._ends
    blocks: dict[tuple, dict[int, list[Word]]] = {}
    stack = [((gid,), deg, r) for gid, deg, r in moves[0]]
    while stack:
        word, deg, r = stack.pop()
        if cap is None or deg <= cap:
            tail = end[word[-1]]
            blocks.setdefault((start[word[0]], tail, r), {}).setdefault(deg, []).append(word)
            stack += [(word + (g,), deg + d, nr) for g, d, nr in moves[r] if start[g] == tail]
    return blocks


def _segment_homology(dga: DGA, by_deg: dict[int, list[Word]]) -> dict[int, int]:
    """Nonzero homology of one block, whose D keeps it, its words numbered by one
    index.  A degree cut off by the block's degree cap leaves the one below it
    too high; ``_over_blocks`` drops it."""
    words = [w for ws in by_deg.values() for w in ws]
    index = {w: i for i, w in enumerate(words)}
    dims = exactlin.homology_dims({p: len(ws) for p, ws in by_deg.items()},
                                  {p: [index[w] for w in ws] for p, ws in by_deg.items()
                                   if p - 1 in by_deg},
                                  lambda i: _row(dga, words[i], index))
    return {p: h for p, h in dims.items() if h}


def _segment_h0(dga: DGA, by_deg: dict[int, list[Word]]) -> dict[int, int]:
    """Nonzero letter-count slices of one block's H_0: with columns heaviest first
    each pivot is its row's longest word, and slice w is the words of w letters
    less the pivots of w letters.  No clearing as in ``_segment_homology``: at
    degree cap 1 no degree-2 block is ranked whose pivots could be left out."""
    columns = sorted(by_deg.get(0, ()), key=lambda w: (-len(w), w))
    index = {w: i for i, w in enumerate(columns)}
    red = RowReducer()
    for w in by_deg.get(1, ()):
        if row := _row(dga, w, index):
            red.add(row, owned=True)
    slices = Counter(map(len, columns))
    slices.subtract(len(columns[c]) for c in red.pivots)
    return {k: v for k, v in slices.items() if v}


def h0_dims_by_wordcount(dga: DGA, window: LengthWindow, wmax: int) -> list[int]:
    """Letter-count slices of degree-0 homology.

    Needs a nonnegative grading: then every degree-0 element is a cycle and
    the image B of the degree-1 part is spanned by u·D(g)·v over degree-0
    words u, v and degree-1 letters g with D(g) != 0 (D vanishes on the
    degree-0 letters and the prefix u has degree 0, so every sign is +).
    The image is only filtered (not graded) by letter count, so the slice
    dimensions reported are those of the induced filtration: dim
    F_w/F_{w-1} where F_w is spanned by words with at most w letters.  All
    of this runs on ``destabilize(dga)``, whose substitution keeps letter
    count, block by block as ``homology_dims_all`` runs (``_segment_h0``).

    Why the slices convolve over segments: each word lies in one summand of
    the segment splitting, so F_w and B split along it and the slices add
    over summands.  In one summand, degree 0 is V_1 ⊗ ... ⊗ V_m over the
    degree-0 parts of its segment complexes, and B is the sum of the
    V_1 ⊗ .. ⊗ B_j ⊗ .. ⊗ V_m.  Echelon each B_j with the heaviest word of a
    row as its pivot: modulo B_j a pivot is a combination of no heavier
    words, so the non-pivot words of at most w letters are a basis of F_w.
    Their tensor products then span each F_w of V/B, and there are
    ∏ dim V_j/B_j = dim V/B of them, so they are a basis: a summand's
    slice w counts the tuples whose letter counts add up to w.
    """
    if not dga.nonneg_graded:
        raise GradingViolation("degree-0 homology slices need a nonnegative grading")
    total = _over_blocks(dga, window, 1, wmax, _segment_h0)
    return [total.get(w, 0) for w in range(wmax + 1)]


# -- built-in algebras -----------------------------------------------------


def _pairs():
    return [(i, j) for i in (0, 1) for j in (0, 1)]


def _cross():
    return [(0, 1), (1, 0)]


def build_hopf(d: int) -> DGA:
    """Length-filtered algebra of the spherical Hopf link in R^(2d-1).

    24 generators in three families: chord generators c (weight 1),
    stabilization partners d/e (weight 2).  The differential is written out
    as del + F: del sends each d to its e and vanishes elsewhere, and F
    holds the linking terms.  No splitting is stored; ``forget_F`` finds del
    again as the pairs ``destabilize`` drops.
    """
    if d < 2:
        raise ParameterOutOfRange("d must be at least 2")
    gens: list[Generator] = []

    def add(gid, degree, length, weight):
        gens.append(Generator(gid, degree, Surd.of(length), weight))

    for i, j in _cross():
        add(f"c0_{i}{j}", d - 2, 1, 1)
    for i in (0, 1):
        add(f"c1_{i}{i}", 2 * d - 3, 2, 1)
    for i, j in _cross():
        add(f"c1_{i}{j}", 2 * d - 3, 1, 1)
        add(f"cb1_{i}{j}", 2 * d - 3, 1, 1)
    for i, j in _pairs():
        add(f"c2_{i}{j}", 3 * d - 4, 2 if i == j else 3, 1)
    for i in (0, 1):
        add(f"d1_{i}{i}", 2 * d - 3, 2, 2)
    for i, j in _pairs():
        add(f"d2_{i}{j}", 3 * d - 4, 2 if i == j else 3, 2)
    for i in (0, 1):
        add(f"e1_{i}{i}", 2 * d - 4, 2, 2)
    for i, j in _pairs():
        add(f"e2_{i}{j}", 3 * d - 5, 2 if i == j else 3, 2)

    gen, word = AlgebraElement.gen, AlgebraElement.from_word
    sgn_d = Fraction(-1 if d % 2 else 1)
    # del: each stabilization partner d -> its e.
    diff = {f"d1_{i}{i}": gen(f"e1_{i}{i}") for i in (0, 1)}
    diff |= {f"d2_{i}{j}": gen(f"e2_{i}{j}") for i, j in _pairs()}
    # F: the linking terms.
    diff["c1_00"] = gen("e1_00", sgn_d) + word(("c0_01", "c0_10"), sgn_d)
    diff["c1_11"] = gen("e1_11", sgn_d) + word(("c0_10", "c0_01"))
    diff["c2_00"] = (gen("e2_00", -1) + word(("cb1_01", "c0_10"), -1)
                     + word(("c1_01", "c0_10"), -sgn_d))
    diff["c2_11"] = (gen("e2_11", -1) + word(("cb1_10", "c0_01"), -sgn_d)
                     + word(("c1_10", "c0_01"), -1))
    diff["c2_01"] = gen("e2_01", -1)
    diff["c2_10"] = gen("e2_10", -1)
    return DGA(gens, diff, name=f"hopf(d={d})")


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
        raise ParameterOutOfRange("z2star must exceed 2")
    try:
        cross_len = Surd.sqrt(z * z + 4)
    except ValueError as exc:
        raise ParameterOutOfRange(f"z2star {z}: sqrt(z2star^2 + 4): {exc}") from None
    gens: list[Generator] = []
    for i, j in _cross():
        gens.append(Generator(f"c0_{i}{j}", d - 2, Surd(z)))
    for i in (0, 1):
        gens.append(Generator(f"c1_{i}{i}", 2 * d - 3, Surd(2)))
    for i, j in _cross():
        gens.append(Generator(f"c1_{i}{j}", 2 * d - 3, Surd(z)))
        gens.append(Generator(f"cb1_{i}{j}", 2 * d - 3, cross_len))
    for i, j in _pairs():
        gens.append(Generator(f"c2_{i}{j}", 3 * d - 4, Surd(2) if i == j else cross_len))
    return DGA(gens, {}, name=f"unlink(d={d}, z={z})")


def forget_F(dga: DGA) -> DGA:
    """Same generators, D kept only on the sources d of the pairs d -> e of ``destabilize``.

    With D = del + F, del the pairs' terms d -> λ·e, this drops the linking
    part F.  No pair's e is itself a pair's source, so D^2 = 0 still holds.
    """
    return DGA(dga.generators, {d: dga.diff[d] for d in dga._partners}, name=f"{dga.name}|del")


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
    return dga._destabilized


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
    """Strict inverse of ``dga_to_json_dict``.

    ``generators`` is required, a list of records with a string ``id``,
    integer ``degree`` and ``weight`` (default 1) and a ``length`` given as
    a string or an integer; ``diff`` (default empty) maps generator ids to
    lists of terms, each with a ``coeff`` (string or integer) and a
    ``word``, a list of generator ids; ``name`` (default empty) is a
    string.  A missing key, a field of the wrong JSON type, or a length or
    coefficient that does not parse raises ``InvalidDGA``.
    """

    def get(record, key, kinds, what, default=jsonio.REQUIRED):
        return jsonio.field(record, key, kinds, what, InvalidDGA, default)

    def parse(parser, record, key, what):
        text = get(record, key, (str, int), what)
        try:
            return parser(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidDGA(f"{what} field {key!r} does not parse: {text!r} ({exc})") from exc

    gens = [
        Generator(
            get(g, "id", str, "generator"),
            get(g, "degree", int, "generator"),
            parse(parse_length, g, "length", "generator"),
            get(g, "weight", int, "generator", 1),
        )
        for g in get(data, "generators", list, "DGA")
    ]
    terms = get(data, "diff", dict, "DGA", {})
    diff = {}
    for gid in terms:
        el = AlgebraElement.zero()
        for t in get(terms, gid, list, "diff"):
            word = get(t, "word", list, "diff term")
            if not all(type(x) is str for x in word):
                raise InvalidDGA(f"diff term word must be a list of str, got {word!r}")
            coeff = parse(Fraction, t, "coeff", "diff term")
            el = el + AlgebraElement.from_word(tuple(word), coeff)
        diff[gid] = el
    return DGA(gens, diff, name=get(data, "name", str, "DGA", ""))


def save_dga(dga: DGA, path) -> None:
    jsonio.save(path, dga_to_json_dict(dga))


def load_dga(path) -> DGA:
    return dga_from_json_dict(jsonio.load(path, InvalidDGA))
