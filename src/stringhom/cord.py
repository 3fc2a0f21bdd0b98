"""Cord algebras of links from finite skein rule tables.

The cord algebra of a link K in R^3 is the free unital Q-algebra on homotopy
classes of paths in the complement with endpoints on a pushed-off copy K',
modulo two families of relations: constant cords vanish, and for every
composable pair (g1, g2) meeting K' over the point x,

    [g1 g2] - [g1 m_x g2] - [g1][g2] = 0,

where m_x is the meridian loop at x.  A presentation here is a finite
instantiation of this: a generator per path class (up to a meridian-power
truncation depth kmax), the list of constant-cord generators, and a table of
skein instances, each naming the four classes involved.

Built-in presentations are hand-instantiated from the known complement
groups and documented inline:

* unknot   -- pi_1 = Z on the meridian; the pushed-off longitude is trivial,
  so path classes are meridian powers A_k and every skein instance reads
  A_(j+k) = A_(j+k+1) + A_j A_k.  With A_0 = 0 everything collapses to Q.
* hopf_link -- pi_1 = Z^2 on the two meridians; the longitude of each
  component is the other one's meridian, so a class s_ii_p from component
  i to itself keeps the power p of its own meridian and the cross classes
  x_01, x_10 are single cosets.  A composable pair (g1, g2) from i to j != i
  gives x_ij = x_ij + g1 g2; one from i back to i gives s_ii_p =
  s_ii_(p+delta) + g1 g2 with p = depth(g1) + depth(g2), where delta = 1 if
  g1 ends on i and 0 if it ends on the other component (x_ij x_ji), kept
  when p + delta <= kmax.  The quotient is free on the cross cords modulo
  both products, matching Q[a,b]/(ab).
* unlink2  -- pi_1 = F_2 and both longitudes vanish, so path classes are
  arbitrary reduced words; the presentation keeps the trivial cords plus
  the single-meridian-power families (i, mu_c^k, j), k <= kmax, which the
  letter-boundary skein instances collapse onto the two crossing cords with
  no surviving relation: the quotient is free on two generators.  Deeper
  mixed words are redundant for the same reason and are left out.

``quotient_dims_by_wordcount`` runs a Tietze pass, then H_0 slices of
``presentation_dga``.  The Tietze pass solves skein instances for their
deepest generator (each instance names the inserted class exactly once,
strictly deeper than everything else in the row); the slices are those of
``free_dga.h0_dims_by_wordcount``.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping
from fractions import Fraction

from . import free_dga, jsonio
from .lengths import Surd

Word = tuple[str, ...]


class CordError(Exception):
    pass


class UnknownBuiltin(CordError):
    pass


class BoundExceeded(CordError):
    pass


class InvalidPresentation(CordError):
    """A presentation record lacks a key or holds a field of the wrong type."""


CordGenerator = namedtuple("CordGenerator", "id source target depth", defaults=(0,))

# [concat] - [inserted] - [left][right] = 0.
SkeinInstance = namedtuple("SkeinInstance", "concat inserted left right")


class CordPresentation:
    def __init__(
        self,
        generators: list[CordGenerator],
        constants: list[str],
        skein: list[SkeinInstance],
        bound: int,
        name: str = "",
    ):
        self.generators = list(generators)
        self.by_id = {g.id: g for g in self.generators}
        if len(self.by_id) != len(self.generators):
            raise CordError("duplicate cord generator ids")
        for c in constants:
            if c not in self.by_id:
                raise CordError(f"unknown constant cord {c}")
        for inst in skein:
            for gid in (inst.concat, inst.inserted, inst.left, inst.right):
                if gid not in self.by_id:
                    raise CordError(f"unknown generator {gid} in skein instance")
        self.constants = list(constants)
        self.skein = list(skein)
        self.bound = bound
        self.name = name

    def relation_rows(self) -> list[dict]:
        """Relation instances as word->coefficient rows, coefficients ``int``.

        Every row touches letter counts w and w+1 only: the two path terms
        are single letters, the product term has two.
        """
        rows = []
        for c in self.constants:
            rows.append({(c,): 1})
        for inst in self.skein:
            row: dict = {}
            for word, coeff in (
                ((inst.concat,), 1),
                ((inst.inserted,), -1),
                ((inst.left, inst.right), -1),
            ):
                val = row.get(word, 0) + coeff
                if val == 0:
                    row.pop(word, None)
                else:
                    row[word] = val
            if row:
                rows.append(row)
        return rows

    def depth(self, gid: str) -> int:
        return self.by_id[gid].depth

    def __repr__(self) -> str:
        return f"CordPresentation({self.name or 'anonymous'}, {len(self.generators)} generators)"


# -- built-in presentations ---------------------------------------------------


def builtin_presentation(name: str, kmax: int) -> CordPresentation:
    if kmax < 2:
        raise CordError("kmax must be at least 2")
    if name == "unknot":
        return _unknot_presentation(kmax)
    if name == "hopf_link":
        return _hopf_presentation(kmax)
    if name == "unlink2":
        return _unlink2_presentation(kmax)
    raise UnknownBuiltin(name)


def _unknot_presentation(kmax: int) -> CordPresentation:
    # Classes A_k = [meridian^k], k >= 0; negative powers collapse the same
    # way and are omitted.  Constant cords are A_0.
    gens = [CordGenerator(f"a{k}", 0, 0, depth=k) for k in range(kmax + 1)]
    skein = [
        SkeinInstance(f"a{j + k}", f"a{j + k + 1}", f"a{j}", f"a{k}")
        for j in range(kmax)
        for k in range(kmax)
        if j + k + 1 <= kmax
    ]
    return CordPresentation(gens, ["a0"], skein, bound=kmax + 2, name="unknot")


def _hopf_presentation(kmax: int) -> CordPresentation:
    gens = [CordGenerator(f"s{i}{i}_{k}", i, i, depth=k) for i in (0, 1) for k in range(kmax + 1)]
    gens += [CordGenerator("x01", 0, 1), CordGenerator("x10", 1, 0)]
    skein = []
    for g1 in gens:
        for g2 in gens:
            if g1.target != g2.source:
                continue
            i, j = g1.source, g2.target
            p = g1.depth + g2.depth
            delta = int(g1.target == i)  # the inserted meridian is i's own
            if i != j:
                skein.append(SkeinInstance(f"x{i}{j}", f"x{i}{j}", g1.id, g2.id))
            elif p + delta <= kmax:
                skein.append(SkeinInstance(f"s{i}{i}_{p}", f"s{i}{i}_{p + delta}", g1.id, g2.id))
    return CordPresentation(
        gens, ["s00_0", "s11_0"], skein, bound=kmax + 2, name="hopf_link"
    )


def _unlink2_presentation(kmax: int) -> CordPresentation:
    # Trivial cords t_ij plus the single-meridian-power families
    # (i, mu_c^k, j); the skein instances below are the letter-boundary
    # splices inside one family, enough to strip every meridian letter.
    gens = []
    for i in (0, 1):
        for j in (0, 1):
            gens.append(CordGenerator(f"t{i}{j}", i, j, depth=0))
    for i in (0, 1):
        for j in (0, 1):
            for c in (0, 1):
                for k in range(1, kmax + 1):
                    gens.append(CordGenerator(f"w{i}{j}c{c}_{k}", i, j, depth=k))

    def symbol(i: int, j: int, c: int, k: int) -> str:
        return f"t{i}{j}" if k == 0 else f"w{i}{j}c{c}_{k}"

    skein = []
    for i in (0, 1):
        for j in (0, 1):
            for c in (0, 1):
                for a in range(kmax):
                    for b in range(kmax - a):
                        skein.append(
                            SkeinInstance(
                                symbol(i, j, c, a + b),
                                symbol(i, j, c, a + b + 1),
                                symbol(i, c, c, a),
                                symbol(c, j, c, b),
                            )
                        )
    return CordPresentation(
        gens, ["t00", "t11"], skein, bound=kmax + 2, name="unlink2"
    )


# -- quotient computation -----------------------------------------------------


def _substitute(element: Mapping[Word, int | Fraction], table: Mapping[str, dict]) -> dict:
    """Expand every rewritten letter of every word; exact, bilinear, ``int`` if the inputs are."""
    out: dict = {}
    for word, coeff in element.items():
        acc = {(): coeff}
        for letter in word:
            repl = table.get(letter)
            if repl is None:
                acc = {w + (letter,): c for w, c in acc.items()}
            else:
                nxt: dict = {}
                for w, c in acc.items():
                    for rw, rc in repl.items():
                        key = w + rw
                        val = nxt.get(key, 0) + c * rc
                        if val == 0:
                            nxt.pop(key, None)
                        else:
                            nxt[key] = val
                acc = nxt
        for w, c in acc.items():
            val = out.get(w, 0) + c
            if val == 0:
                out.pop(w, None)
            else:
                out[w] = val
    return out


def _extract_rewrites(pres: CordPresentation, rows: list[dict]):
    """Tietze pass: solve rows for their unique deepest single-letter term.

    Returns (closed rewrite table, leftover substituted rows).  Eliminating
    a generator g via g = expr is an isomorphism of presented algebras, so
    the quotient is unchanged; only rows with a strictly deepest generator
    occurring exactly once as a 1-letter word are used.
    """
    table: dict[str, dict] = {}
    pending = sorted(
        rows, key=lambda r: max((pres.depth(g) for w in r for g in w), default=0)
    )
    progress = True
    while progress:
        progress = False
        rest = []
        for row in pending:
            r = _substitute(row, table)
            if not r:
                continue
            # Solve for the deepest letter only if no other letter ties its
            # depth and it occurs once, as a one-letter word not yet rewritten.
            letters = [g for w in r for g in w]
            depths = [pres.depth(g) for g in letters]
            top = max(depths, default=None)
            candidate = letters[depths.index(top)] if depths.count(top) == 1 else None
            if candidate is None or (candidate,) not in r or candidate in table:
                rest.append(row)
                continue
            # Solving by a lead of +-1 keeps ``int`` coefficients ``int``.
            coeff = r[(candidate,)]
            inv = coeff if coeff in (1, -1) else Fraction(1) / coeff
            expr = {
                w: -c * inv for w, c in r.items() if w != (candidate,)
            }
            table[candidate] = expr
            progress = True
        pending = rest
    # Close the table: expressions may mention generators rewritten later.
    stable = False
    while not stable:
        stable = True
        for g, expr in list(table.items()):
            new = _substitute(expr, {k: v for k, v in table.items() if k != g})
            if new != expr:
                table[g] = new
                stable = False
    leftovers = []
    for row in pending:
        r = _substitute(row, table)
        if r:
            leftovers.append(r)
    return table, leftovers


def presentation_dga(pres: CordPresentation) -> free_dga.DGA:
    """A DGA whose H_0 is the presented algebra, after the Tietze pass.

    Surviving generators have degree 0 and length 1.  Each leftover row is a
    degree-1 letter with D the row and length its longest word (at least 1),
    named by a prefix of ``r``s that no generator id starts with.
    """
    table, leftovers = _extract_rewrites(pres, pres.relation_rows())
    prefix = "r"
    while any(g.id.startswith(prefix) for g in pres.generators):
        prefix += "r"
    rows = {f"{prefix}{k}": row for k, row in enumerate(leftovers)}
    gens = [free_dga.Generator(g.id, 0, Surd(1)) for g in pres.generators if g.id not in table]
    gens += [free_dga.Generator(rid, 1, Surd(max(1, *map(len, row)))) for rid, row in rows.items()]
    return free_dga.DGA(gens, {rid: free_dga.AlgebraElement(row) for rid, row in rows.items()},
                        name=pres.name)


def quotient_dims_by_wordcount(pres: CordPresentation, wmax: int) -> list[int]:
    """Letter-count slice dimensions of the presented quotient algebra.

    Slices are those of the word-count filtration over the irreducible
    alphabet, i.e. the count of normal-form words: generators solved out by
    the Tietze pass (a deep cord can equal a product of shallower ones) do
    not contribute letters.  Relations are not letter-count homogeneous --
    they connect adjacent counts -- so dimensions come from the filtration.
    The window wmax + 3/2 pads the relations by words up to wmax + 1
    letters; the built-in rule tables are complete at that padding, which
    the truncation-stability check guards.
    """
    if wmax < 0:
        raise free_dga.ParameterOutOfRange("wmax must be nonnegative")
    if wmax > pres.bound:
        raise BoundExceeded(f"wmax {wmax} exceeds presentation bound {pres.bound}")
    window = free_dga.LengthWindow(Fraction(2 * wmax + 3, 2))
    return free_dga.h0_dims_by_wordcount(presentation_dga(pres), window, wmax)


def truncation_stable(name: str, kmax: int, dims: list[int]) -> bool:
    """Do the slices ``dims`` at kmax survive deepening the truncation by two?"""
    return dims == quotient_dims_by_wordcount(builtin_presentation(name, kmax + 2), len(dims) - 1)


def compare_with_h0(cord_dims: list[int], dga, window):
    """Cord slice dims versus the degree-0 homology slices of a DGA.

    Returns (match, table) with one (w, cord_dim, h0_dim, match) row per
    word count w = 0 .. len(cord_dims) - 1.
    """
    wmax = len(cord_dims) - 1
    h0_dims = free_dga.h0_dims_by_wordcount(dga, window, wmax)
    rows = [
        (w, cord_dims[w], h0_dims[w], cord_dims[w] == h0_dims[w])
        for w in range(wmax + 1)
    ]
    return all(r[3] for r in rows), rows


# -- serialization ------------------------------------------------------------


def presentation_to_json_dict(pres: CordPresentation) -> dict:
    return {
        "name": pres.name,
        "bound": pres.bound,
        "generators": [g._asdict() for g in pres.generators],
        "constants": list(pres.constants),
        "skein": [s._asdict() for s in pres.skein],
    }


def _field(record, key: str, kind: type, what: str, default=jsonio.REQUIRED):
    return jsonio.field(record, key, kind, what, InvalidPresentation, default)


def presentation_from_json_dict(data: Mapping) -> CordPresentation:
    """Strict inverse of ``presentation_to_json_dict``.

    ``generators`` and each record's ids, ``source`` and ``target`` are
    required; ``depth`` (0), ``constants``, ``skein`` (empty), ``bound`` (4)
    and ``name`` are optional.  A missing key or a field of the wrong JSON
    type raises ``InvalidPresentation``.
    """
    gens = [
        CordGenerator(
            _field(g, "id", str, "generator"),
            _field(g, "source", int, "generator"),
            _field(g, "target", int, "generator"),
            _field(g, "depth", int, "generator", 0),
        )
        for g in _field(data, "generators", list, "presentation")
    ]
    skein = [
        SkeinInstance(
            *(_field(s, k, str, "skein instance") for k in ("concat", "inserted", "left", "right"))
        )
        for s in _field(data, "skein", list, "presentation", [])
    ]
    # The constructor rejects constants and skein names that are not generator ids.
    return CordPresentation(
        gens,
        _field(data, "constants", list, "presentation", []),
        skein,
        bound=_field(data, "bound", int, "presentation", 4),
        name=_field(data, "name", str, "presentation", ""),
    )


def save_presentation(pres: CordPresentation, path) -> None:
    jsonio.save(path, presentation_to_json_dict(pres))


def load_presentation(path) -> CordPresentation:
    return presentation_from_json_dict(jsonio.load(path, InvalidPresentation))
