"""Homology by composable segments against the blockwise reference route.

When every term of every D(g) of the destabilized DGA is exactly as long as
g and not empty, ``homology_dims_all`` and ``h0_dims_by_wordcount`` rank the
small complexes of composable segments and convolve their homology;
otherwise they rank the whole window as one block.  Here the segment route
and ``blockwise_oracle``, which ranks the window degree by degree, run on
the same inputs and must agree: the built-ins, relabelled copies like the
benchmark's ``--spec`` files, and seeded DGAs with planted composable
structure.  Two specs outside the segment route must take the one-block
route and still agree with the enumerating oracle, and on every DGA the
segment route takes, the Euler characteristic of the homology must equal
that of the counted window.
"""

import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import dga_oracle
import pytest
from blockwise_oracle import blockwise_dims, blockwise_h0
from hypothesis import given, settings
from hypothesis import strategies as st

from stringhom import free_dga
from stringhom.free_dga import (
    LengthWindow,
    _degree_counts,
    _moves,
    build_hopf,
    build_unlink,
    destabilize,
    dga_from_json_dict,
    h0_dims_by_wordcount,
    homology_dims_all,
)

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _relabelled(dga, seed: int):
    """The benchmark's relabelled, permuted copy, read back from its JSON spec."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    copy = workloads.relabelled(dga, random.Random(f"homology:{seed}"))
    return dga_from_json_dict(free_dga.dga_to_json_dict(copy))


def _populated(dga, window) -> dict[int, int]:
    return _degree_counts(_moves(dga, window))


def _blockwise(dga, window, wmax=4):
    """(dims at every populated degree, H_0 slices or None), by the blockwise route."""
    small = destabilize(dga)
    moves = _moves(small, window)
    dims = blockwise_dims(small, moves, sorted(_populated(dga, window)))
    return dims, blockwise_h0(small, moves, wmax) if dga.nonneg_graded else None


def _segmented(dga, window, wmax=4):
    """The same pair from the public functions, which must take the segment route."""
    assert destabilize(dga)._ends is not None
    h0 = h0_dims_by_wordcount(dga, window, wmax) if dga.nonneg_graded else None
    return homology_dims_all(dga, window), h0


def _planted_spec(seed: int):
    """Length-homogeneous DGA on cycles between 1-3 objects, with twins and a bridge.

    Cycles z (D = 0) run between random objects; each x sends a combination
    of composable cycle paths of one start, end, length and degree, so D^2
    = 0.  A twin x' of some x has the same D, and a bridge y sends
    c·(u·x·v - u·x'·v) for composable cycle paths u, v (possibly empty), so
    D(D(y)) = ±c·(u·D(x)·v - u·D(x')·v) = 0.  Degrees go down to -1 in
    some specs; lengths are halves from 1 to 2.
    """
    rng = random.Random(seed)
    objects = rng.randint(1, 3)
    low = rng.choice((0, 0, -1))
    cycles = [(f"z{k}", rng.randrange(objects), rng.randrange(objects), rng.randint(low, 2),
               Fraction(rng.randint(2, 4), 2)) for k in range(rng.randint(2, 4))]
    paths: dict[tuple, list] = {}
    frontier = [((z,), s, e, deg, ell) for z, s, e, deg, ell in cycles]
    while frontier:
        word, s, e, deg, ell = frontier.pop()
        paths.setdefault((s, e, deg, ell), []).append(word)
        if len(word) < 3:
            frontier += [(word + (z,), s, e2, deg + d2, ell + l2)
                         for z, s2, e2, d2, l2 in cycles if s2 == e]
    gens = [{"id": z, "degree": deg, "length": str(ell)} for z, _, _, deg, ell in cycles]
    diff = {}
    lifts = []
    for k in range(rng.randint(1, 3)):
        (s, e, deg, ell), ws = rng.choice(sorted(paths.items()))
        image = [{"coeff": rng.choice(("1", "-1", "2", "-1/2")), "word": list(w)}
                 for w in rng.sample(ws, min(len(ws), rng.randint(1, 2)))]
        twins = [f"x{k}", f"t{k}"] if rng.random() < 0.6 else [f"x{k}"]
        for x in twins:
            gens.append({"id": x, "degree": deg + 1, "length": str(ell)})
            diff[x] = image
        lifts.append((twins, s, e, deg + 1, ell))
    for k, (twins, s, e, deg, ell) in enumerate(t for t in lifts if len(t[0]) == 2):
        u = rng.choice([((), 0, Fraction(0))] + [(w, d, l) for (s1, e1, d, l), ws in paths.items()
                                                  if e1 == s and l <= 1 for w in ws])
        v = rng.choice([((), 0, Fraction(0))] + [(w, d, l) for (s1, e1, d, l), ws in paths.items()
                                                  if s1 == e and l <= 1 for w in ws])
        c = rng.choice(("1", "-2"))
        gens.append({"id": f"y{k}", "degree": u[1] + deg + v[1] + 1,
                     "length": str(u[2] + ell + v[2])})
        diff[f"y{k}"] = [
            {"coeff": c, "word": [*u[0], twins[0], *v[0]]},
            {"coeff": str(-Fraction(c)), "word": [*u[0], twins[1], *v[0]]},
        ]
    return dga_from_json_dict({"generators": gens, "diff": diff})


# Bounds k/2 + 1/4 are never a sum of halves.
def _planted_window(seed: int) -> LengthWindow:
    return LengthWindow(Fraction(2 * (seed % 3) + 13, 4))


BUILTINS = {
    **{f"hopf2-{a}": (lambda: build_hopf(2), a) for a in ("9/2", "11/2", "13/2", "15/2")},
    **{f"hopf3-{a}": (lambda: build_hopf(3), a) for a in ("11/2", "13/2")},
    "unlink23-41/2": (lambda: build_unlink(2, 3), "41/2"),
    **{f"hopf2-relabelled-{s}-13/2": (lambda s=s: _relabelled(build_hopf(2), s), "13/2")
       for s in (1, 7)},
    "hopf3-relabelled-3-13/2": (lambda: _relabelled(build_hopf(3), 3), "13/2"),
    "unlink23-relabelled-5-41/2": (lambda: _relabelled(build_unlink(2, 3), 5), "41/2"),
}


@pytest.fixture(scope="module", params=sorted(BUILTINS))
def builtin(request):
    build, a = BUILTINS[request.param]
    return build(), LengthWindow(Fraction(a))


def test_builtin_routes_agree(builtin):
    dga, window = builtin
    assert _segmented(dga, window) == _blockwise(dga, window)


def _euler(dims: dict[int, int]) -> int:
    return sum((-1) ** (p & 1) * n for p, n in dims.items())


def test_builtin_euler_identity(builtin):
    dga, window = builtin
    assert _euler(homology_dims_all(dga, window)) == _euler(_populated(dga, window))


@pytest.mark.parametrize("a", ["17/2", "21/2"])
def test_large_window_euler_identity(a):
    # The blockwise route takes 13 s and 560 MB at 17/2; counting stays cheap.
    dga, window = build_hopf(2), LengthWindow(Fraction(a))
    assert _euler(homology_dims_all(dga, window)) == _euler(_populated(dga, window))


@pytest.mark.parametrize("seed", [1, 7])
def test_relabelled_hopf_has_eight_endpoint_classes(seed):
    start, end = destabilize(_relabelled(build_hopf(2), seed))._ends
    assert len(set(start.values()) | set(end.values())) == 8


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_planted_routes_agree(seed):
    dga, window = _planted_spec(seed), _planted_window(seed)
    got = _segmented(dga, window)
    assert got == _blockwise(dga, window)
    assert _euler(got[0]) == _euler(_populated(dga, window))


@pytest.mark.parametrize("seed", range(6))
def test_planted_routes_match_oracle(seed):
    dga, window = _planted_spec(seed), _planted_window(seed)
    dims, h0 = _segmented(dga, window)
    assert dims == dga_oracle.homology_dims_all(dga, window)
    if h0 is not None:
        bases = [dga_oracle.words_of_degree(dga, window, p) for p in (0, 1)]
        assert h0 == dga_oracle.h0_dims_by_wordcount(dga, *bases, 4)


def test_planted_specs_have_structure():
    # The property above is only as good as its inputs: over the seeds used
    # here some specs must keep a bridge after destabilizing, split into
    # several endpoint classes and have nonzero D in the window.
    seen = set()
    for seed in range(40):
        small = destabilize(_planted_spec(seed))
        start, end = small._ends
        seen.add(("bridge", any(g.id.startswith("y") for g in small.generators)))
        seen.add(("classes", len(set(start.values()) | set(end.values())) > 2))
        seen.add(("negative", not small.nonneg_graded))
    assert {("bridge", True), ("classes", True), ("negative", True)} <= seen


# D(g) = x·y - z with z shorter than g, or x·y - 1 with the empty word;
# every other term is exactly as long as its generator.
FALLBACK = {"length-lowering": ["z"], "empty-word": []}


@pytest.mark.parametrize("name", sorted(FALLBACK))
def test_fallback_specs_take_one_block_route(name, monkeypatch):
    gens = [{"id": x, "degree": 0, "length": "1"} for x in "xyz"]
    gens += [{"id": x, "degree": 1, "length": "2"} for x in "gh"]
    diff = {"g": [{"coeff": "1", "word": ["x", "y"]}, {"coeff": "-1", "word": FALLBACK[name]}],
            "h": [{"coeff": "1", "word": ["z", "x"]}]}
    dga = dga_from_json_dict({"generators": gens, "diff": diff})
    window = LengthWindow(Fraction(27, 4))
    assert destabilize(dga)._ends is None

    def refuse(*args):
        raise AssertionError("segment route taken")

    monkeypatch.setattr(free_dga, "_segments", refuse)
    assert homology_dims_all(dga, window) == dga_oracle.homology_dims_all(dga, window)
    bases = [dga_oracle.words_of_degree(dga, window, p) for p in (0, 1)]
    assert h0_dims_by_wordcount(dga, window, 4) == dga_oracle.h0_dims_by_wordcount(dga, *bases, 4)
