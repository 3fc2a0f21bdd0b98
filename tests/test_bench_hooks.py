"""The benchmark tracer (``perfbench/tracer.py``) patches layer functions by name.

A renamed hook, or a hot path that stops going through one, breaks the
traced benchmark run; this test catches both without running the benchmark.
"""

import importlib.util
import inspect
from fractions import Fraction
from pathlib import Path

from stringhom import exactlin, free_dga

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

HOOKS = [
    (free_dga, "_enumerate_words"),
    (free_dga, "_word_differential"),
    (free_dga.LengthWindow, "realizable_sums"),
    (free_dga.LengthWindow, "ensure_valid"),
    (free_dga.DGA, "validate"),
    (exactlin.RowReducer, "add"),
    (exactlin.RowReducer, "contains"),
    (exactlin.RowReducer, "reduced_rows"),
    (exactlin.Subspace, "from_vectors"),
]


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_counts_and_restores():
    originals = [inspect.getattr_static(owner, attr) for owner, attr in HOOKS]
    module = _load_tracer()
    # Its span includes the lazy ``_word_differential`` calls: no elimination stage.
    assert module._stage("exactlin.homology_dims") is None
    tracer = module.Tracer()
    try:
        tracer.install()
        for (owner, attr), raw in zip(HOOKS, originals):
            assert inspect.getattr_static(owner, attr) is not raw, attr
        dga = free_dga.build_hopf(2)
        window = free_dga.LengthWindow(Fraction(9, 2))
        free_dga.homology_dims_all(dga, window, [0, 1])
        free_dga.h0_dims_by_wordcount(dga, window, 3)
        # Homology counts its basis and H_0 slices walk the degree-0 words
        # themselves: neither enumerates.
        homology = tracer.metrics()
        free_dga.word_basis(dga, 1, window)
    finally:
        tracer.uninstall()
    for (owner, attr), raw in zip(HOOKS, originals):
        assert inspect.getattr_static(owner, attr) is raw, attr
    assert homology["free_dga.enumerations"] == 0
    assert homology["free_dga.diff_terms"] > 0
    assert homology["exactlin.rows_added"] > 0
    assert homology["free_dga.validate_s"] > 0
    metrics = tracer.metrics()
    assert metrics["free_dga.enumerations"] == 1
    assert metrics["free_dga.words"] > 0
