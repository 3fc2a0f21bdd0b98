"""The benchmark tracer (``perfbench/tracer.py``) patches layer functions by name.

A renamed hook, or a hot path that stops going through one, breaks the
traced benchmark run; this test catches both without running the benchmark.
"""

import importlib.util
import inspect
import json
from fractions import Fraction
from pathlib import Path

import dga_oracle

from stringhom import cord, exactlin, free_dga

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"

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
    (cord, "quotient_dims_by_wordcount"),
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
        dga_oracle.word_basis(dga, 1, window)
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


def test_tracer_stages_cord_slices():
    module = _load_tracer()
    tracer = module.Tracer()
    try:
        tracer.install()
        cord.quotient_dims_by_wordcount(cord.builtin_presentation("hopf_link", 2), 4)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["cord.slices_s"] > 0
    # The slices are H_0 of the presentation's DGA: their work runs in free_dga.
    assert metrics["free_dga.calls"] > 0


def test_tracer_declares_every_per_layer_metric():
    # A stage metric exists only for a function the tracer finds by name at
    # install (``specseq.build_s`` comes from ``specseq.from_dga``), so a
    # renamed or removed function drops a declared metric from the benchmark.
    declared = {m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]}
    # The harness adds these itself, from untraced passes and command timings.
    declared = {n for n in declared if n != "trace.overhead_ratio" and not n.startswith("cmd.")}
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        names = set(tracer.metrics())
    finally:
        tracer.uninstall()
    assert names == declared
