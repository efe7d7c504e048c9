"""The traced benchmark run (``perfbench/run.py --trace 1``) wraps hdivkit
functions and methods by name; every one of them must still exist."""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import tracing  # noqa: E402


def test_traced_functions_resolve():
    for modname, attr, _ in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(modname), attr, None)), (modname, attr)


def test_traced_methods_resolve():
    for cls, attr, _ in tracing.METHODS:
        assert callable(cls.__dict__.get(attr)), (cls.__name__, attr)


def test_tracer_installs_and_restores():
    import hdivkit.linsolve as linsolve

    before = linsolve.dense_solve, linsolve.SparseFactor.__dict__["solve"]
    with tracing.Tracer().installed():
        assert linsolve.dense_solve is not before[0]
    assert (linsolve.dense_solve, linsolve.SparseFactor.__dict__["solve"]) == before


def test_projector_report_records_surrogate_spans():
    # the surrogate runs once per layout group; its per-layer metric needs
    # the spans of those calls
    from hdivkit import fields, projector
    from hdivkit.mesh import build_structured

    tracer = tracing.Tracer()
    with tracer.installed():
        projector.projector_report(fields.catalog("sine_divfree"), 1, build_structured(2))
    names = [row[0] for row in tracer.spans]
    assert names.count("local_solve.patch_stability_ratio") >= 1
    assert tracer.per_layer()["local_solve.patch_stability_ratio.self_s"]["value"] > 0


def test_space_elements_count_the_triangles():
    # the tracer's elements.elements_built adds len(space.elements) per space
    from hdivkit.elements import rtn_space
    from hdivkit.mesh import build_lshape

    m = build_lshape(1)
    assert len(rtn_space(m, 2).elements) == m.num_triangles
