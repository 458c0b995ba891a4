"""Tests of the benchmark harness itself (not collected by the tier-1 suite).

    python -m pytest -q bench/test_harness.py
"""

from __future__ import annotations

import os
import sys
import tracemalloc

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH_DIR), "src"), BENCH_DIR]

import spans  # noqa: E402
import workloads  # noqa: E402


def _span(name, layer, start, end, parent):
    s = spans.Span(name, layer, start, parent, 0)
    s.end = end
    return s


def test_self_time_of_nested_spans():
    synthetic = [
        _span("morita.a", "morita", 0.0, 10.0, None),  # 0: root
        _span("bundles.b", "bundles", 1.0, 4.0, 0),  # 1: child of root
        _span("groupoids.c", "groupoids", 2.0, 3.0, 1),  # 2: grandchild
        _span("algebras.d", "algebras", 5.0, 9.0, 0),  # 3: child of root
        _span("algebras.e", "algebras", 6.0, 6.5, 3),  # 4: grandchild
    ]
    assert spans.self_times(synthetic) == pytest.approx([3.0, 2.0, 1.0, 3.5, 0.5])
    rec = spans.Recorder()
    rec.spans = synthetic
    m = spans.per_layer_metrics(rec, spans.Recorder(), 2, traced_s=12.0, untraced_s=11.0)
    assert m["morita.self_s"]["value"] == pytest.approx(1.5)
    assert m["bundles.self_s"]["value"] == pytest.approx(1.0)
    assert m["groupoids.self_s"]["value"] == pytest.approx(0.5)
    assert m["algebras.self_s"]["value"] == pytest.approx(2.0)
    assert m["trace.op_s"]["value"] == pytest.approx(6.0)
    assert m["trace.overhead_s"]["value"] == pytest.approx(0.5)


def test_overlapping_children_are_covered_once():
    synthetic = [
        _span("morita.a", "morita", 0.0, 10.0, None),
        _span("bundles.b", "bundles", 1.0, 4.0, 0),
        _span("bundles.c", "bundles", 3.0, 6.0, 0),
        _span("bundles.d", "bundles", 9.0, 12.0, 0),  # runs past its parent
    ]
    assert spans.self_times(synthetic)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def _bindings():
    """Every function bound in a groupoidal module, and the wrapped methods."""
    seen = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "groupoidal" or name.startswith("groupoidal.")):
            for attr, obj in vars(mod).items():
                if callable(obj):
                    seen[(name, attr)] = obj
    modules = spans.layer_modules()
    for (layer, cls_name), names in spans.METHODS.items():
        cls = getattr(modules[layer], cls_name)
        for attr in names:
            seen[(cls_name, attr)] = cls.__dict__[attr]
    gpd = modules["groupoids"].FiniteGroupoid
    seen[("FiniteGroupoid", "composable_triples")] = gpd.__dict__["composable_triples"]
    return seen


@pytest.mark.parametrize("memory", [False, True])
def test_traced_run_restores_every_binding(tmp_path, memory):
    workload = workloads.cli_small(seed=3, workdir=str(tmp_path))
    corruption = next(op for op in workload.ops if op.kind == "corruption")
    cert = next(op for op in workload.ops if op.kind == "cert")
    before = _bindings()
    rec = spans.Recorder(memory=memory)
    with spans.traced(rec) as patches:
        during = _bindings()
        for op in (cert, corruption):
            op.check(op.call())
    after = _bindings()

    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    patched = {(getattr(owner, "__name__", owner), attr) for owner, attr, _ in patches}
    assert ("groupoidal.morita", "symmetric_morita") in patched
    assert ("groupoidal", "symmetric_morita") in patched
    assert ("groupoidal.cli", "symmetric_morita") in patched
    assert ("groupoidal.bundles", "validate_fell_bundle") in patched
    assert during[("StarAlgebra", "unit")] is not before[("StarAlgebra", "unit")]
    assert during[("RuntimeModel", "bundle")] is not before[("RuntimeModel", "bundle")]
    names = {s.name for s in rec.spans}
    assert {"cli.main", "morita.symmetric_morita", "morita.positivity", "algebras.unit",
            "runtime.bundle", "modelio.parse_model"} <= names
    assert rec.counters["groupoids.composable_triples"] > 0
    assert not tracemalloc.is_tracing()
    if memory:
        m = spans.per_layer_metrics(spans.Recorder(), rec, 2, 1.0, 1.0)
        assert m["morita.positivity.peak_mb"]["value"] > 0


def test_bindings_restored_after_an_exception():
    before = _bindings()
    with pytest.raises(ZeroDivisionError):
        with spans.traced(spans.Recorder(memory=True)):
            raise ZeroDivisionError
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_oracle_rejects_a_wrong_reference(tmp_path, monkeypatch):
    import oracle

    bundle, gba, hba = workloads.symmetric_instance((1, 1, 2), np.random.default_rng(0))
    cert = workloads.gm.symmetric_morita(bundle, gba, hba)
    oracle.symmetric_certificate((1, 1, 2), 1e-9)(cert)
    wrong = {**oracle.REFERENCE["symmetric"]["1,1,2"], "center": 2}
    monkeypatch.setitem(oracle.REFERENCE["symmetric"], "1,1,2", wrong)
    with pytest.raises(oracle.Mismatch, match="center"):
        oracle.symmetric_certificate((1, 1, 2), 1e-9)(cert)
