"""Tests of the end-to-end benchmark: tracer arithmetic, patch
restoration, and a tiny-scale smoke run of every workload."""

from __future__ import annotations

import importlib
import json

import pytest

import refclock
import run
import tracing
import workloads

TINY_SF = 0.0002


def _span(name, start, end, parent=-1):
    return tracing.Span(name, start, end, parent, "pass")


def test_self_time_subtracts_children_clipped_to_the_parent():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("a.child", 2.0, 3.0, parent=1),
        _span("b", 5.0, 6.0, parent=0),
        # Ends after its parent: only the overlap counts against the root.
        _span("c", 9.0, 12.0, parent=0),
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 1.0, 3.0])


def test_span_totals_split_server_parse_by_parent():
    spans = [
        _span("s3select.select", 0.0, 4.0),
        _span("sqlparser.parse", 0.5, 1.5, parent=0),
        _span("sqlparser.client_parse", 5.0, 5.5),
    ]
    totals = tracing.span_totals(spans, ("pass",))["pass"]
    assert totals["sqlparser.server_parse"]["self_s"] == pytest.approx(1.0)
    assert totals["sqlparser.server_parse"]["calls"] == 1
    assert totals["s3select.select"]["self_s"] == pytest.approx(3.0)
    assert totals["s3select.select"]["inclusive_s"] == pytest.approx(4.0)


def test_reference_clock_resamples_only_when_stale(monkeypatch):
    clock = refclock.RefClock()
    first = clock.scale()
    assert first > 0
    monkeypatch.setattr(refclock, "reference_work", lambda: 1 / 0)
    assert clock.scale() == first  # fresh sample reused, loop not rerun
    monkeypatch.setattr(refclock, "RESAMPLE_S", 0.0)
    with pytest.raises(ZeroDivisionError):
        clock.scale()


def _bound_functions():
    return {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, attr, _, _ in tracing.BINDINGS
    }


def test_tracer_restores_every_binding():
    before = _bound_functions()
    tracer = tracing.Tracer()
    with tracer:
        patched = _bound_functions()
        assert all(patched[key] is not fn for key, fn in before.items())
        with pytest.raises(RuntimeError):
            tracer.install()
    after = _bound_functions()
    assert all(after[key] is fn for key, fn in before.items())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_is_correct_and_reports_every_metric(workload, tmp_path):
    report = run.run_workload(
        workload, seed=3, seconds=0, trace=False, scale_factor=TINY_SF,
        min_samples=1, out_dir=tmp_path,
    )
    assert report["correct"] and report["failed"] == 0
    assert report["attempted"] >= 1
    assert set(report["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in report["metrics"].values())


def test_traced_run_separates_layers_and_restores_bindings(tmp_path):
    before = _bound_functions()
    report = run.run_workload(
        "tpch-pushdown", seed=3, seconds=0, trace=True, scale_factor=TINY_SF,
        min_samples=1, out_dir=tmp_path,
    )
    assert all(after is before[k] for k, after in _bound_functions().items())
    assert report["correct"]
    assert set(report["metrics"]) == set(run.PER_LAYER_UNITS)
    layers = {k: m["value"] for k, m in report["metrics"].items()}
    assert layers["sqlparser.server_parse_calls"] > 0
    assert layers["cloud.select_requests"] > 0
    assert layers["storage.get_decode_s"] == 0
    assert layers["cloud.get_requests"] == 0
    assert (tmp_path / "tpch-pushdown-spans.json").exists()


def _timed_views(seed):
    workload = workloads.TpchWorkload(
        "optimized", seed, tracing.Tracer(), scale_factor=TINY_SF
    )
    workload.queries = workload.queries[:6]
    workload.setup()
    _, timed = run.run_passes(workload, seconds=0, min_samples=12)
    return [run.deterministic_view(p) for _, p in timed]


def test_modeled_clocks_and_metering_repeat_per_seed_and_follow_the_seed():
    first, again, other = _timed_views(3), _timed_views(3), _timed_views(4)
    assert len(first) == 2 and first[0] == first[1]
    assert first == again
    bytes_scanned = dict(first[0][2])["bytes_scanned"]
    assert bytes_scanned != dict(other[0][2])["bytes_scanned"]


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
