"""Phase spans: nesting, exception safety, captures, sinks, no-op path."""

import json

import pytest

from repro.obs import (
    JsonlSink,
    Metrics,
    add_sink,
    capture,
    emit_record,
    enabled,
    event,
    incr,
    remove_sink,
    render_span_tree,
    set_enabled,
    span,
)
from repro.obs.spans import _NULL_SPAN


class TestNesting:
    def test_children_attach_to_enclosing_span(self):
        registry = Metrics()
        with capture() as captured:
            with span("outer", registry=registry):
                with span("inner.a", registry=registry):
                    pass
                with span("inner.b", registry=registry):
                    pass
        assert [root.name for root in captured.roots] == ["outer"]
        outer = captured.roots[0]
        assert [child.name for child in outer.children] == [
            "inner.a", "inner.b",
        ]
        assert outer.seconds >= sum(c.seconds for c in outer.children)

    def test_durations_feed_registry_histograms(self):
        registry = Metrics()
        with span("phase.x", registry=registry):
            pass
        with span("phase.x", registry=registry):
            pass
        assert registry.histogram("phase.x").count == 2

    def test_fields_annotate_span(self):
        registry = Metrics()
        with capture() as captured:
            with span("p", registry=registry, nodes=7) as live:
                assert live.fields == {"nodes": 7}
        assert captured.roots[0].to_dict()["nodes"] == 7

    def test_self_totals_reconcile_with_wall_time(self):
        registry = Metrics()
        with capture() as captured:
            with span("root", registry=registry):
                with span("child", registry=registry):
                    pass
        exclusive = captured.self_totals()
        wall = captured.seconds
        assert sum(exclusive.values()) == pytest.approx(wall, rel=1e-6)


class TestExceptionSafety:
    def test_span_pops_and_records_error_on_raise(self):
        registry = Metrics()
        with capture() as captured:
            with pytest.raises(RuntimeError):
                with span("boom", registry=registry):
                    raise RuntimeError("x")
            # The stack unwound: a new span is a root, not a child of boom.
            with span("after", registry=registry):
                pass
        assert [r.name for r in captured.roots] == ["boom", "after"]
        assert captured.roots[0].fields["error"] == "RuntimeError"
        assert registry.histogram("boom").count == 1

    def test_capture_detaches_on_exception(self):
        registry = Metrics()
        with pytest.raises(RuntimeError):
            with capture():
                raise RuntimeError("x")
        with capture() as captured:
            with span("later", registry=registry):
                pass
        assert [r.name for r in captured.roots] == ["later"]


class TestCaptures:
    def test_counters_accumulate_per_capture(self):
        with capture() as outer:
            incr("hits", 2)
            with capture() as inner:
                incr("hits")
                event("planner.decision", chosen="ddnnf")
        assert outer.counters["hits"] == 3
        assert outer.counters["planner.decision"] == 1
        assert inner.counters == {"hits": 1, "planner.decision": 1}

    def test_phase_totals_sum_repeated_names(self):
        registry = Metrics()
        with capture() as captured:
            for _ in range(3):
                with span("pass", registry=registry):
                    pass
        totals = captured.phase_totals()
        assert set(totals) == {"pass"}
        assert captured.roots[0].seconds <= totals["pass"]


class TestDisabled:
    def test_everything_degrades_to_noop(self):
        registry = Metrics()
        previous = set_enabled(False)
        try:
            assert not enabled()
            assert span("p", registry=registry) is _NULL_SPAN
            with capture() as captured:
                with span("p", registry=registry) as disabled:
                    disabled.fields["lane"] = "scalar"  # annotating: no-op
                incr("c")
                event("e")
            assert captured.roots == []
            assert captured.counters == {}
            assert registry.histogram("p").count == 0
            assert _NULL_SPAN.fields == {}
        finally:
            set_enabled(previous)

    def test_set_enabled_returns_previous_state(self):
        assert set_enabled(False) is True
        assert set_enabled(True) is False
        assert enabled()


class TestSinks:
    def test_jsonl_sink_streams_spans_and_events(self, tmp_path):
        registry = Metrics()
        path = tmp_path / "metrics.jsonl"
        with JsonlSink(str(path)) as sink:
            with span("outer", registry=registry):
                with span("inner", registry=registry, nodes=3):
                    pass
            event("planner.decision", chosen="ddnnf")
            emit_record({"type": "span", "name": "shipped", "seconds": 0.5})
        assert sink.records == 4
        records = [
            json.loads(line)
            for line in path.read_text().splitlines()
        ]
        by_name = {record["name"]: record for record in records}
        # Children finish (and stream) before their parents.
        assert [r["name"] for r in records] == [
            "inner", "outer", "planner.decision", "shipped",
        ]
        assert by_name["inner"]["path"] == "outer/inner"
        assert by_name["inner"]["depth"] == 1
        assert by_name["inner"]["nodes"] == 3
        assert by_name["outer"]["depth"] == 0
        assert by_name["planner.decision"]["type"] == "event"
        assert by_name["planner.decision"]["chosen"] == "ddnnf"

    def test_callable_sink_and_removal(self):
        registry = Metrics()
        seen = []
        add_sink(seen.append)
        try:
            with span("a", registry=registry):
                pass
        finally:
            remove_sink(seen.append)
        with span("b", registry=registry):
            pass
        assert [record["name"] for record in seen] == ["a"]


class TestRendering:
    def test_render_span_tree_shows_nesting_and_shares(self):
        registry = Metrics()
        with capture() as captured:
            with span("root", registry=registry):
                with span("child", registry=registry):
                    pass
        text = render_span_tree(captured.roots)
        lines = text.splitlines()
        assert lines[0].startswith("root")
        assert lines[1].lstrip().startswith("child")
        assert "%" in lines[0]
