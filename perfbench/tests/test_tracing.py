import pytest

from opturan import extremal_search, graph_core, numeral_paths, tree_engine
from perfbench.tracing import Span, Tracer, self_times


@pytest.fixture
def tracer():
    t = Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def test_self_times_hand_built_tree():
    spans = [
        Span("a", -1, 0.0, 10.0),
        Span("b", 0, 1.0, 4.0),   # b and c overlap on [3, 4]: covered once
        Span("c", 0, 3.0, 6.0),
        Span("d", 1, 2.0, 3.0),
        Span("b", 0, 9.0, 12.0),  # reaches past its parent: clipped to [9, 10]
        Span("e", -1, 20.0, 21.5),
    ]
    got = self_times(spans)
    assert got["a"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert got["b"] == pytest.approx((3.0 - 1.0) + 3.0)
    assert got["c"] == pytest.approx(3.0)
    assert got["d"] == pytest.approx(1.0)
    assert got["e"] == pytest.approx(1.5)


def _assert_partition(spans, root_name):
    """Self times of a root span and everything under it add up to the
    root's duration: no interval is counted twice."""
    root = next(s for s in spans if s.name == root_name and s.parent == -1)
    assert sum(self_times(spans).values()) == pytest.approx(root.end - root.start)


def test_nested_calls_are_not_counted_twice(tracer):
    host = graph_core.fan(7).graph
    tracer.spans.clear()
    graph_core.count_paths(host, 3)
    names = {s.name: s for s in tracer.spans}
    assert tracer.spans[names["graph_core.path_histogram"].parent].name == "graph_core.count_paths"
    _assert_partition(tracer.spans, "graph_core.count_paths")

    tracer.spans.clear()
    numeral_paths.numeral_graph(4, 2)
    parents = {tracer.spans[s.parent].name for s in tracer.spans
               if s.name == "graph_core.Mop.validate"}
    assert parents == {"numeral_paths.numeral_graph"}
    _assert_partition(tracer.spans, "numeral_paths.numeral_graph")


def test_generator_resumptions_are_spans(tracer):
    hosts = list(graph_core.enumerate_mops(6))
    assert len(hosts) == 14
    assert tracer.counts["graph_core.enumerate_mops.calls"] == 1
    assert tracer.counts["graph_core.enumerate_mops.yielded"] == 14
    resumptions = [i for i, s in enumerate(tracer.spans) if s.name == "graph_core.enumerate_mops"]
    assert len(resumptions) == 15  # the last one ends the stream
    validations = [s for s in tracer.spans if s.name == "graph_core.Mop.validate"]
    assert len(validations) == 14
    assert all(s.parent in resumptions for s in validations)


def test_install_replaces_every_import_site_and_uninstall_restores():
    original = graph_core.cycle_histogram
    original_graph = vars(graph_core.Mop)["graph"]
    t = Tracer()
    t.install()
    try:
        assert graph_core.cycle_histogram is not original
        assert extremal_search.cycle_histogram is graph_core.cycle_histogram
        assert tree_engine.count_cycles is graph_core.count_cycles
        with pytest.raises(RuntimeError):
            t.install()
        extremal_search.brute_force_many(5, [extremal_search.Pattern.cycle(3)])
        assert t.counts["graph_core.cycle_histogram.calls"] == 5
        assert t.counts["graph_core.Mop.graph.calls"] == 5
    finally:
        t.uninstall()
    assert graph_core.cycle_histogram is original
    assert extremal_search.cycle_histogram is original
    assert vars(graph_core.Mop)["graph"] is original_graph
