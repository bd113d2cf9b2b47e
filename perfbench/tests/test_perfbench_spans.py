import pytest

import spans
from spans import Recorder, covered_length, self_times


def _span(start, end, parent):
    return (0, start, end, parent, 0, 0)


def test_self_time_of_nested_spans():
    s = [
        _span(0.0, 10.0, -1),  # root
        _span(1.0, 4.0, 0),  # child
        _span(2.0, 3.0, 1),  # grandchild
        _span(5.0, 6.0, 0),  # second child
    ]
    assert self_times(s) == pytest.approx([6.0, 2.0, 1.0, 1.0])
    # nested spans partition the root interval exactly
    assert sum(self_times(s)) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    s = [_span(0.0, 10.0, -1), _span(1.0, 5.0, 0), _span(3.0, 7.0, 0), _span(4.0, 4.5, 0)]
    assert self_times(s)[0] == pytest.approx(10.0 - 6.0)


def test_children_are_clipped_to_the_parent():
    assert covered_length([(8.0, 12.0), (-1.0, 1.0)], 0.0, 10.0) == pytest.approx(3.0)
    assert covered_length([(11.0, 12.0)], 0.0, 10.0) == 0.0
    assert covered_length([], 0.0, 10.0) == 0.0


def test_recorder_links_parents_and_tags_ops():
    rec = Recorder()

    def leaf(x):
        return x + 1

    wrapped_leaf = rec.wrap("m.leaf", leaf)

    def outer(x):
        return wrapped_leaf(wrapped_leaf(x))

    wrapped_outer = rec.wrap("m.outer", outer)
    rec.op = 7
    assert wrapped_outer(1) == 3
    names = [rec.names[s[0]] for s in rec.spans]
    assert names == ["m.outer", "m.leaf", "m.leaf"]
    assert [s[3] for s in rec.spans] == [-1, 0, 0]
    assert all(s[4] == 7 for s in rec.spans)
    assert all(s[2] >= s[1] for s in rec.spans)


def test_install_patches_callers_namespaces_and_restores_them():
    import conebessel.hypergroup as hypergroup
    import conebessel.limits as limits
    import conebessel.linalg as linalg

    before = (limits.walk_simulate, hypergroup.convolve_sample, linalg.ConeMatrix.__init__)
    rec = Recorder()
    rec.install()
    try:
        assert limits.walk_simulate is not before[0]
        assert limits.walk_simulate.__wrapped__ is before[0]
        law = hypergroup.RadialLaw(weights=(1.0,), atoms=(linalg.ConeMatrix([[1.0]]),))
        params = linalg.StructureParams(1, 1, 4.0)
        rec.op = 0
        limits.free_energy_empirical(law, params, 4.0, 3, 1.0, 2, 5)
    finally:
        rec.uninstall()
    assert (limits.walk_simulate, hypergroup.convolve_sample, linalg.ConeMatrix.__init__) == before
    names = {rec.names[s[0]] for s in rec.spans}
    assert {"limits.free_energy_empirical", "hypergroup.walk_simulate", "seeds.substream",
            "hypergroup.convolve_sample", "linalg.ConeMatrix"} <= names
    metrics = spans.layer_metrics(rec, ops=1, op_wall_s=1.0, overhead_ratio=1.0)
    assert metrics["hypergroup.walk_simulate.calls"] == 2
    assert metrics["seeds.substream.calls"] == 2
    assert set(metrics) == set(spans.per_layer_units())
    # every span nests inside the one top-level call, so self times add up to it
    top = next(s for s in rec.spans if rec.names[s[0]] == "limits.free_energy_empirical")
    assert metrics["trace.self_sum_s"] == pytest.approx(top[2] - top[1])


def test_recorder_refuses_double_install():
    rec = Recorder()
    rec.install()
    try:
        with pytest.raises(RuntimeError):
            rec.install()
    finally:
        rec.uninstall()
