import json
from pathlib import Path

from perfbench import layers, workloads
from perfbench.tracing import Tracer

ROOT = Path(__file__).resolve().parents[2]


def test_two_seeds_give_identical_answers(tmp_path):
    reference = workloads.load_reference()["big-host"]
    answers = []
    for seed in (1, 2):
        workdir = tmp_path / str(seed)
        workdir.mkdir()
        count_ops = [op for op in workloads.big_host(seed, workdir) if " count " in op.name]
        assert len(count_ops) == 2
        answers.append({op.name: op.answer(op.run()) for op in count_ops})
    inputs = [(tmp_path / str(seed) / f"numeral-10-3-seed{seed}.txt").read_text()
              for seed in (1, 2)]
    assert inputs[0] != inputs[1]
    assert answers[0] == answers[1]
    assert all(reference[name] == answer for name, answer in answers[0].items())


def test_reference_has_an_answer_for_every_op(tmp_path):
    reference = workloads.load_reference()
    for name, make_ops in workloads.WORKLOADS.items():
        assert [op.name for op in make_ops(0, tmp_path)] == list(reference[name])


def test_failed_checks_are_reported():
    op = workloads.Op("probe", lambda: 3, lambda x: x, lambda x: ["closed form differs"])
    assert workloads.check(op, 3, {"probe": 3}) == ["closed form differs"]
    assert workloads.check(op, 4, {"probe": 3})[0] == "answer differs from the reference"
    assert workloads.check(op, 3, {})[0] == "no reference answer stored"


def test_benchmark_json_declares_exactly_the_metrics_emitted():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    catalogue = json.loads((ROOT / "perfbench" / "per_layer.json").read_text())
    assert spec["per_layer"] == [{k: row[k] for k in ("name", "unit", "better")}
                                 for row in catalogue]
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    for row in catalogue:
        assert set(row["moves"]) <= end_to_end
        for names in row["moves"].values():
            assert set(names) <= set(workloads.WORKLOADS)

    caches = layers.cache_functions()
    tracer = Tracer(layers.HOOKS)
    tracer.install()
    try:
        before = layers.read_caches(caches)
        workloads.extremal_search.brute_force_many(6, [workloads.extremal_search.Pattern.cycle(3)])
        counts = layers.read_caches(caches)
        counts.subtract(before)
    finally:
        tracer.uninstall()
    emitted = layers.layer_metrics(tracer, counts, 0)
    assert set(emitted) | {"harness.trace_overhead_frac"} == {m["name"] for m in spec["per_layer"]}
    assert emitted["graph_core.enumerate_mops.hosts"] == 14
    assert emitted["graph_core.mop_graph_cache.misses"] + emitted[
        "graph_core.mop_graph_cache.hits"] == 14
    assert emitted["extremal_search.dedup.maximizers_in"] == 14  # every host has 4 triangles
    assert emitted["extremal_search.dedup.orbits_out"] == 3
