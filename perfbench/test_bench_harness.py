"""Self-test of the benchmark harness at tiny sizes.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import os
import signal
import time

import pytest

import hostspeed
import run
import spans
import workloads

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "TRAIN_BINARY_N", 40)
    monkeypatch.setattr(workloads, "TRAIN_ONECLASS_N", 120)
    monkeypatch.setattr(workloads, "PHISHING_MBOX_FILES", 2)
    monkeypatch.setattr(workloads, "CLASSIFY_TRAIN_N", 80)
    monkeypatch.setattr(workloads, "STREAM_HAM_SPAM", 12)
    monkeypatch.setattr(workloads, "STREAM_PHISHING", 6)
    monkeypatch.setattr(workloads, "COLD_RUNS", 2)
    monkeypatch.setattr(workloads, "ACCURACY_FLOOR",
                        dict.fromkeys(workloads.WORKLOADS, 0.0))
    monkeypatch.setattr(run, "SETUPS", 2)
    monkeypatch.setattr(run, "SETUP_SECONDS", 0.0)
    monkeypatch.setattr(run, "IMPORT_RUNS", 1)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", ["train-oneclass", "classify-stream"])
def test_every_metric_prints_with_its_unit(tiny, tmp_path, workload, trace):
    result, metrics, lines = run.run(workload, 3, 0.0, trace,
                                     str(tmp_path / "work"),
                                     str(tmp_path / "out"))
    assert result.failed == 0, result.reasons
    assert result.attempted >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: unit for name, (_, unit) in metrics.items()} == \
        {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(v, float) for v, _ in metrics.values())
    if trace:
        total = metrics["trace.total_s"][0]
        assert total > 0
        assert sum(metrics[f"{layer}.self_s"][0]
                   for layer in spans.LAYERS) == pytest.approx(total, rel=1e-9)
        assert (tmp_path / "out" / f"trace-{workload}-seed3.json.gz").exists()
    else:
        assert all(v > 0 for v, _ in metrics.values())


def test_spans_nest_and_self_times_sum_to_the_root(tiny):
    import headerscan as hs

    raws, _ = workloads.make_stream(5)
    records = hs.to_records(hs.generate_emails(60, 0.5, seed=5))
    tracer = spans.Tracer("self-test")
    tracer.install()
    try:
        root = tracer.begin(tracer.name_id(spans.ROOT))
        schema = hs.fit_schema(records, k=20)
        for raw in raws:
            hs.extract(hs.parse_headers(raw), schema)
        tracer.end(root)
    finally:
        tracer.uninstall()
    assert hs.parse_headers.__module__ == "headerscan.headers"
    assert not hasattr(hs.parse_headers, "__wrapped__")

    n = len(tracer.name_col)
    assert n > len(raws) * 3
    for i in range(1, n):
        p = tracer.parent_col[i]
        assert 0 <= p < i
        assert tracer.start_col[p] <= tracer.start_col[i]
        assert tracer.end_col[i] <= tracer.end_col[p]
    summary = spans.Summary(tracer)
    assert min(summary.self_ns) >= 0
    assert sum(summary.self_ns) == summary.root_ns()
    assert summary.calls["headers.parse_headers"] == len(raws)
    assert summary.calls["features.extract"] == len(raws)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_inputs_depend_on_the_seed_only(tiny, tmp_path, workload):
    wl = workloads.WORKLOADS[workload]()
    a = wl.inputs_digest(wl.setup(str(tmp_path / "a"), 1))
    b = wl.inputs_digest(wl.setup(str(tmp_path / "b"), 1))
    c = wl.inputs_digest(wl.setup(str(tmp_path / "c"), 2))
    assert a == b
    assert a != c


def test_a_verdict_mismatch_counts_as_a_failure(tiny, tmp_path, monkeypatch):
    wl = workloads.ClassifyWorkload()
    state = wl.setup(str(tmp_path / "in"), 4)
    wl.start(state)
    result = run.Result()
    wl.run_pass(state, result)
    assert result.failed == 0

    real = workloads.verdict
    monkeypatch.setattr(workloads, "verdict",
                        lambda bundle, s: ("wrong",) + real(bundle, s)[1:])
    wl.cold(state, result, run.child_env())
    assert result.failed == workloads.COLD_RUNS
    assert result.attempted == 2 * len(state["raws"]) + workloads.COLD_RUNS

    def broken(bundle, raw):
        raise ValueError("scoring failed")

    monkeypatch.setattr(workloads, "score", broken)
    wl.run_pass(state, result)
    assert result.failed == workloads.COLD_RUNS + 2 * len(state["raws"]) + 1


def test_the_speedometer_samples_through_a_section_and_cleans_up():
    previous = signal.getsignal(signal.SIGALRM)
    with hostspeed.Speedometer() as meter:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    assert len(meter.speeds) >= 5  # one at the start, then every 20 ms
    assert 0 < meter.probe_s < meter.wall_s
    assert meter.reference_s > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous
