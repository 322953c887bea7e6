"""Tests of the benchmark itself (not collected by the package's suite):

    python3 -m pytest perfbench -q
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.pin_blas_threads()
bench = run.import_bench()


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(bench.DEFAULT_SEED), "--seconds", "1",
         "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300,
        check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_reports_every_metric_and_no_failure(workload, trace):
    report, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in named}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    # the default seed is checked against the stored reference
    assert result["correct"] and result["failed"] == 0
    assert report["checks"]["fail_rate"] == 0.0
    assert report["checks"]["by_reference"] == result["attempted"] \
        - report["checks"]["traced_mismatch"]
    assert report["env"]["threads_env"]["OPENBLAS_NUM_THREADS"] == "1"
    if trace:
        assert report["missing"] == [] and report["unobserved"] == []


@pytest.fixture(scope="module")
def warm_sense():
    wl = bench.WORKLOADS["sense"]
    return bench.warm_up(bench.make_context(), wl)


def test_reference_matches_and_a_perturbed_value_is_caught(warm_sense):
    ref = bench.load_reference()["sense"]["warmup"]
    tally = bench.CheckTally()
    tally.check(warm_sense, ref)
    assert (tally.attempted, tally.failed, tally.by_reference) == (2, 0, 2)

    bad = copy.deepcopy(ref)
    bad[1]["range_mse.music"] *= 1.0 + 1e-8
    tally = bench.CheckTally()
    tally.check(warm_sense, bad)
    assert (tally.attempted, tally.failed) == (2, 1)


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_the_warm_up_checks_every_sinr_point(name):
    """Every run compares its warm-up to the reference, so the warm-up
    has the outputs of every point of a full call."""
    wl = bench.WORKLOADS[name]
    ref = bench.load_reference()[name]
    assert len(ref["warmup"]) == len(ref["calls"][0]) == wl.units_per_call
    if wl.trial_fn is not None:   # one trial per point: the first call
        assert ref["warmup"] == ref["calls"][0]


def test_invariants_reject_negative_nonfinite_and_ber_above_one():
    assert bench.valid({"range_mse.music": 0.0, "case_a": 1.0, "row": "x"})
    assert not bench.valid({"range_mse.music": -1e-30})
    assert not bench.valid({"value": float("nan")})
    assert not bench.valid({"case_c": 1.5})


def test_tracer_restores_every_binding_and_keeps_outputs(warm_sense):
    from jcs_music import harness, music, subspace
    before = (harness.music_range, music.decompose, subspace.decompose)
    tracer = bench.tracing.Tracer()
    with tracer:
        assert music.decompose is not before[1]
        traced = bench.warm_up(bench.make_context(), bench.WORKLOADS["sense"])
    assert (harness.music_range, music.decompose, subspace.decompose) == before
    assert traced == warm_sense
    table = bench.tracing.layer_table(tracer.spans)
    assert table["music.music_aoa"]["calls"] == 2
    assert all(row["self_s"] >= 0.0 for row in table.values())


def test_a_removed_layer_function_is_reported_missing(monkeypatch):
    from jcs_music import steering
    monkeypatch.delattr(steering, "doppler_steering_grid")
    assert bench.missing_layers() == ["steering.doppler_steering_grid"]


def test_an_unreadable_layer_result_is_reported_not_raised():
    tracer = bench.tracing.Tracer()
    traced = tracer._wrap("music.music_range", lambda: 7)
    assert traced() == 7
    assert tracer.unobserved == {"music.music_range"}
