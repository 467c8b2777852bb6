import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

from catalog import END_TO_END, PER_LAYER, span_metrics
from spans import Profile, Recorder, install

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def test_benchmark_json_matches_the_metric_catalog():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
    assert [w["name"] for w in doc["workloads"]] == ["grid", "serve-hot", "serve-cold"]


def test_span_metrics_are_all_in_the_catalog():
    names = {m.name for m in PER_LAYER}
    assert set(span_metrics(Profile([]), 1.0)) <= names


def test_self_time_keeps_sub_steps_in_their_layer():
    t = iter(range(100))
    rec = Recorder(clock=lambda: float(next(t)))
    with rec.span("suite.harness"):
        with rec.span("schedulers.lbc"):                   # 1 .. 8
            with rec.span("schedulers.lbc.forest_components"):  # 2 .. 3
                pass
            with rec.span("analysis.verifier"):            # 4 .. 7
                with rec.span("analysis.verifier"):        # 5 .. 6
                    pass
        with rec.span("sparse.ordering"):                  # 9 .. 10
            pass
    prof = Profile(rec.spans)                              # harness 0 .. 11
    assert prof.busy("schedulers.lbc") == 7.0
    assert prof.self_time("schedulers.lbc") == 4.0  # the verifier call is not LBC
    assert prof.busy("schedulers.lbc.forest_components") == 1.0
    assert prof.busy("analysis.verifier") == prof.self_time("analysis.verifier") == 3.0
    assert prof.calls("analysis.verifier") == 1
    assert prof.self_time("suite.harness") == 11.0 - 7.0 - 1.0


def test_install_wraps_entry_points_and_undo_restores_them():
    import repro.suite.harness as harness
    from repro.kernels import KERNELS
    from repro.schedulers import SCHEDULERS

    before = (harness.apply_ordering, SCHEDULERS["lbc"], KERNELS["sptrsv"])
    rec = Recorder()
    patches = install(rec)
    try:
        assert harness.apply_ordering is not before[0]
        assert SCHEDULERS["lbc"] is not before[1]
    finally:
        patches.undo()
    assert (harness.apply_ordering, SCHEDULERS["lbc"], KERNELS["sptrsv"]) == before


def test_run_without_the_program_source_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode not in (0, None)
    assert proc.stdout == ""
    assert time.monotonic() - t0 < 60
