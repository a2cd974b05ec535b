import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import tvmerge
from tvmerge import ValidationError, _blas, harness, run_pipeline
from tvmerge._blas import one_blas_thread

pytestmark = pytest.mark.skipif(_blas._openblas() is None, reason="numpy's BLAS is not OpenBLAS")

# The benchmark's pipeline-sim suite and environment, scored by cos: at seed 5, task 1's loss
# rounds differently when the fit's QR runs on 1 or 2 OpenBLAS threads.
SIM_COS_CONFIG = {
    "seed": 5,
    "suite": {
        "num_tasks": 8,
        "dim": 2056,
        "support_mode": "overlapping",
        "overlap": 8,
        "samples_per_task": 320,
        "classes_per_task": 4,
    },
    "merge": {"method": "tunable", "lambda_merge": 1.0},
    "preference": {"source": "similarity", "metric": "cos"},
    "environment": {"members": [1, 3, 8], "mix": [0.5, 0.3, 0.2], "total_samples": 2000, "meta_fraction": 0.1},
}

SMALL_CONFIG = {
    "seed": 3,
    "suite": {"num_tasks": 3, "dim": 24, "samples_per_task": 30},
    "merge": {"method": "tunable", "lambda_merge": 1.0},
    "preference": {"source": "similarity", "metric": "mmd"},
    "environment": {"members": [1, 2], "mix": [0.5, 0.5], "total_samples": 40, "meta_fraction": 0.2},
}


def threads() -> int:
    return _blas._openblas()[1]()


@pytest.fixture
def two_threads():
    """The caller runs OpenBLAS on 2 threads; the count it had is restored after the test."""
    set_threads, get_threads = _blas._openblas()
    before = get_threads()
    set_threads(2)
    yield
    set_threads(before)


@pytest.mark.usefixtures("two_threads")
class TestGuardRestoresTheCallersCount:
    def test_run_pipeline_fits_on_one_thread_and_restores_two(self, monkeypatch):
        seen = []
        fit = harness.sequential_finetune_analog

        def recording_fit(*args):
            seen.append(threads())
            return fit(*args)

        monkeypatch.setattr(harness, "sequential_finetune_analog", recording_fit)
        run_pipeline(SMALL_CONFIG)
        assert seen == [1]
        assert threads() == 2

    def test_run_pipeline_restores_the_count_when_it_raises(self):
        config = {**SMALL_CONFIG, "environment": {**SMALL_CONFIG["environment"], "members": [1, 9]}}
        with pytest.raises(ValidationError, match="unknown member task ids"):
            run_pipeline(config)
        assert threads() == 2

    def test_a_nested_guard_keeps_one_thread_inside(self):
        with one_blas_thread():
            with one_blas_thread():
                assert threads() == 1
            assert threads() == 1
        assert threads() == 2

    def test_guards_in_two_threads_restore_the_count_once_both_are_left(self):
        # The first thread enters, the second enters, the first leaves, the second leaves.
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
        seen = []

        def first():
            with one_blas_thread():
                a_in.set()
                assert b_in.wait(timeout=10)
                seen.append(threads())
            a_out.set()

        def second():
            assert a_in.wait(timeout=10)
            with one_blas_thread():
                b_in.set()
                assert a_out.wait(timeout=10)
                seen.append(threads())

        workers = [threading.Thread(target=first), threading.Thread(target=second)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=20)
        assert not any(worker.is_alive() for worker in workers)
        assert seen == [1, 1]
        assert threads() == 2


def test_no_openblas_found_gives_the_same_report(monkeypatch):
    guarded = run_pipeline(SMALL_CONFIG)
    monkeypatch.setattr(_blas, "_openblas", lambda: None)
    unguarded = run_pipeline(SMALL_CONFIG)
    assert unguarded.to_json_text() == guarded.to_json_text()
    assert unguarded.to_csv_text() == guarded.to_csv_text()


def pipeline_reports(tmp_path, count):
    """The CSV and JSON reports' bytes of a ``tvmerge pipeline`` run under ``OPENBLAS_NUM_THREADS=count``."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SIM_COS_CONFIG))
    src = str(Path(tvmerge.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(count)}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    csv_out, json_out = tmp_path / f"r{count}.csv", tmp_path / f"r{count}.json"
    command = [sys.executable, "-m", "tvmerge.cli", "pipeline", "--config", str(config)]
    command += ["--csv-out", str(csv_out), "--json-out", str(json_out)]
    subprocess.run(command, env=env, check=True, timeout=120)
    return csv_out.read_bytes(), json_out.read_bytes()


@pytest.fixture(scope="module")
def one_thread_reports(tmp_path_factory):
    return pipeline_reports(tmp_path_factory.mktemp("one_thread"), 1)


@pytest.mark.parametrize("count", [2, 4])
def test_pipeline_reports_do_not_depend_on_the_thread_count(tmp_path, one_thread_reports, count):
    assert pipeline_reports(tmp_path, count) == one_thread_reports
