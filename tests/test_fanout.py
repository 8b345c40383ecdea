"""Grid jobs spread over forked workers: the same bytes as the serial
run, no fork beside a second live thread, a worker's failure raised in
the main process as itself, and no child process left behind."""

import importlib.util
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from headerscan import evaluation
from headerscan.pipeline import load_config, run_phases
from tests.test_pipeline import small_config

pytestmark = pytest.mark.fanout

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("compare_runs", ROOT / "tools" / "compare_runs.py")
compare_runs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_runs)

# run_phases on argv[1] with the process count forced to argv[2]; with
# argv[3] "fail", every one-class fit a worker runs raises, while the main
# process's fits wait long enough for a worker to take a job. Prints the
# forks, the error raised and whether a child process is left.
CHILD = r"""
import json, multiprocessing, os, sys, time
from headerscan import evaluation, learners
from headerscan.pipeline import load_config, run_phases
config, processes, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
evaluation._processes = lambda: processes
forks, fork, main = [], os.fork, os.getpid()

def counting_fork():
    # one worker at a time beside the main process: at most 2 processes
    assert not multiprocessing.active_children()
    pid = fork()
    if pid:
        forks.append(pid)
    return pid

os.fork = counting_fork
if mode == "fail":
    row = learners.LEARNERS["one_class_svm"]
    def train(specs, X):
        if os.getpid() != main:
            raise learners.ConvergenceError("forked fit failed", residual=0.25)
        time.sleep(0.3)
        return row.train(specs, X)
    learners.LEARNERS["one_class_svm"] = row._replace(train=train)
error = None
try:
    run_phases(load_config(config), [1, 2, 3, 4] if mode == "run" else [3])
except learners.ConvergenceError as exc:
    error = [type(exc).__name__, str(exc), exc.residual]
try:
    os.waitpid(-1, os.WNOHANG)
    left = True
except ChildProcessError:
    left = False
print(json.dumps({"forks": len(forks), "error": error, "children_left": left}))
"""


def run_child(tmp_path, name, processes, mode):
    out = tmp_path / name
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps(small_config(out)))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", CHILD, str(config), str(processes), mode],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return str(out), json.loads(done.stdout.splitlines()[-1])


def test_two_processes_write_the_serial_runs_bytes(tmp_path):
    serial_out, serial = run_child(tmp_path, "serial", 1, "run")
    fanned_out, fanned = run_child(tmp_path, "fanned", 2, "run")
    assert serial == {"forks": 0, "error": None, "children_left": False}
    # one worker per phase grid, none left once run_phases returns
    assert fanned == {"forks": 4, "error": None, "children_left": False}
    serial_files = compare_runs.output_files(serial_out)
    assert len(serial_files) == 27
    assert compare_runs.differing_files(serial_files,
                                        compare_runs.output_files(fanned_out)) == []


def test_a_workers_convergence_error_reaches_the_main_process(tmp_path):
    _, failed = run_child(tmp_path, "failed", 2, "fail")
    assert failed == {"forks": 1, "children_left": False, "error": [
        "ConvergenceError", "forked fit failed (residual 2.500e-01)", 0.25]}
    # the serial run makes no fit in a worker, so none fails
    _, serial = run_child(tmp_path, "serial", 1, "fail")
    assert serial == {"forks": 0, "error": None, "children_left": False}


def test_a_second_live_thread_keeps_the_grid_in_one_process(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forks = []

    def fork():
        forks.append(1)
        raise OSError("a process with two threads must not fork")

    monkeypatch.setattr(os, "fork", fork)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert evaluation._processes() == 1
        config = tmp_path / "config.json"
        config.write_text(json.dumps(small_config(tmp_path / "out")))
        run_phases(load_config(str(config)), [1, 3])
    finally:
        release.set()
        thread.join(10)
    assert forks == [] and not thread.is_alive()


@pytest.mark.parametrize("tasks, cpus, processes", [
    (["1"], {0, 1, 2}, 3), (["1", "2"], {0, 1, 2}, 1), (["1"], {0}, 1),
    (FileNotFoundError, {0, 1}, 1)])
def test_processes_follow_the_cpus_and_the_thread_count(monkeypatch, tasks, cpus, processes):
    def listdir(path):
        assert path == "/proc/self/task"
        if tasks is FileNotFoundError:
            raise FileNotFoundError(path)
        return tasks

    monkeypatch.setattr(os, "listdir", listdir)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    assert evaluation._processes() == processes


def _job(i, ran):
    def job():
        with open(ran, "a") as fh:
            fh.write(f"{i}\n")
        time.sleep(0.01 * (i % 3))
        if i in (5, 6):
            raise ValueError(f"job {i}")
        return [i] * i
    return job


def test_run_jobs_keeps_job_order_and_raises_the_lowest_failure(monkeypatch, tmp_path):
    monkeypatch.setattr(evaluation, "_processes", lambda: 2)
    ran = tmp_path / "ran.txt"
    assert evaluation.run_jobs([_job(i, ran) for i in range(5)]) == [
        [i] * i for i in range(5)]
    ran.unlink()
    with pytest.raises(ValueError, match="^job 5$"):
        evaluation.run_jobs([_job(i, ran) for i in range(12)])
    # once job 5 or 6 fails, the other process finishes at most the one
    # job it has taken, and no job starts after that
    started = sorted(int(i) for i in ran.read_text().split())
    assert started[:6] == list(range(6)) and started[-1] <= 7
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# run_jobs on more processes than this host has CPUs, every job appending
# its index to a file opened for appending: a claim lost between two
# processes would run a job twice or never
STRESS = r"""
import os, sys
from headerscan import evaluation
path, processes = sys.argv[1], int(sys.argv[2])
evaluation._processes = lambda: processes

def job(i):
    def run():
        with open(path, "a") as fh:
            fh.write(f"{i} {os.getpid()}\n")
        return i
    return run

assert evaluation.run_jobs([job(i) for i in range(400)]) == list(range(400))
"""


def test_every_job_runs_once_on_more_processes_than_cpus(tmp_path):
    path = tmp_path / "ran.txt"
    processes = len(os.sched_getaffinity(0)) + 1
    done = subprocess.run([sys.executable, "-c", STRESS, str(path), str(processes)],
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    ran = [line.split() for line in path.read_text().splitlines()]
    assert sorted(int(i) for i, _ in ran) == list(range(400))
    assert len({pid for _, pid in ran}) <= processes
