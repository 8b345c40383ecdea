"""Grid and load jobs spread over forked workers: the same bytes as the
serial run, no fork beside a second live thread or for a small corpus,
a worker's failure raised in the main process as itself, and no child
process left behind."""

import importlib.util
import json
import os
import pickle
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from headerscan import cli, corpus, fanout
from headerscan.corpus import CorpusRecord, Label, load_labeled_dir, load_trec_index
from headerscan.learners import derive_seed
from headerscan.pipeline import load_config, run_phases
from headerscan.synthetic import generate_emails, write_labeled_dirs, write_trec
from test_corpus import _mbox
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
from headerscan import fanout, learners
from headerscan.pipeline import load_config, run_phases
config, processes, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
fanout._processes = lambda: processes
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
        assert fanout._processes() == 1
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
    assert fanout._processes() == processes


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
    monkeypatch.setattr(fanout, "_processes", lambda: 2)
    ran = tmp_path / "ran.txt"
    assert fanout.run_jobs([_job(i, ran) for i in range(5)], "test") == [
        [i] * i for i in range(5)]
    ran.unlink()
    with pytest.raises(ValueError, match="^job 5$"):
        fanout.run_jobs([_job(i, ran) for i in range(12)], "test")
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
from headerscan import fanout
path, processes = sys.argv[1], int(sys.argv[2])
fanout._processes = lambda: processes

def job(i):
    def run():
        with open(path, "a") as fh:
            fh.write(f"{i} {os.getpid()}\n")
        return i
    return run

assert fanout.run_jobs([job(i) for i in range(400)], "stress") == list(range(400))
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


# -- loading ---------------------------------------------------------------

# about four synthetic messages: the test corpora split into many jobs
SMALL_JOB_BYTES = 8192


def _labeled_dir(tmp_path) -> tuple[str, str, str, str]:
    """A directory of two mbox files and single messages, with a dangling
    symlink between two of the singles; (dir, the link's id, the ids of
    the files before and after it)."""
    raws = [e.raw for e in generate_emails(60, 0.5, seed=41)]
    root = tmp_path / "dir"
    (root / "sub").mkdir(parents=True)
    (root / "a.mbox").write_bytes(_mbox(raws[:7]))
    (root / "sub" / "z.mbox").write_bytes(_mbox(raws[7:15]))
    for i, raw in enumerate(raws[15:]):
        (root / f"m{i:02d}.eml").write_bytes(raw)
    (root / "m20.gone").symlink_to(root / "nowhere.eml")
    return str(root), "m20.gone", "m20.eml", "m21.eml"


def _trec(tmp_path) -> tuple[str, str, str, str]:
    """A TREC corpus whose index lists a dangling symlink between two
    messages; (index, the link's id, the ids listed before and after it)."""
    index, root = write_trec(generate_emails(40, 0.5, seed=42), str(tmp_path / "trec"))
    lines = open(index).read().splitlines()
    os.symlink(os.path.join(root, "data", "nowhere.eml"), os.path.join(root, "gone.eml"))
    lines.insert(17, "spam gone.eml")
    with open(index, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return index, "gone.eml", lines[16].split()[1], lines[18].split()[1]


def _load(monkeypatch, caplog, processes: int, source: tuple, make=CorpusRecord):
    """The source's records and report at the process count forced, each
    job's (made, skipped) value, and the skip warnings."""
    monkeypatch.setattr(fanout, "_processes", lambda: processes)
    monkeypatch.setattr(corpus, "JOB_BYTES", SMALL_JOB_BYTES)
    jobs = []

    def run_jobs(job_list, what):
        jobs.extend(fanout.run_jobs(job_list, what))
        return jobs[-len(job_list):]

    monkeypatch.setattr(corpus, "run_jobs", run_jobs)
    caplog.clear()
    with caplog.at_level("INFO", logger="headerscan"):
        path = source[0]
        if path.endswith("index"):
            records, report = load_trec_index(path, os.path.dirname(path), make)
        else:
            records, report = load_labeled_dir(path, Label.PHISHING, make)
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    forked = any(f"{len(jobs)} jobs, 2 processes" in r.getMessage() for r in caplog.records)
    assert forked == (processes == 2)
    return records, report, jobs, warnings


def _fields(records) -> list:
    return [(r.id, r.label, r.digest, r.facts, r.names, r.malformed_line_count)
            for r in records]


@pytest.mark.parametrize("write", [_labeled_dir, _trec])
def test_loading_at_two_processes_gives_the_serial_records(tmp_path, monkeypatch, caplog, write):
    source = write(tmp_path)
    _path, link, before, after = source
    serial, serial_report, _, serial_warnings = _load(monkeypatch, caplog, 1, source)
    fanned, report, jobs, warnings = _load(monkeypatch, caplog, 2, source)
    assert len(jobs) > 3
    assert _fields(fanned) == _fields(serial) and report == serial_report
    assert [r.id for r in fanned] == sorted(r.id for r in fanned)
    # the link is skipped and counted once, by a job that loads its neighbours
    assert report.skipped == 1 and report.loaded == report.entries - 1
    assert len(warnings) == 1 and warnings[0].startswith(f"skipping {link}: ")
    assert warnings == serial_warnings
    (made, _), = [value for value in jobs if value[1]]
    assert {before, after} <= {id for id, _ in made}


def test_records_from_a_worker_share_their_strings_with_the_corpus(tmp_path, monkeypatch,
                                                                   caplog):
    main = os.getpid()

    def make(id, header, label):  # the main process waits so that the worker takes jobs
        if os.getpid() == main and id == "a.mbox:0":
            time.sleep(0.3)
        return os.getpid(), CorpusRecord(id, header, label)

    made, *_ = _load(monkeypatch, caplog, 2, _labeled_dir(tmp_path), make)
    from_worker = [record for pid, record in made if pid != main]
    assert from_worker
    for record in from_worker:
        assert all(name is sys.intern(name) for name in record.names)
        shared = [getattr(record.facts, slot) for slot in record.facts.__slots__]
        assert all(value is sys.intern(value) for value in shared if isinstance(value, str))
    # the same holds for any record unpickled in this process
    record = pickle.loads(pickle.dumps(from_worker[0]))
    assert _fields([record]) == _fields(from_worker[:1])
    assert record.names[0] is from_worker[0].names[0]
    assert record.facts.from_domain is from_worker[0].facts.from_domain is not None


def test_ingest_writes_the_serial_cache_at_two_processes(tmp_path, monkeypatch, caplog):
    emails = generate_emails(80, 0.5, seed=43)
    ham, spam = write_labeled_dirs(emails, str(tmp_path / "dirs"))
    phishing, *_ = _labeled_dir(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 1, "ham_dir": ham, "spam_dir": spam,
                                  "phishing_dir": phishing}))
    monkeypatch.setattr(corpus, "JOB_BYTES", SMALL_JOB_BYTES)
    caches = []
    for processes in (1, 2):
        monkeypatch.setattr(fanout, "_processes", lambda: processes)
        out = tmp_path / f"out{processes}"
        caplog.clear()
        with caplog.at_level("INFO", logger="headerscan"):
            assert cli.main(["ingest", "--config", str(config), "--out", str(out)]) == 0
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("loading")]
        # load_datasets, then the re-read: each source twice
        assert len(lines) == 6
        assert all(f", {processes} processes, " in line for line in lines)
        caches.append((out / "cache.csv").read_bytes())
    assert caches[0] == caches[1] and caches[0].count(b"\n") == 1 + 80 + 60


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_100_message_trec_corpus_forks_nothing(tmp_path, monkeypatch, caplog, seed):
    """train-binary's corpus, about 215 KB: one job in the main process."""
    emails = generate_emails(100, 0.5, seed=derive_seed(seed, "ham-spam"))
    index, root = write_trec(emails, str(tmp_path / "trec"))
    monkeypatch.setattr(fanout, "_processes", lambda: 2)

    def fork():
        raise OSError("a small corpus must not fork")

    monkeypatch.setattr(os, "fork", fork)
    with caplog.at_level("INFO", logger="headerscan"):
        records, report = load_trec_index(index, root)
    assert len(records) == report.loaded == 100
    assert [r.getMessage().split(": ", 1)[1].split(",")[:2] for r in caplog.records] == [
        ["1 jobs", " 1 processes"]]
