"""The benchmark's workloads: inputs made from a seed, one timed pass,
and the checks on what headerscan returns.

Each workload is a closed loop with one client: the next operation
starts when the previous one has returned. headerscan is reached only
through its public functions and its command line.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import time

import numpy as np

import headerscan as hs
from headerscan.corpus import Label
from headerscan.learners import ModelSpec, derive_seed
from headerscan.synthetic import write_labeled_dirs, write_trec

# corpus sizes, chosen so that one run of --seconds holds several passes
TRAIN_BINARY_N = 100
TRAIN_ONECLASS_N = 2000
PHISHING_MBOX_FILES = 8

CLASSIFY_TRAIN_N = 400
STREAM_HAM_SPAM = 300          # a third of these are spam
STREAM_PHISHING = 100
MANGLED_SHARE = 0.25
# the stack's forest stops at this depth: unbounded, its path lengths
# and so its scoring time vary by a tenth between seeds
FOREST_DEPTH = 8
COLD_RUNS = 8

# lowest acceptable min_accuracy per workload; a run below it fails
ACCURACY_FLOOR = {"train-binary": 0.8, "train-oneclass": 0.8,
                  "classify-stream": 0.7}


class CheckFailed(Exception):
    """An output of headerscan that the benchmark judged wrong."""


def tree_digest(root: str) -> str:
    """sha256 over every file under root: relative path, then bytes."""
    h = hashlib.sha256()
    for base, dirs, names in os.walk(root):
        dirs.sort()
        for name in sorted(names):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
            h.update(b"\0")
    return h.hexdigest()


def _to_mbox(raw: bytes) -> bytes:
    """One mbox member: envelope line, LF line ends, "From " escaped."""
    lines = raw.replace(b"\r\n", b"\n").split(b"\n")
    lines = [b">" + line if line.startswith(b"From ") else line
             for line in lines]
    return b"From sender@example.invalid Thu Jan  1 00:00:00 2009\n" + \
        b"\n".join(lines) + b"\n"


# -- training workloads ---------------------------------------------------

class TrainWorkload:
    """One `run_phases` call per operation, all config defaults."""

    def __init__(self, name: str, phases: list[int]):
        self.name = name
        self.phases = phases

    def setup(self, dest: str, seed: int) -> dict:
        os.makedirs(dest)
        if self.phases == [1]:
            emails = hs.generate_emails(TRAIN_BINARY_N, 0.5,
                                        seed=derive_seed(seed, "ham-spam"))
            write_trec(emails, os.path.join(dest, "trec"))
            doc = {"seed": seed, "trec_index": "trec/index"}
        else:
            emails = hs.generate_emails(TRAIN_ONECLASS_N, 0.5,
                                        seed=derive_seed(seed, "ham-spam"))
            write_labeled_dirs(emails, os.path.join(dest, "dirs"))
            phishing = hs.generate_emails(
                TRAIN_ONECLASS_N, 1.0, seed=derive_seed(seed, "phishing"),
                anomaly_label=Label.PHISHING)
            box_dir = os.path.join(dest, "phishing")
            os.makedirs(box_dir)
            for i in range(PHISHING_MBOX_FILES):
                with open(os.path.join(box_dir, f"box{i}.mbox"), "wb") as fh:
                    for e in phishing[i::PHISHING_MBOX_FILES]:
                        fh.write(_to_mbox(e.raw))
            doc = {"seed": seed, "ham_dir": "dirs/ham",
                   "spam_dir": "dirs/anomalous", "phishing_dir": "phishing"}
        cfg_path = os.path.join(dest, "config.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True)
        config = hs.load_config(cfg_path,
                                output_dir=os.path.join(dest, "out"))
        return {"dest": dest, "config": config,
                "manifest": None, "accuracy": None}

    def inputs_digest(self, state: dict) -> str:
        return tree_digest(state["dest"])

    def start(self, state: dict) -> None:
        pass

    def cold(self, state: dict, result, env: dict) -> None:
        pass

    def latencies(self, state: dict) -> dict:
        return {}

    def run_pass(self, state: dict, result, clock=time.perf_counter) -> None:
        result.attempted += 1
        try:
            manifest = hs.run_phases(state["config"], self.phases)
            self._check(state, manifest)
        except Exception as exc:  # a failed run is counted, not fatal
            result.fail(f"run_phases: {exc!r}")

    def _check(self, state: dict, manifest: dict) -> None:
        cfg = state["config"]
        with open(os.path.join(cfg.output_dir, "manifest.json"), "rb") as fh:
            written = fh.read()
        if state["manifest"] is None:
            state["manifest"] = written
        elif written != state["manifest"]:
            raise CheckFailed("manifest.json differs from the first pass")
        phases = sorted(int(p) for p in manifest["phases"])
        if phases != self.phases:
            raise CheckFailed(f"phases {phases} != requested {self.phases}")
        accs = []
        for entry in manifest["phases"].values():
            reports = [entry["best"]["test"], *entry["test"].values(),
                       *entry.get("stacking", {}).values()]
            accs += [report["accuracy"] for report in reports]
        if not all(isinstance(a, float) and math.isfinite(a) for a in accs):
            raise CheckFailed(f"non-finite accuracy in {accs}")
        state["accuracy"] = min(entry["best"]["test"]["accuracy"]
                                for entry in manifest["phases"].values())
        if state["accuracy"] < ACCURACY_FLOOR[self.name]:
            raise CheckFailed(f"best accuracy {state['accuracy']} is below "
                              f"the floor {ACCURACY_FLOOR[self.name]}")

    def finish(self, state: dict, result) -> None:
        # 0 when no pass got as far as the check; those passes failed
        result.accuracy = state["accuracy"] or 0.0


# -- classify stream --------------------------------------------------------

def _mangle(raw: bytes, kind: int, rng: np.random.Generator) -> bytes:
    """One of six deterministic defects, chosen by kind."""
    head, sep, body = raw.partition(b"\r\n\r\n")
    lines = head.split(b"\r\n")
    if kind == 0:    # header block cut mid-line, no body
        return head[:int(rng.integers(len(head) // 4, 3 * len(head) // 4))]
    if kind == 1:    # 8-bit bytes inside field values
        noise = bytes(int(b) for b in rng.integers(0x80, 0x100, size=12))
        lines = [line + b" " + noise if line[:5] in (b"Subje", b"From:")
                 else line for line in lines]
    elif kind == 2:  # bare LF line ends
        return raw.replace(b"\r\n", b"\n")
    elif kind == 3:  # folding broken: stray continuation, unfolded tails
        lines = [b" orphan continuation"] + \
            [line.lstrip(b"\t") for line in lines]
    elif kind == 4:  # no Date field
        lines = [line for line in lines if not line.startswith(b"Date:")]
    else:            # a Received chain of 15 or more hops
        start = next(i for i, line in enumerate(lines)
                     if line.startswith(b"Received:"))
        end = start + 1
        while end < len(lines) and lines[end][:1] in (b" ", b"\t"):
            end += 1
        lines = lines[start:end] * int(rng.integers(15, 21)) + lines
    return b"\r\n".join(lines) + sep + body


def make_stream(seed: int) -> tuple[list[bytes], list[bool]]:
    """Unseen ham, spam and phishing in a seeded order, a fixed share of
    them mangled. Returns raw messages and is-anomalous flags."""
    mixed = hs.generate_emails(STREAM_HAM_SPAM, 1 / 3,
                               seed=derive_seed(seed, "stream"))
    phishing = hs.generate_emails(STREAM_PHISHING, 1.0,
                                  seed=derive_seed(seed, "stream-phishing"),
                                  anomaly_label=Label.PHISHING)
    emails = mixed + phishing
    rng = np.random.default_rng(derive_seed(seed, "stream-order"))
    order = rng.permutation(len(emails))
    n_mangled = int(round(MANGLED_SHARE * len(emails)))
    raws, flags = [], []
    for rank, i in enumerate(order):
        raw = emails[i].raw
        if rank < n_mangled:
            raw = _mangle(raw, rank % 6, rng)
        raws.append(raw)
        flags.append(emails[i].label is not Label.HAM)
    return raws, flags


def _fit(records):
    schema = hs.fit_schema(records, k=50, one_hot=True)
    schema, matrix, _ = hs.prune_single_valued(
        schema, hs.extract_matrix(records, schema))
    scaler = hs.fit_scaler(matrix)
    return schema, scaler, hs.apply_scaler(matrix, scaler)


def score(bundle, raw: bytes):
    """The `classify` command's scoring path for one message."""
    vector = hs.apply_scaler(hs.extract(hs.parse_headers(raw), bundle.schema),
                             bundle.scaler)
    fingerprint = bundle.schema.fingerprint
    if bundle.model.spec.algorithm == "one_class_svm":
        return hs.predict_one_class(bundle.model, vector, fingerprint)
    return hs.predict(bundle.model, vector, fingerprint)


def verdict(bundle, s) -> tuple[str, str]:
    """(label, decision value) exactly as `classify` prints them."""
    label = bundle.positive_label if s.is_anomalous else "ham"
    return label, repr(s.decision_value)


class ClassifyWorkload:
    """Messages scored one at a time with a stack bundle and a one-class
    bundle, each loaded once; then cold `classify` processes."""

    name = "classify-stream"
    BUNDLES = ("stack", "oneclass")

    def setup(self, dest: str, seed: int) -> dict:
        os.makedirs(dest)
        records = hs.to_records(hs.generate_emails(
            CLASSIFY_TRAIN_N, 0.5, seed=derive_seed(seed, "train")))
        y = np.array([0 if r.label is Label.HAM else 1 for r in records])
        schema, scaler, X = _fit(records)
        stack = hs.train_stack(
            [ModelSpec("random_forest", {"max_depth": FOREST_DEPTH},
                       derive_seed(seed, "rf")),
             ModelSpec("knn", {}, derive_seed(seed, "knn")),
             ModelSpec("linear_svm", {}, derive_seed(seed, "svm"))],
            ModelSpec("logreg", {}, derive_seed(seed, "meta")),
            X, y, schema.fingerprint)
        paths = {"stack": os.path.join(dest, "stack.model.json"),
                 "oneclass": os.path.join(dest, "oneclass.model.json")}
        hs.save_bundle(paths["stack"], stack, schema, scaler, "spam")

        ham = [r for r in records if r.label is Label.HAM]
        schema, scaler, Xh = _fit(ham)
        oneclass = hs.train_one_class(
            ModelSpec("one_class_svm", {"nu": 0.1, "gamma": 1.0 / Xh.shape[1]},
                      derive_seed(seed, "ocsvm")), Xh, schema.fingerprint)
        hs.save_bundle(paths["oneclass"], oneclass, schema, scaler, "spam")

        raws, flags = make_stream(seed)
        cold = []
        step = len(raws) // COLD_RUNS
        for j in range(COLD_RUNS):
            i = j * step
            path = os.path.join(dest, f"cold{j}.eml")
            with open(path, "wb") as fh:
                fh.write(raws[i])
            cold.append((i, self.BUNDLES[j % 2], path))
        return {"dest": dest, "paths": paths, "raws": raws, "flags": flags,
                "cold": cold, "verdicts": None, "bundles": None,
                "latency_s": {b: [] for b in self.BUNDLES},
                "cold_ns": [], "load_ns": []}

    def inputs_digest(self, state: dict) -> str:
        h = hashlib.sha256(tree_digest(state["dest"]).encode())
        for raw, flag in zip(state["raws"], state["flags"]):
            h.update(hashlib.sha256(raw).digest() + bytes([flag]))
        return h.hexdigest()

    def start(self, state: dict) -> None:
        bundles = {}
        for name in self.BUNDLES:
            t0 = time.perf_counter_ns()
            bundles[name] = hs.load_bundle(state["paths"][name])
            state["load_ns"].append(time.perf_counter_ns() - t0)
        state["bundles"] = bundles

    def run_pass(self, state: dict, result, clock=time.perf_counter) -> None:
        """`clock` times each message; it may leave out time that is not
        headerscan's."""
        verdicts = []
        bundles = state["bundles"]
        for raw in state["raws"]:
            for name in self.BUNDLES:
                result.attempted += 1
                t0 = clock()
                try:
                    s = score(bundles[name], raw)
                except Exception as exc:  # counted, the stream goes on
                    result.fail(f"{name}: {exc!r}")
                    verdicts.append(None)
                    continue
                state["latency_s"][name].append(clock() - t0)
                if not math.isfinite(s.decision_value):
                    result.fail(f"{name}: decision value {s.decision_value}")
                verdicts.append(verdict(bundles[name], s))
        if state["verdicts"] is None:
            state["verdicts"] = verdicts
        elif verdicts != state["verdicts"]:
            result.fail("verdicts differ from the first pass")

    def cold(self, state: dict, result, env: dict) -> None:
        """Sequential `python -m headerscan.cli classify` processes; each
        must agree with the in-process verdict for its message."""
        for i, name, path in state["cold"]:
            bundle = state["bundles"][name]
            expected = verdict(bundle, score(bundle, state["raws"][i]))
            result.attempted += 1
            t0 = time.perf_counter_ns()
            proc = subprocess.run(
                [sys.executable, "-m", "headerscan.cli", "classify",
                 "--model", state["paths"][name], path],
                env=env, capture_output=True, timeout=120)
            state["cold_ns"].append(time.perf_counter_ns() - t0)
            check_cold(proc.returncode, proc.stdout.decode("utf-8", "replace"),
                       expected, result)

    def latencies(self, state: dict) -> dict:
        """name -> (value, unit, sample description)"""
        out = {}
        for name in self.BUNDLES:
            ms = [v * 1e3 for v in state["latency_s"][name]]
            for q in (50, 99):
                out[f"classify.{name}_p{q}_ms"] = (
                    percentile(ms, q), "ms", f"{len(ms)} messages")
        cold_ms = [v / 1e6 for v in state["cold_ns"]]
        out["cli.cold_classify_p50_ms"] = (
            percentile(cold_ms, 50), "ms", f"{len(cold_ms)} processes")
        return out

    def finish(self, state: dict, result) -> None:
        verdicts = state["verdicts"] or []
        accs = []
        for b, name in enumerate(self.BUNDLES):
            got = verdicts[b::len(self.BUNDLES)]
            right = sum(1 for v, flag in zip(got, state["flags"])
                        if v is not None and (v[0] != "ham") == flag)
            accs.append(right / len(state["flags"]))
        result.accuracy = min(accs)
        if result.accuracy < ACCURACY_FLOOR[self.name]:
            result.fail(f"accuracy {result.accuracy} is below the floor "
                        f"{ACCURACY_FLOOR[self.name]}")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def check_cold(returncode: int, stdout: str, expected: tuple[str, str],
               result) -> None:
    """A cold classify exits 0 (ham) or 10 (anomalous) and prints the
    in-process label and decision value."""
    if returncode not in (0, 10):
        result.fail(f"classify exited {returncode}")
        return
    fields = stdout.strip().split("\t")
    if len(fields) != 3 or (fields[0], fields[1]) != expected:
        result.fail(f"classify printed {stdout.strip()!r}, "
                    f"expected {expected}")
    elif (returncode == 10) != (expected[0] != "ham"):
        result.fail(f"classify exit code {returncode} disagrees with "
                    f"label {expected[0]}")


WORKLOADS = {
    "train-binary": lambda: TrainWorkload("train-binary", [1]),
    "train-oneclass": lambda: TrainWorkload("train-oneclass", [3, 4]),
    "classify-stream": ClassifyWorkload,
}
