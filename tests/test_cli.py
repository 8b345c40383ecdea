"""Tests for the command line interface."""

import io
import json
import os
import random

import numpy as np
import pytest

from headerscan import cli, pipeline
from headerscan.cli import main
from headerscan.corpus import Label
from headerscan.learners import (LinearSVMModel, LogRegModel, ModelSpec,
                                 StackModel, load_bundle, save_bundle, train,
                                 train_one_class)
from headerscan.learners.bundle import encode_array
from headerscan.pipeline import load_config
from headerscan.synthetic import generate_emails, write_trec
from tests.test_pipeline import small_config


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config_path = root / "config.json"
    config_path.write_text(json.dumps(small_config(root / "out")))
    assert main(["run", "--config", str(config_path)]) == 0
    return str(config_path), str(root / "out")


def test_run_prints_summary(cli_run, capsys):
    config_path, out = cli_run
    # the fixture already ran; rerun one phase to capture its output
    assert main(["run", "--config", config_path, "--phase", "3"]) == 0
    stdout = capsys.readouterr().out
    assert "phase 3: best one_class_svm" in stdout
    assert "manifest.json" in stdout


def test_phase_one_artifacts(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(small_config(tmp_path / "out")))
    assert main(["run", "--config", str(config_path), "--phase", "1"]) == 0
    reports = sorted(os.listdir(tmp_path / "out" / "reports"))
    assert "phase1_binary.txt" in reports
    assert all(name.startswith("phase1_") for name in reports)
    assert os.listdir(tmp_path / "out" / "models") == ["phase1.model.json"]


@pytest.mark.parametrize("bad", [
    {"grids": {"mlp": {"hidden": [8], "epochs": [20]}}},
    {"one_class_grid": {"nu": [0.1], "gamma": ["auto", "fast"]}},
    # JSON's true and Infinity are no numbers: k = true must not run as 1
    {"grids": {"knn": {"k": [True]}}},
    {"one_class_grid": {"nu": [0.1], "gamma": [float("inf")]}},
    # a member set() cannot hash must not end in a TypeError traceback
    {"stacking": [["knn", {"a": 1}]]},
    {"stacking": [["knn", ["mlp"]]]},
], ids=["mlp-epochs", "gamma-fast", "k-true", "gamma-infinity",
        "stacking-object", "stacking-list"])
def test_run_rejects_a_bad_grid_before_any_output(tmp_path, capsys, bad):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(small_config(tmp_path / "out", **bad)))
    assert main(["run", "--config", str(config_path)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("make", [
    # nested deeper than the JSON decoder recurses
    lambda out: '{"seed": 7, "grids": %s}' % ("[" * 100_000 + "]" * 100_000),
    # a path os.makedirs would refuse only once a phase runs
    lambda out: json.dumps(small_config(str(out) + "\0x")),
    # an integer too large for float()
    lambda out: json.dumps(small_config(out, test_fraction=10**400)),
], ids=["too-deep", "nul-output-dir", "huge-test-fraction"])
def test_run_exits_2_on_a_malformed_config_and_creates_nothing(
        tmp_path, capsys, make):
    config_path = tmp_path / "config.json"
    config_path.write_text(make(tmp_path / "out"))
    assert main(["run", "--config", str(config_path)]) == 2
    assert "error:" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["config.json"]


def test_commands_load_only_the_corpora_they_read(tmp_path, capsys):
    empty = tmp_path / "phishing"
    empty.mkdir()
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(small_config(tmp_path / "out",
                                                   phishing_dir=str(empty))))
    # phase 3 and the importance tables read ham and spam only
    assert main(["run", "--config", str(config_path), "--phase", "3"]) == 0
    manifest = json.load(open(tmp_path / "out" / "manifest.json"))
    assert set(manifest["datasets"]) == {"ham_spam"}
    assert main(["importance", "--config", str(config_path)]) == 0
    # phase 4 reads the phishing corpus, which is empty: a data error
    assert main(["run", "--config", str(config_path), "--phase", "4"]) == 2
    err = capsys.readouterr().err
    assert "phishing corpus is empty" in err and "phase failed" not in err


def test_run_exit_codes_tell_data_errors_from_phase_failures(
        tmp_path, capsys, monkeypatch):
    index, _root = write_trec(generate_emails(40, 0.5, seed=3),
                              str(tmp_path / "trec"))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(small_config(
        tmp_path / "out", synthetic=None, trec_index=index)))

    def index_gone_after_validation(*args):
        cfg = load_config(*args)
        os.remove(index)
        return cfg

    monkeypatch.setattr(cli, "load_config", index_gone_after_validation)
    assert main(["run", "--config", str(config_path), "--phase", "1"]) == 2
    err = capsys.readouterr().err
    assert "No such file" in err and "phase failed" not in err
    monkeypatch.undo()

    def fail(*args):
        raise ValueError("inside the phase")

    write_trec(generate_emails(40, 0.5, seed=3), str(tmp_path / "trec"))
    monkeypatch.setattr(pipeline, "_run_phase", fail)
    assert main(["run", "--config", str(config_path), "--phase", "1"]) == 1
    assert "phase failed: inside the phase" in capsys.readouterr().err


def test_ingest_cache(cli_run, capsys):
    config_path, out = cli_run
    assert main(["ingest", "--config", config_path]) == 0
    capsys.readouterr()
    lines = open(os.path.join(out, "cache.csv"), encoding="utf-8").readlines()
    header = lines[0].rstrip("\n").split(",")
    assert header[:2] == ["id", "label"]
    assert "from" in header and "received" in header
    # 160 ham+spam rows plus the phishing half of the second corpus
    assert len(lines) - 1 == 160 + 80
    labels = {line.split(",")[1] for line in lines[1:]}
    assert labels == {"ham", "spam", "phishing"}


def test_headers_report_cut_marker(cli_run, tmp_path, capsys):
    config_path, _ = cli_run
    doc = json.load(open(config_path))
    doc["k"] = 10
    doc["output_dir"] = str(tmp_path / "out")
    small = tmp_path / "config.json"
    small.write_text(json.dumps(doc))
    assert main(["headers-report", "--config", str(small)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("Field")
    marker = [i for i, line in enumerate(lines) if "top-10 cut" in line]
    assert marker == [11]


def test_headers_report_empty_corpus(tmp_path, capsys, caplog):
    ham = tmp_path / "ham"
    spam = tmp_path / "spam"
    ham.mkdir()
    spam.mkdir()
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "seed": 1, "output_dir": str(tmp_path / "out"),
        "ham_dir": str(ham), "spam_dir": str(spam)}))
    with caplog.at_level("WARNING"):
        assert main(["headers-report", "--config", str(config_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("Field")
    assert len(lines) == 1
    assert any("empty" in message for message in caplog.messages)


def _fixture_emails():
    """One clean message and one carrying every planted defect."""
    emails = generate_emails(400, 0.5, seed=31)
    ham = next(e for e in emails if e.label is Label.HAM
               and b"Message-ID" in e.raw)
    anomalous = next(
        e for e in emails
        if e.label is Label.SPAM and b"Message-ID" not in e.raw
        and e.raw.count(b"Received:") >= 5)
    return ham.raw, anomalous.raw


def test_classify_exit_codes(cli_run, tmp_path, capsys):
    _, out = cli_run
    model = os.path.join(out, "models", "phase1.model.json")
    ham_raw, anom_raw = _fixture_emails()
    ham_path = tmp_path / "ham.eml"
    anom_path = tmp_path / "anom.eml"
    ham_path.write_bytes(ham_raw)
    anom_path.write_bytes(anom_raw)

    assert main(["classify", "--model", model, str(ham_path)]) == 0
    label, value, fingerprint = capsys.readouterr().out.strip().split("\t")
    assert label == "ham"
    assert float(value) < 0.0
    assert len(fingerprint) == 16

    assert main(["classify", "--model", model, str(anom_path)]) == 10
    label, value, fingerprint = capsys.readouterr().out.strip().split("\t")
    assert label == "spam"
    assert float(value) >= 0.0


def test_classify_computes_the_header_facts_once(cli_run, tmp_path, monkeypatch):
    from headerscan import features, headers

    _, out = cli_run
    calls = []

    def counting(header):
        calls.append(header)
        return headers.header_facts(header)

    monkeypatch.setattr(features, "header_facts", counting)
    email = tmp_path / "anom.eml"
    email.write_bytes(_fixture_emails()[1])
    for phase in (1, 3):  # phase 1 keeps a binary model or a stack
        calls.clear()
        model = os.path.join(out, "models", f"phase{phase}.model.json")
        assert main(["classify", "--model", model, str(email)]) == 10
        assert len(calls) == 1


def test_classify_stdin(cli_run, capsys, monkeypatch):
    _, out = cli_run
    model = os.path.join(out, "models", "phase3.model.json")
    _, anom_raw = _fixture_emails()

    class FakeStdin:
        buffer = io.BytesIO(anom_raw)

    monkeypatch.setattr("sys.stdin", FakeStdin())
    assert main(["classify", "--model", model, "-"]) == 10
    label, value, _ = capsys.readouterr().out.strip().split("\t")
    assert label == "spam"
    assert float(value) < 0.0  # one-class models keep inlier-positive values


def test_classify_error_exits(cli_run, tmp_path, capsys):
    _, out = cli_run
    model = os.path.join(out, "models", "phase1.model.json")
    email = tmp_path / "some.eml"
    email.write_bytes(b"Subject: x\r\n\r\n")

    assert main(["classify", "--model", str(tmp_path / "missing.json"),
                 str(email)]) == 2
    truncated = tmp_path / "truncated.json"
    truncated.write_bytes(open(model, "rb").read()[:100])
    assert main(["classify", "--model", str(truncated), str(email)]) == 2

    # bundle whose schema no longer matches what the model was trained on
    doc = json.load(open(model))
    doc["schema"]["top_fields"] = ["tampered"] + doc["schema"]["top_fields"]
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc))
    assert main(["classify", "--model", str(tampered), str(email)]) == 2

    # bundles with no scaler, or one that would divide by zero
    for mutate in (lambda d: d.pop("scaler"),
                   lambda d: d["scaler"].update(
                       stddev=[0.0] * len(d["scaler"]["stddev"]))):
        doc = json.load(open(model))
        mutate(doc)
        tampered.write_text(json.dumps(doc))
        assert main(["classify", "--model", str(tampered), str(email)]) == 2

    # a logreg bundle (phase 1's best model need not be one) whose weights
    # are NaN, or one element short of the schema's width
    bundle = load_bundle(model)
    width = len(bundle.schema.descriptors)
    logreg = LogRegModel(spec=ModelSpec("logreg", {"lam": 1e-3}, 0),
                         weights=np.zeros(width), bias=-1.0, converged=True,
                         loss_history=np.array([]),
                         schema_fingerprint=bundle.schema.fingerprint)
    for weights in (np.full(width, np.nan), np.zeros(width - 1)):
        save_bundle(tampered, logreg, bundle.schema, bundle.scaler, "spam")
        assert main(["classify", "--model", str(tampered), str(email)]) == 0
        doc = json.load(open(tampered))
        doc["parameters"]["weights"] = encode_array(weights)
        tampered.write_text(json.dumps(doc))
        assert main(["classify", "--model", str(tampered), str(email)]) == 2
    # a stack whose base carries a foreign schema fingerprint
    meta = LogRegModel(spec=ModelSpec("logreg", {"lam": 1e-3}, 0),
                       weights=np.ones(2), bias=0.0, converged=True,
                       loss_history=np.array([]))
    stack = StackModel(ModelSpec("stack", {}, 0), [logreg, logreg], meta,
                       schema_fingerprint=bundle.schema.fingerprint)
    save_bundle(tampered, stack, bundle.schema, bundle.scaler, "spam")
    assert main(["classify", "--model", str(tampered), str(email)]) == 0
    doc = json.load(open(tampered))
    doc["parameters"]["bases"][1]["schema_fingerprint"] = "deadbeef"
    tampered.write_text(json.dumps(doc))
    assert main(["classify", "--model", str(tampered), str(email)]) == 2
    # damage that could hang classify (a tree child pointing back) or made
    # it exit 1 with a traceback, and a meta-learner with a foreign
    # fingerprint
    rng = np.random.default_rng(3)
    X, y = rng.standard_normal((40, width)), np.arange(40) % 2
    fp = bundle.schema.fingerprint
    for damaged, damage in [
        (train(ModelSpec("random_forest", {"n_trees": 2}, 0), X, y, fp),
         lambda d: d["parameters"]["trees"][0].update(
             right=encode_array(np.array([0])))),
        (train(ModelSpec("knn", {}, 0), X, y, fp),
         lambda d: d["hyperparameters"].pop("k")),
        (train(ModelSpec("knn", {}, 0), X, y, fp),
         lambda d: d["hyperparameters"].update(k=True)),
        (train(ModelSpec("grad_boost", {"n_trees": 2}, 0), X, y, fp),
         lambda d: d["hyperparameters"].update(learning_rate="x")),
        (train_one_class(ModelSpec("one_class_svm", {}, 0), X, fp),
         lambda d: d["hyperparameters"].pop("gamma")),
        (stack, lambda d: d["parameters"]["meta"].update(
            schema_fingerprint="deadbeef")),
    ]:
        save_bundle(tampered, damaged, bundle.schema, bundle.scaler, "spam")
        assert main(["classify", "--model", str(tampered), str(email)]) in (0, 10)
        doc = json.load(open(tampered))
        damage(doc)
        tampered.write_text(json.dumps(doc))
        assert main(["classify", "--model", str(tampered), str(email)]) == 2
    # weights that load (a zero row scores 0) but overflow on a real message
    huge = LinearSVMModel(spec=ModelSpec("linear_svm", {"C": 1.0}, 0),
                          weights=np.full(width, 1e308), bias=0.0,
                          converged=True, loss_history=np.array([]),
                          schema_fingerprint=bundle.schema.fingerprint)
    save_bundle(tampered, huge, bundle.schema, bundle.scaler, "spam")
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["classify", "--model", str(tampered), str(email)]) == 2

    assert main(["classify", "--model", model,
                 str(tmp_path / "missing.eml")]) == 2
    capsys.readouterr()


def test_classify_exits_2_on_a_format_version_1_bundle(cli_run, tmp_path, capsys):
    """A decision tree saved in version 1's layout (one "tree" where
    version 2 keeps a "trees" list) is refused as the wrong version."""
    _, out = cli_run
    email = tmp_path / "some.eml"
    email.write_bytes(b"Subject: x\r\n\r\n")
    bundle = load_bundle(os.path.join(out, "models", "phase1.model.json"))
    width = len(bundle.schema.descriptors)
    rng = np.random.default_rng(4)
    tree = train(ModelSpec("decision_tree", {}, 0), rng.standard_normal((40, width)),
                 np.arange(40) % 2, bundle.schema.fingerprint)
    path = tmp_path / "tree.json"
    save_bundle(path, tree, bundle.schema, bundle.scaler, "spam")
    assert main(["classify", "--model", str(path), str(email)]) in (0, 10)
    doc = json.load(open(path))
    doc["format_version"] = 1
    doc["parameters"] = {"tree": doc["parameters"]["trees"][0]}
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["classify", "--model", str(path), str(email)]) == 2
    assert "not a format_version 2 model file" in capsys.readouterr().err


def test_classify_exits_2_on_a_too_deep_bundle(cli_run, tmp_path, capsys):
    _, out = cli_run
    email = tmp_path / "some.eml"
    email.write_bytes(b"Subject: x\r\n\r\n")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["classify", "--model", str(deep), str(email)]) == 2
    # a stack nested in its own bases: shallow enough for the JSON decoder,
    # too deep for the model decoder
    bundle = load_bundle(os.path.join(out, "models", "phase1.model.json"))
    logreg = LogRegModel(spec=ModelSpec("logreg", {"lam": 1e-3}, 0),
                         weights=np.zeros(len(bundle.schema.descriptors)),
                         bias=-1.0, converged=True, loss_history=np.array([]))
    meta = LogRegModel(spec=ModelSpec("logreg", {"lam": 1e-3}, 0),
                       weights=np.ones(2), bias=0.0, converged=True,
                       loss_history=np.array([]))
    stack = StackModel(ModelSpec("stack", {}, 0), [logreg, logreg], meta,
                       schema_fingerprint=bundle.schema.fingerprint)
    save_bundle(deep, stack, bundle.schema, bundle.scaler, "spam")
    assert main(["classify", "--model", str(deep), str(email)]) == 0
    doc = json.load(open(deep))
    model = {key: doc[key] for key in ("algorithm", "hyperparameters", "seed",
                                       "schema_fingerprint", "convergence_flag",
                                       "parameters")}
    for _ in range(250):
        bases = [model, model["parameters"]["bases"][1]]
        model = dict(model, parameters=dict(model["parameters"], bases=bases))
    doc.update(model)
    deep.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["classify", "--model", str(deep), str(email)]) == 2
    assert "malformed model file" in capsys.readouterr().err


@pytest.fixture(scope="module")
def mangled_messages():
    ham, _ = _fixture_emails()
    head, _, body = ham.partition(b"\r\n\r\n")
    return {
        "truncated": ham[:len(head) // 2],
        "random-bytes": random.Random(10).randbytes(4096),
        "nul-in-headers": head.replace(b": ", b":\0 ") + b"\r\n\r\n" + body,
        "non-utf8-tail": head + b"\r\nX-Tail: \xff\xfe\xc3(\x80\r\n\r\n" + body + b"\xff",
        "200k-fields": b"".join(b"X-F%d: v\r\n" % i for i in range(200_000)) + b"\r\n",
        "100k-line-fold": b"Subject: a\r\n" + b" b\r\n" * 100_000 + b"\r\n" + body,
        "empty": b"",
    }


@pytest.mark.parametrize("name", ["truncated", "random-bytes", "nul-in-headers",
                                  "non-utf8-tail", "200k-fields",
                                  "100k-line-fold", "empty"])
def test_classify_scores_a_mangled_message(cli_run, mangled_messages, tmp_path,
                                           capsys, name):
    _, out = cli_run
    email = tmp_path / "mangled.eml"
    email.write_bytes(mangled_messages[name])
    for phase in (1, 3):
        model = os.path.join(out, "models", f"phase{phase}.model.json")
        assert main(["classify", "--model", model, str(email)]) in (0, 10)
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 1 and captured.err == ""


def test_importance_command(cli_run, tmp_path, capsys):
    config_path, full = cli_run
    doc = json.load(open(config_path))
    doc["output_dir"] = str(tmp_path / "out")
    moved = tmp_path / "config.json"
    moved.write_text(json.dumps(doc))
    assert main(["importance", "--config", str(moved)]) == 0
    stdout = capsys.readouterr().out
    assert stdout.splitlines()[0].startswith("Feature")
    assert os.path.isfile(tmp_path / "out" / "importance" /
                          "phase1_random_forest.csv")
    # the same tables, byte for byte, as the full run of the same config
    names = sorted(os.listdir(os.path.join(full, "importance")))
    assert len(names) == 6 and all(n.startswith("phase1_") for n in names)
    assert sorted(os.listdir(tmp_path / "out" / "importance")) == names
    for name in names:
        with open(os.path.join(full, "importance", name), "rb") as fh:
            assert (tmp_path / "out" / "importance" / name).read_bytes() == fh.read()


def test_config_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"output_dir": "x",
                               "synthetic": {"n": 40, "seed": 1}}))
    assert main(["run", "--config", str(bad)]) == 2
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "headerscan" in capsys.readouterr().out
