"""Tests for the command line interface."""

import io
import json
import os

import numpy as np
import pytest

from headerscan.cli import main
from headerscan.corpus import Label
from headerscan.learners import (LinearSVMModel, LogRegModel, ModelSpec,
                                 StackModel, load_bundle, save_bundle)
from headerscan.learners.bundle import encode_array
from headerscan.synthetic import generate_emails
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
    logreg = LogRegModel(spec=ModelSpec("logreg", {}, 0),
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
    meta = LogRegModel(spec=ModelSpec("logreg", {}, 0), weights=np.ones(2),
                       bias=0.0, converged=True, loss_history=np.array([]))
    stack = StackModel(ModelSpec("stack", {}, 0), [logreg, logreg], meta,
                       schema_fingerprint=bundle.schema.fingerprint)
    save_bundle(tampered, stack, bundle.schema, bundle.scaler, "spam")
    assert main(["classify", "--model", str(tampered), str(email)]) == 0
    doc = json.load(open(tampered))
    doc["parameters"]["bases"][1]["schema_fingerprint"] = "deadbeef"
    tampered.write_text(json.dumps(doc))
    assert main(["classify", "--model", str(tampered), str(email)]) == 2
    # weights that load (a zero row scores 0) but overflow on a real message
    huge = LinearSVMModel(spec=ModelSpec("linear_svm", {}, 0),
                          weights=np.full(width, 1e308), bias=0.0,
                          converged=True, loss_history=np.array([]),
                          schema_fingerprint=bundle.schema.fingerprint)
    save_bundle(tampered, huge, bundle.schema, bundle.scaler, "spam")
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["classify", "--model", str(tampered), str(email)]) == 2

    assert main(["classify", "--model", model,
                 str(tmp_path / "missing.eml")]) == 2
    capsys.readouterr()


def test_importance_command(cli_run, tmp_path, capsys):
    config_path, _ = cli_run
    doc = json.load(open(config_path))
    doc["output_dir"] = str(tmp_path / "out")
    moved = tmp_path / "config.json"
    moved.write_text(json.dumps(doc))
    assert main(["importance", "--config", str(moved)]) == 0
    stdout = capsys.readouterr().out
    assert stdout.splitlines()[0].startswith("Feature")
    assert os.path.isfile(tmp_path / "out" / "importance" /
                          "phase1_random_forest.csv")


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
