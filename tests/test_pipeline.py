"""Tests for the four-phase pipeline runner."""

import hashlib
import json
import logging
import os
import shutil

import numpy as np
import pytest

from headerscan import corpus, features, headers, pipeline
from headerscan.corpus import Label
from headerscan.pipeline import (DEFAULT_STACKS, RunConfig, config_to_dict,
                                 load_config, load_datasets, run_phases)
from headerscan.synthetic import generate_emails, write_labeled_dirs

SMALL_GRIDS = {
    "logreg": {"lam": [1e-3]},
    "linear_svm": {"C": [10.0]},
    "random_forest": {"n_trees": [15], "max_depth": [None]},
    "knn": {"k": [3]},
    "mlp": {"hidden": [8], "lr": [0.01]},
    "grad_boost": {"n_trees": [15], "learning_rate": [0.1]},
    "adaboost": {"rounds": [15]},
}


def small_config(out_dir, **overrides):
    doc = {
        "seed": 7,
        "output_dir": str(out_dir),
        "synthetic": {"n": 160, "anomaly_fraction": 0.5, "seed": 99},
        "cv_folds": 4,
        "importance_repeats": 3,
        "grids": SMALL_GRIDS,
        "one_class_grid": {"nu": [0.1], "gamma": ["auto"]},
    }
    doc.update(overrides)
    return doc


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    config_path = root / "config.json"
    config_path.write_text(json.dumps(small_config(root / "out")))
    cfg = load_config(str(config_path))
    manifest = run_phases(cfg)
    return cfg, manifest


def test_artifact_layout(full_run):
    cfg, manifest = full_run
    out = cfg.output_dir
    tables = sorted(os.listdir(os.path.join(out, "reports")))
    assert tables == [
        "phase1_binary.csv", "phase1_binary.txt",
        "phase1_stacking.csv", "phase1_stacking.txt",
        "phase2_binary.csv", "phase2_binary.txt",
        "phase2_stacking.csv", "phase2_stacking.txt",
        "phase3_oneclass.csv", "phase3_oneclass.txt",
        "phase4_oneclass.csv", "phase4_oneclass.txt",
    ]
    assert sorted(os.listdir(os.path.join(out, "models"))) == [
        f"phase{n}.model.json" for n in (1, 2, 3, 4)]
    assert sorted(os.listdir(os.path.join(out, "roc"))) == [
        f"phase{n}.csv" for n in (1, 2, 3, 4)]
    importance = sorted(os.listdir(os.path.join(out, "importance")))
    assert importance == [
        "phase1_linear_svm.csv", "phase1_linear_svm.txt",
        "phase1_mlp.csv", "phase1_mlp.txt",
        "phase1_random_forest.csv", "phase1_random_forest.txt",
    ]
    assert os.path.isfile(os.path.join(out, "manifest.json"))
    assert set(manifest["phases"]) == {"1", "2", "3", "4"}


def test_one_class_bundles_store_no_negative_zero(full_run):
    """A one-class fit with a zero coefficient audits its box overshoot
    as 0.0, not as the -0.0 that max(-alpha) gives."""
    cfg, _ = full_run
    for n in (3, 4):
        with open(os.path.join(cfg.output_dir, "models", f"phase{n}.model.json"), "rb") as fh:
            blob = fh.read()
        assert b'"algorithm":"one_class_svm"' in blob
        assert b'"max_box_overshoot":' in blob
        assert b'"max_box_overshoot":-0.0' not in blob


def test_manifest_contents(full_run):
    cfg, manifest = full_run
    on_disk = json.load(open(os.path.join(cfg.output_dir, "manifest.json")))
    assert on_disk == manifest
    assert manifest["config"] == config_to_dict(cfg)
    assert manifest["datasets"]["ham_spam"]["count"] == 160
    assert len(manifest["datasets"]["ham_spam"]["digest"]) == 64
    # phases 2 and 4 read the phishing corpus, so the manifest lists it
    assert manifest["datasets"]["phishing"]["count"] > 0
    for number, entry in manifest["phases"].items():
        fp = entry["schema_fingerprint"]
        assert len(fp) == 16 and int(fp, 16) >= 0
        for report in entry["test"].values():
            tp, fp_, fn, tn = report["confusion"]
            assert tp + fp_ + fn + tn == entry["counts"]["balanced_test"]
            # balanced test: as many anomalous as ham rows
            assert tp + fn == fp_ + tn
            assert 0.0 <= report["accuracy"] <= 1.0
    grid = manifest["phases"]["1"]["grid"]
    assert set(grid) == {"logreg", "linear_svm", "grad_boost", "mlp",
                         "gaussian_nb", "random_forest", "decision_tree",
                         "knn", "adaboost"}
    for entry in grid.values():
        assert entry["cells"]
        assert "fold_accuracies" in entry["cv"]
        assert len(entry["cv"]["fold_accuracies"]) == cfg.cv_folds


def test_selection_and_importance_blocks(full_run):
    cfg, manifest = full_run
    phase1 = manifest["phases"]["1"]
    selected = phase1["selected_features"]
    assert len(selected) == min(cfg.top_m, phase1["feature_count"])
    assert len(set(selected)) == len(selected)
    imp = phase1["importance"]
    assert set(imp) == {"random_forest", "linear_svm", "mlp"}
    for block in imp.values():
        assert len(block["mean_drop"]) == len(block["feature_names"])
        assert block["repeats"] == cfg.importance_repeats


def test_stacking_rows(full_run):
    cfg, manifest = full_run
    names = list(manifest["phases"]["1"]["stacking"])
    assert names == ["RF, MLP, kNN", "RF, MLP, SVM", "RF, kNN, SVM",
                     "MLP, kNN, SVM"]
    assert cfg.stacking == DEFAULT_STACKS


def test_stacking_adds_no_base_fits(tmp_path, monkeypatch):
    # stacks reuse the grid search's held-out columns and refit models,
    # so phase 1 trains only the grid folds, the refits and the
    # importance models, every one of them through train_grid
    import headerscan.learners

    calls = []
    original = headerscan.learners.train_grid

    def counting_train_grid(specs, *args, **kwargs):
        calls.extend(spec.algorithm for cell in specs for spec in cell)
        return original(specs, *args, **kwargs)

    monkeypatch.setattr(headerscan.learners, "train_grid", counting_train_grid)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(small_config(tmp_path / "out")))
    cfg = load_config(str(config_path))
    manifest = run_phases(cfg, [1])
    cells = sum(len(entry["cells"])
                for entry in manifest["phases"]["1"]["grid"].values())
    assert cells == 9
    assert len(calls) == cells * cfg.cv_folds + 9 + 3


def test_stacks_score_the_test_from_their_bases_columns(tmp_path, monkeypatch):
    """Each refit base scores the balanced test once, and each stack's
    test values, computed from those columns, are bit for bit what
    scoring the stack on the balanced test gives."""
    from headerscan import learners

    scored, stacks, tests = [], [], []

    def recording(method):
        def wrapper(self, X):
            scored.append((self, X))
            return method(self, X)
        return wrapper

    for cls in (learners.LogRegModel, learners.LinearSVMModel,
                learners.DecisionTreeModel, learners.RandomForestModel,
                learners.GradBoostModel, learners.AdaBoostModel,
                learners.GaussianNBModel, learners.KNNModel, learners.MLPModel):
        monkeypatch.setattr(cls, "decision_values", recording(cls.decision_values))
    meta_decision_values = learners.StackModel.meta_decision_values

    def recording_meta(self, meta_X):
        stacks.append((self, meta_decision_values(self, meta_X)))
        return stacks[-1][1]

    def recording_test(*args):
        tests.append(balanced_test(*args))
        return tests[-1]

    balanced_test = pipeline._balanced_test
    monkeypatch.setattr(learners.StackModel, "meta_decision_values", recording_meta)
    monkeypatch.setattr(pipeline, "_balanced_test", recording_test)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(small_config(tmp_path / "out")))
    run_phases(load_config(str(config_path)), [1])
    monkeypatch.undo()

    [(Xb, _yb)] = tests
    assert len(stacks) == len(DEFAULT_STACKS)
    for stack, values in stacks:
        assert values.tobytes() == learners.decision_values(stack, Xb).tobytes()
        for base in stack.bases:
            calls = [X for model, X in scored if model is base]
            assert len(calls) == 1 and np.array_equal(calls[0], Xb)


def test_tables_agree_with_manifest(full_run):
    cfg, manifest = full_run
    csv_path = os.path.join(cfg.output_dir, "reports", "phase1_binary.csv")
    rows = [line.split(",") for line in
            open(csv_path).read().strip().splitlines()]
    assert rows[0] == ["Algorithm", "Accuracy", "F1", "Recall",
                       "Precision", "AUC"]
    by_name = {row[0]: row for row in rows[1:]}
    rf = manifest["phases"]["1"]["test"]["random_forest"]
    assert by_name["Random Forest"][1] == f"{rf['accuracy'] * 100.0:.4f}"
    assert by_name["Random Forest"][5] == f"{rf['auc']:.4f}"


def test_one_class_auto_gamma(full_run):
    cfg, manifest = full_run
    for number in ("3", "4"):
        entry = manifest["phases"][number]
        best = entry["grid"]["one_class_svm"]["best_hyperparameters"]
        assert best["gamma"] == pytest.approx(1.0 / entry["feature_count"])
        assert entry["counts"]["train_ham"] >= 2 * cfg.cv_folds


def test_roc_files_are_valid(full_run):
    cfg, _ = full_run
    for n in (1, 2, 3, 4):
        lines = open(os.path.join(cfg.output_dir, "roc",
                                  f"phase{n}.csv")).read().splitlines()
        assert lines[0] == "fpr,tpr"
        pts = np.array([[float(v) for v in line.split(",")]
                        for line in lines[1:]])
        assert tuple(pts[0]) == (0.0, 0.0)
        assert tuple(pts[-1]) == (1.0, 1.0)
        assert (np.diff(pts, axis=0) >= 0).all()


def test_rerun_is_byte_identical(full_run, tmp_path):
    cfg, _ = full_run

    def digest_tree(root):
        out = {}
        for base, _dirs, files in os.walk(root):
            for name in files:
                path = os.path.join(base, name)
                rel = os.path.relpath(path, root)
                out[rel] = hashlib.sha256(open(path, "rb").read()).hexdigest()
        return out

    before = digest_tree(cfg.output_dir)
    shutil.rmtree(cfg.output_dir)
    run_phases(cfg)
    assert digest_tree(cfg.output_dir) == before


def test_single_phase_run(tmp_path):
    out = tmp_path / "out"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(small_config(out)))
    cfg = load_config(str(config_path))
    manifest = run_phases(cfg, [3])
    assert set(manifest["phases"]) == {"3"}
    assert os.listdir(os.path.join(out, "models")) == ["phase3.model.json"]
    assert sorted(os.listdir(os.path.join(out, "reports"))) == [
        "phase3_oneclass.csv", "phase3_oneclass.txt"]


def test_phases_needing_phishing_are_guarded(tmp_path):
    cfg = RunConfig(seed=1, output_dir=str(tmp_path / "out"),
                    synthetic={"n": 40, "anomaly_fraction": 0.5, "seed": 2})
    datasets = load_datasets(cfg)
    assert datasets.phishing is not None  # synthetic source provides both
    with pytest.raises(ValueError):
        run_phases(RunConfig(seed=1, output_dir=str(tmp_path / "out2"),
                             synthetic=None, trec_index=None), [1])


def test_load_config_validation(tmp_path):
    def write(doc):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return str(path)

    good = small_config(tmp_path / "out")
    load_config(write(good))

    for mutate in (
        lambda d: d.pop("seed"),
        lambda d: d.pop("output_dir"),
        lambda d: d.update(seed="7"),
        lambda d: d.update(bogus_key=1),
        lambda d: d.update(trec_index=str(tmp_path / "missing-index")),
        lambda d: d.update(synthetic={"n": 100}),
        lambda d: d.update(synthetic={"n": 100, "seed": 1,
                                      "anomaly_fraction": 0.0}),
        lambda d: d.update(test_fraction=1.0),
        lambda d: d.update(cv_folds=1),
        lambda d: d.update(chain_direction="sideways"),
        lambda d: d.update(grids={"nonesuch": {"C": [1.0]}}),
        lambda d: d.update(grids={"linear_svm": {"C": []}}),
        lambda d: d.update(stacking=[["random_forest"]]),
        lambda d: d.update(one_class_grid={"nu": [0.1]}),
        lambda d: d.update(one_class_grid={"nu": [0.1], "gamma": ["fast"]}),
        lambda d: d.update(one_class_grid={"nu": [2.0], "gamma": ["auto"]}),
        lambda d: d.update(grids={"mlp": {"epochs": [20]}}),
        lambda d: d.update(grids={"random_forest": {"max_features": ["sqrt", "most"]}}),
        lambda d: d.update(threads=2),
    ):
        doc = json.loads(json.dumps(good))
        mutate(doc)
        with pytest.raises(ValueError):
            load_config(write(doc))

    # seed and output overrides take precedence over the file
    cfg = load_config(write(good), seed=123,
                      output_dir=str(tmp_path / "elsewhere"))
    assert cfg.seed == 123
    assert cfg.output_dir.endswith("elsewhere")


def test_load_config_checks_each_grid_value_once(tmp_path, monkeypatch):
    # every domain constrains one value alone, so a grid costs one
    # validate_spec call per listed value, not one per cell
    calls = []
    validate_spec = pipeline.validate_spec

    def counting(spec):
        calls.append(spec)
        return validate_spec(spec)

    monkeypatch.setattr(pipeline, "validate_spec", counting)
    grids = {"random_forest": {"n_trees": [1, 2, 3, 4, 5], "max_depth": [None, 1, 2],
                               "min_samples_leaf": [1, 2], "max_features": ["sqrt", "all"]},
             "knn": {"k": [1, 3, 5]}}
    one_class = {"nu": [0.1, 0.2, 0.5], "gamma": ["auto", 0.5]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(small_config(tmp_path / "out", grids=grids,
                                            one_class_grid=one_class)))
    load_config(str(path))
    assert len(calls) == 12 + 3 + 5
    for bad in ({"k": [1, 3, 0]}, {"k": [1, 3], "bogus": [1]}):
        path.write_text(json.dumps(small_config(tmp_path / "out", grids={"knn": bad})))
        with pytest.raises(ValueError, match="grids.knn"):
            load_config(str(path))


def test_a_value_listed_twice_is_searched_once(tmp_path):
    grids = dict(SMALL_GRIDS, knn={"k": [3, 3]}, logreg={"lam": [1e-3, 0.001]},
                 mlp={"hidden": [8, 8], "lr": [0.01]})
    doc = small_config(tmp_path / "out", grids=grids,
                       one_class_grid={"nu": [0.1, 0.1], "gamma": ["auto", 0.5, 0.5]})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    manifest = run_phases(load_config(str(path)), [1, 3])
    grid = manifest["phases"]["1"]["grid"]
    for algo in ("knn", "logreg", "mlp"):
        assert len(grid[algo]["cells"]) == 1, algo
    cells = [c["hyperparameters"] for c in manifest["phases"]["3"]["grid"]
             ["one_class_svm"]["cells"]]
    assert [c["nu"] for c in cells] == [0.1, 0.1]
    assert len({c["gamma"] for c in cells}) == 2


def _labeled_dir_config(tmp_path, n_ham_spam=60, **overrides):
    emails = generate_emails(n_ham_spam, 0.5, seed=4)
    ham_dir, anom_dir = write_labeled_dirs(emails, str(tmp_path / "corpus"))
    phish = generate_emails(40, 0.5, seed=5, anomaly_label=Label.PHISHING)
    _, phish_dir = write_labeled_dirs(phish, str(tmp_path / "phish"))
    doc = {"seed": 11, "output_dir": str(tmp_path / "out"),
           "ham_dir": ham_dir, "spam_dir": anom_dir, "phishing_dir": phish_dir}
    doc.update(overrides)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc))
    return load_config(str(config_path))


def test_labeled_dir_sources(tmp_path):
    datasets = load_datasets(_labeled_dir_config(tmp_path))
    assert len(datasets.ham_spam) == 60
    labels = {r.label for r in datasets.ham_spam}
    assert labels == {Label.HAM, Label.SPAM}
    assert len(datasets.phishing) == 20
    assert all(r.id.startswith("phishing/") for r in datasets.phishing)


def test_skipped_corpus_files_are_logged(tmp_path, caplog):
    cfg = _labeled_dir_config(tmp_path)
    before = load_datasets(cfg).info
    os.symlink(str(tmp_path / "gone.eml"),
               os.path.join(cfg.ham_dir, "dangling.eml"))
    with caplog.at_level(logging.WARNING):
        after = load_datasets(cfg).info
    warnings = [r.getMessage() for r in caplog.records
                if r.name == "headerscan.pipeline"]
    entries = len(os.listdir(cfg.ham_dir))
    assert warnings == [f"skipped 1 of {entries} files under {cfg.ham_dir}"]
    assert after == before  # what the manifest records of the corpora


def test_loading_logs_each_corpus_header_defects(tmp_path, caplog):
    """One INFO line per corpus counts its malformed header lines and its
    messages with no Date that parses; the manifest block is unchanged."""
    cfg = _labeled_dir_config(tmp_path)
    before = load_datasets(cfg).info
    with open(os.path.join(cfg.ham_dir, "defects.eml"), "wb") as fh:
        fh.write(b"no colon\r\n continued\r\nDate: 1 Foo 2021 10:00 +0000\r\n\r\n")
    with caplog.at_level(logging.INFO):
        datasets = load_datasets(cfg)
    lines = [r.getMessage() for r in caplog.records
             if r.name == "headerscan.pipeline" and " corpus: " in r.getMessage()]
    for (name, records), line in zip((("ham+spam", datasets.ham_spam),
                                      ("phishing", datasets.phishing)), lines):
        malformed = sum(r.malformed_line_count for r in records)
        undated = sum(r.facts.date_zone is None for r in records)
        assert line == (f"{name} corpus: {len(records)} messages, {malformed} "
                        f"malformed header lines, {undated} with no Date that parses")
    assert len(lines) == 2 and "61 messages, 2 malformed" in lines[0]
    assert datasets.info["phishing"] == before["phishing"]


def test_phases_3_and_4_compute_each_records_facts_once(tmp_path, monkeypatch):
    """Facts are computed once per loaded record, when the record is
    built, and never while a matrix is extracted; the ham records phase
    4 extracts carry the facts objects phase 3 extracted them with."""
    cfg = _labeled_dir_config(
        tmp_path, n_ham_spam=80, cv_folds=4,
        one_class_grid={"nu": [0.1], "gamma": ["auto"]})
    computed, loaded, phases, extracting = [], [], [], []
    facts_in = {3: {}, 4: {}}  # phase -> record id -> facts extracted

    def counting_facts(header):
        assert not extracting, "facts computed during extract_matrix"
        computed.append(headers.header_facts(header))
        return computed[-1]

    def recording_load(*args, **kwargs):
        datasets = load_datasets(*args, **kwargs)
        loaded.extend(datasets.ham_spam + datasets.phishing)
        return datasets

    def recording_phase(phase_no, *args):
        phases.append(phase_no)
        return run_phase(phase_no, *args)

    def recording_extract(records, schema):
        facts_in[phases[-1]].update((r.id, r.facts) for r in records)
        extracting.append(True)
        try:
            return extract_matrix(records, schema)
        finally:
            extracting.pop()

    run_phase = pipeline._run_phase
    extract_matrix = pipeline.extract_matrix
    monkeypatch.setattr(corpus, "header_facts", counting_facts)
    monkeypatch.setattr(features, "header_facts", counting_facts)
    monkeypatch.setattr(pipeline, "load_datasets", recording_load)
    monkeypatch.setattr(pipeline, "_run_phase", recording_phase)
    monkeypatch.setattr(pipeline, "extract_matrix", recording_extract)
    run_phases(cfg, [3, 4])
    assert phases == [3, 4]
    # one call per record built: 80 ham/spam and 20 phishing messages
    assert len(loaded) == len(computed) == 100
    assert {id(r.facts) for r in loaded} == {id(f) for f in computed}
    shared = facts_in[3].keys() & facts_in[4].keys()
    assert shared and all(i.startswith("ham/") for i in shared)
    assert all(facts_in[3][i] is facts_in[4][i] for i in shared)
