"""Config-driven experiment pipeline over the four test phases.

1. binary classifiers on ham vs spam: full feature catalog, permutation
   importance with top-M selection, grid search, stacking, balanced test
2. binary classifiers on ham vs phishing with the domain-match subset
3. one-class SVM trained on ham only, tested on balanced ham plus spam
4. one-class SVM trained on ham only, tested on balanced ham plus phishing

Every random draw is seeded through derive_seed tags rooted at the config
seed, so rerunning the same config rewrites byte-identical artifacts
(tables, model bundles, manifest).
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import logging
import os
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .corpus import (CorpusRecord, Label, corpus_digest, load_labeled_dir,
                     load_trec_index)
from .evaluation import (EvalReport, ImportanceReport, RenderedTable, balance,
                         compute_metrics, grid_search, make_scores,
                         permutation_importance, render_importance_table,
                         render_table, roc_points, select_top_m,
                         stratified_split)
from .features import (CHAIN_BY_THEN_FROM, CHAIN_FROM_THEN_BY,
                       DOMAIN_MATCH_ONLY, FULL, apply_scaler, extract_matrix,
                       fit_scaler, fit_schema, prune_single_valued,
                       subset_scaler, subset_schema)
from .learners import (ModelSpec, decision_values, default_grid,
                       fit_stack_meta, save_bundle, train, train_one_class,
                       validate_spec)
from .learners.base import derive_seed
from .synthetic import generate_emails, to_records

__all__ = [
    "RunConfig", "Datasets",
    "BINARY_ALGORITHMS", "DISPLAY_NAMES", "SHORT_NAMES", "DEFAULT_STACKS",
    "load_config", "config_to_dict", "load_datasets", "report_to_dict",
    "run_phases", "run_importance",
]

log = logging.getLogger(__name__)

# table row order and display names for the nine binary algorithms
BINARY_ALGORITHMS = (
    "logreg", "linear_svm", "grad_boost", "mlp", "gaussian_nb",
    "random_forest", "decision_tree", "knn", "adaboost",
)

DISPLAY_NAMES = {
    "logreg": "Logistic Regression",
    "linear_svm": "Support Vector Machine",
    "grad_boost": "Gradient Boosted Regression Trees",
    "mlp": "Multilayer Perceptron Neural Network",
    "gaussian_nb": "Naive Bayes (Gaussian)",
    "random_forest": "Random Forest",
    "decision_tree": "Decision Tree",
    "knn": "K-Nearest Neighbors",
    "adaboost": "AdaBoost (Tree Stumps)",
}

SHORT_NAMES = {
    "logreg": "LR",
    "linear_svm": "SVM",
    "grad_boost": "GBT",
    "mlp": "MLP",
    "gaussian_nb": "NB",
    "random_forest": "RF",
    "decision_tree": "DT",
    "knn": "kNN",
    "adaboost": "AB",
}

DEFAULT_STACKS = (
    ("random_forest", "mlp", "knn"),
    ("random_forest", "mlp", "linear_svm"),
    ("random_forest", "knn", "linear_svm"),
    ("mlp", "knn", "linear_svm"),
)

ONECLASS_COLUMN = {3: "Ham and Spam", 4: "Ham and Phishing"}

# hyperparameters of the models that score permutation importance; the
# forest report drives selection, the other two are informational
IMPORTANCE_SPECS = (
    ("random_forest", {"n_trees": 100, "max_depth": None,
                       "max_features": "all", "min_samples_leaf": 5}),
    ("linear_svm", {}),
    ("mlp", {}),
)


@dataclass(frozen=True)
class RunConfig:
    """Validated run settings; every field is explicit in the manifest."""

    seed: int
    output_dir: str
    trec_index: str | None = None
    trec_root: str | None = None
    ham_dir: str | None = None
    spam_dir: str | None = None
    phishing_dir: str | None = None
    synthetic: dict | None = None
    k: int = 50
    one_hot: bool = True
    chain_direction: str = CHAIN_BY_THEN_FROM
    importance_repeats: int = 20
    top_m: int = 30
    test_fraction: float = 0.25
    cv_folds: int = 10
    grids: dict = field(default_factory=dict)
    one_class_grid: dict | None = None
    stacking: tuple = DEFAULT_STACKS


_CONFIG_KEYS = {f.name for f in dataclasses.fields(RunConfig)}


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _check_cells(name: str, algorithm: str, grid: dict) -> None:
    # every cell must pass validate_spec now, not when its phase runs
    for combo in itertools.product(*grid.values()):
        try:
            validate_spec(ModelSpec(algorithm, dict(zip(grid, combo)), 0))
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _resolve(base_dir: str, path: str) -> str:
    return os.path.abspath(os.path.join(base_dir, path))


def load_config(path: str, seed: int | None = None,
                output_dir: str | None = None) -> RunConfig:
    """Parse and validate a JSON config file.

    Dataset paths resolve against the config file's directory and must
    exist. The seed is required in the file unless overridden here:
    there is no wall-clock fallback.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    _require(isinstance(doc, dict), "config must be a JSON object")
    unknown = set(doc) - _CONFIG_KEYS
    _require(not unknown, f"unknown config keys: {sorted(unknown)}")

    base = os.path.dirname(os.path.abspath(path))
    if seed is None:
        seed = doc.get("seed")
    _require(_is_int(seed), "config needs an explicit integer seed")
    out = output_dir if output_dir is not None else doc.get("output_dir")
    _require(isinstance(out, str) and out != "",
             "config needs an output_dir (or pass --out)")

    kwargs: dict = {"seed": seed, "output_dir": os.path.abspath(out)}

    for key in ("trec_index", "trec_root", "ham_dir", "spam_dir", "phishing_dir"):
        value = doc.get(key)
        if value is None:
            continue
        _require(isinstance(value, str), f"{key} must be a path string")
        kwargs[key] = _resolve(base, value)
    synth = doc.get("synthetic")
    if synth is not None:
        _require(isinstance(synth, dict), "synthetic must be an object")
        _require(not set(synth) - {"n", "anomaly_fraction", "seed"},
                 "synthetic accepts n, anomaly_fraction, seed")
        _require(_is_int(synth.get("n")) and synth["n"] > 3,
                 "synthetic.n must be an integer > 3")
        frac = synth.get("anomaly_fraction", 0.5)
        _require(isinstance(frac, (int, float)) and 0.0 < float(frac) < 1.0,
                 "synthetic.anomaly_fraction must be inside (0, 1)")
        _require(_is_int(synth.get("seed")),
                 "synthetic.seed must be an explicit integer")
        kwargs["synthetic"] = {"n": synth["n"],
                               "anomaly_fraction": float(frac),
                               "seed": synth["seed"]}

    sources = [kwargs.get("trec_index") is not None,
               kwargs.get("ham_dir") is not None
               or kwargs.get("spam_dir") is not None,
               kwargs.get("synthetic") is not None]
    _require(sum(sources) == 1,
             "configure exactly one ham+spam source: trec_index, "
             "ham_dir+spam_dir, or synthetic")
    if kwargs.get("ham_dir") or kwargs.get("spam_dir"):
        _require(kwargs.get("ham_dir") and kwargs.get("spam_dir"),
                 "ham_dir and spam_dir must be configured together")
    if kwargs.get("trec_index"):
        kwargs.setdefault("trec_root", os.path.dirname(kwargs["trec_index"]))
        _require(os.path.isfile(kwargs["trec_index"]),
                 f"trec_index not found: {kwargs['trec_index']}")
        _require(os.path.isdir(kwargs["trec_root"]),
                 f"trec_root not found: {kwargs['trec_root']}")
    for key in ("ham_dir", "spam_dir", "phishing_dir"):
        if kwargs.get(key) is not None:
            _require(os.path.isdir(kwargs[key]),
                     f"{key} not found: {kwargs[key]}")

    for key, low in (("k", 1), ("importance_repeats", 1), ("top_m", 1),
                     ("cv_folds", 2)):
        if key in doc:
            _require(_is_int(doc[key]) and doc[key] >= low,
                     f"{key} must be an integer >= {low}")
            kwargs[key] = doc[key]
    if "test_fraction" in doc:
        tf = doc["test_fraction"]
        _require(isinstance(tf, (int, float)) and 0.0 < float(tf) < 1.0,
                 "test_fraction must be inside (0, 1)")
        kwargs["test_fraction"] = float(tf)
    if "one_hot" in doc:
        _require(isinstance(doc["one_hot"], bool), "one_hot must be a boolean")
        kwargs["one_hot"] = doc["one_hot"]
    if "chain_direction" in doc:
        _require(doc["chain_direction"] in (CHAIN_BY_THEN_FROM,
                                            CHAIN_FROM_THEN_BY),
                 f"unknown chain_direction {doc['chain_direction']!r}")
        kwargs["chain_direction"] = doc["chain_direction"]

    if "grids" in doc:
        grids = doc["grids"]
        _require(isinstance(grids, dict), "grids must be an object")
        for algo, grid in grids.items():
            _require(algo in BINARY_ALGORITHMS,
                     f"grids: unknown algorithm {algo!r}")
            _require(isinstance(grid, dict)
                     and all(isinstance(v, list) and v for v in grid.values()),
                     f"grids.{algo} must map parameters to non-empty lists")
            _check_cells(f"grids.{algo}", algo, grid)
        kwargs["grids"] = grids
    if "one_class_grid" in doc:
        grid = doc["one_class_grid"]
        _require(isinstance(grid, dict) and set(grid) == {"nu", "gamma"}
                 and all(isinstance(v, list) and v for v in grid.values()),
                 "one_class_grid must carry non-empty nu and gamma lists")
        # gamma "auto" is 1/d, known once the features are
        _check_cells("one_class_grid", "one_class_svm", {
            "nu": grid["nu"], "gamma": [1.0 if g == "auto" else g for g in grid["gamma"]]})
        kwargs["one_class_grid"] = grid
    if "stacking" in doc:
        combos = doc["stacking"]
        _require(isinstance(combos, list) and combos,
                 "stacking must be a non-empty list of combinations")
        normalized = []
        for combo in combos:
            _require(isinstance(combo, list) and len(combo) >= 2
                     and len(set(combo)) == len(combo)
                     and all(a in BINARY_ALGORITHMS for a in combo),
                     f"bad stacking combination: {combo!r}")
            normalized.append(tuple(combo))
        kwargs["stacking"] = tuple(normalized)

    return RunConfig(**kwargs)


def config_to_dict(cfg: RunConfig) -> dict:
    # JSON round trip so tuples become lists, exactly as the manifest
    # stores them
    return json.loads(json.dumps(dataclasses.asdict(cfg)))


@dataclass
class Datasets:
    """Loaded corpora plus the manifest block describing them."""

    ham_spam: list[CorpusRecord]
    phishing: list[CorpusRecord] | None
    info: dict


def _namespaced(records: list[CorpusRecord], prefix: str) -> list[CorpusRecord]:
    return [r.renamed(f"{prefix}/{r.id}") for r in records]


def _load_dir(dir_path: str, label: Label) -> list[CorpusRecord]:
    records, report = load_labeled_dir(dir_path, label)
    if report.skipped:
        log.warning("skipped %d of %d files under %s",
                    report.skipped, report.entries, dir_path)
    return records


def load_datasets(cfg: RunConfig, allow_empty: bool = False) -> Datasets:
    info: dict = {}
    if cfg.trec_index is not None:
        records, report = load_trec_index(cfg.trec_index, cfg.trec_root)
        source = "trec"
        if report.skipped:
            log.warning("skipped %d of %d index entries",
                        report.skipped, report.entries)
    elif cfg.ham_dir is not None:
        ham = _load_dir(cfg.ham_dir, Label.HAM)
        spam = _load_dir(cfg.spam_dir, Label.SPAM)
        records = sorted(_namespaced(ham, "ham") + _namespaced(spam, "spam"),
                         key=lambda r: r.id)
        source = "dirs"
    elif cfg.synthetic is None:
        raise ValueError("no ham+spam source configured")
    else:
        emails = generate_emails(cfg.synthetic["n"],
                                 cfg.synthetic["anomaly_fraction"],
                                 seed=cfg.synthetic["seed"])
        records = to_records(emails)
        source = "synthetic"
    if not records and not allow_empty:
        raise ValueError("ham+spam corpus is empty")
    info["ham_spam"] = {"source": source, "count": len(records),
                        "digest": corpus_digest(records)}

    phishing = None
    if cfg.phishing_dir is not None:
        loaded = _load_dir(cfg.phishing_dir, Label.PHISHING)
        phishing = _namespaced(loaded, "phishing")
    elif cfg.synthetic is not None:
        emails = generate_emails(cfg.synthetic["n"],
                                 cfg.synthetic["anomaly_fraction"],
                                 seed=derive_seed(cfg.synthetic["seed"], "phishing"),
                                 anomaly_label=Label.PHISHING)
        phishing = _namespaced(
            to_records([e for e in emails if e.label is Label.PHISHING]),
            "phishing")
    if phishing is not None:
        if not phishing and not allow_empty:
            raise ValueError("phishing corpus is empty")
        info["phishing"] = {"count": len(phishing),
                            "digest": corpus_digest(phishing)}
    return Datasets(records, phishing, info)


def report_to_dict(report: EvalReport, include_folds: bool = False) -> dict:
    doc = {
        "accuracy": report.accuracy,
        "precision": report.precision,
        "recall": report.recall,
        "f1": report.f1,
        "auc": report.auc,
        "confusion": list(report.confusion),
    }
    if include_folds and report.per_fold is not None:
        doc["fold_accuracies"] = [f.accuracy for f in report.per_fold]
    return doc


def _write_text(out_dir: str, rel: str, text: str) -> str:
    path = os.path.join(out_dir, rel)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return rel


def _write_table(out_dir: str, rel_base: str, table: RenderedTable) -> dict:
    return {"text": _write_text(out_dir, rel_base + ".txt", table.text),
            "csv": _write_text(out_dir, rel_base + ".csv", table.csv)}


def _write_roc(out_dir: str, rel: str, scores, y) -> str:
    pts = roc_points(scores, y)
    lines = ["fpr,tpr"]
    lines += [f"{float(fpr)!r},{float(tpr)!r}" for fpr, tpr in pts]
    return _write_text(out_dir, rel, "\n".join(lines) + "\n")


def _labels_to_y(records: list[CorpusRecord]) -> np.ndarray:
    return np.array([0 if r.label is Label.HAM else 1 for r in records],
                    dtype=np.int64)


def _split_records(records, y, fraction: float, seed: int):
    train_idx, test_idx = stratified_split(y, fraction, seed)
    return ([records[i] for i in train_idx], y[train_idx],
            [records[i] for i in test_idx], y[test_idx])


def _fit_features(train_records, cfg: RunConfig, feature_set: str):
    """Schema, scaler, and standardized matrix fitted on training data
    only; single-valued columns are pruned before scaling."""
    schema = fit_schema(train_records, k=cfg.k, feature_set=feature_set,
                        one_hot=cfg.one_hot,
                        chain_direction=cfg.chain_direction)
    matrix = extract_matrix(train_records, schema)
    schema, matrix, dropped = prune_single_valued(schema, matrix)
    scaler = fit_scaler(matrix)
    return schema, scaler, apply_scaler(matrix, scaler), dropped


def _importance_stage(X, y, schema, scaler, cfg: RunConfig, ps: int,
                      out_dir: str, phase_no: int, entry: dict):
    """Train the scoring models, save one importance table each, then
    keep the forest's top-M columns."""
    sub_idx, val_idx = stratified_split(y, 0.25, derive_seed(ps, "importance-split"))
    reports: dict[str, ImportanceReport] = {}
    imp_entry: dict = {}
    for algo, hp in IMPORTANCE_SPECS:
        spec = ModelSpec(algo, hp, derive_seed(ps, "importance", algo))
        model = train(spec, X[sub_idx], y[sub_idx], schema.fingerprint)
        report = permutation_importance(
            model, X[val_idx], y[val_idx], repeats=cfg.importance_repeats,
            seed=derive_seed(ps, "importance", "perm", algo),
            feature_names=schema.names, fingerprint=schema.fingerprint)
        reports[algo] = report
        paths = _write_table(out_dir, f"importance/phase{phase_no}_{algo}",
                             render_importance_table(report))
        imp_entry[algo] = {
            "baseline_accuracy": report.baseline_accuracy,
            "feature_names": list(report.feature_names),
            "mean_drop": list(report.mean_drop),
            "std_drop": list(report.std_drop),
            "repeats": report.repeats,
            "tables": paths,
        }
    selected = select_top_m(reports["random_forest"], cfg.top_m)
    schema2, keep = subset_schema(schema, selected)
    entry["importance"] = imp_entry
    entry["selected_features"] = list(schema2.names)
    return X[:, keep], schema2, subset_scaler(scaler, keep)


def _balanced_test(test_records, yte, schema, scaler, ps: int):
    """The test split, class-balanced by label, then extracted and
    standardized."""
    bal = np.sort(balance(yte, derive_seed(ps, "test-balance")))
    Xb = extract_matrix([test_records[i] for i in bal], schema)
    return apply_scaler(Xb, scaler), yte[bal]


def _grid_record(spec: ModelSpec, cells, key: str):
    """The manifest block of one grid search, with the winning cell's
    report under key, and that report."""
    report = next(r for hp, r in cells if hp == spec.hyperparameters)
    return {"best_hyperparameters": spec.hyperparameters,
            key: report_to_dict(report, include_folds=True),
            "cells": [{"hyperparameters": hp, "accuracy": r.accuracy}
                      for hp, r in cells]}, report


def _save_best(best: tuple, yb, schema, scaler, positive: Label,
               out_dir: str, phase_no: int, entry: dict) -> None:
    """Save and record the winner: (name, model, test scores, report)."""
    name, model, scores, report = best
    model_rel = f"models/phase{phase_no}.model.json"
    save_bundle(os.path.join(out_dir, model_rel), model, schema, scaler,
                positive.value)
    entry["best"] = {"name": name, "test": report_to_dict(report),
                     "model_file": model_rel}
    entry["roc_file"] = _write_roc(out_dir, f"roc/phase{phase_no}.csv",
                                   scores, yb)


def _binary_phase(records, positive: Label, phase_no: int, feature_set: str,
                  cfg: RunConfig, out_dir: str, select: bool,
                  balance_first: bool) -> dict:
    ps = derive_seed(cfg.seed, "phase", phase_no)
    y = _labels_to_y(records)
    if balance_first:
        keep = np.sort(balance(y, derive_seed(ps, "prebalance")))
        records = [records[i] for i in keep]
        y = y[keep]
    train_records, ytr, test_records, yte = _split_records(
        records, y, cfg.test_fraction, derive_seed(ps, "split"))
    schema, scaler, X, dropped = _fit_features(train_records, cfg, feature_set)

    entry: dict = {
        "positive_label": positive.value,
        "counts": {"train": len(train_records), "test": len(test_records)},
        "feature_count": len(schema.descriptors),
        "dropped_single_valued": list(dropped),
        "tables": {},
    }
    if select:
        X, schema, scaler = _importance_stage(
            X, ytr, schema, scaler, cfg, ps, out_dir, phase_no, entry)
    entry["schema_fingerprint"] = schema.fingerprint

    # one fold plan for every algorithm, so the winning cells' held-out
    # columns line up row for row and feed the stacks' meta-learners
    grid_entry: dict = {}
    models: dict[str, object] = {}
    oof: dict[str, tuple] = {}
    for algo in BINARY_ALGORITHMS:
        grid = cfg.grids[algo] if algo in cfg.grids else default_grid(algo)
        spec, cells = grid_search(algo, grid, X, ytr, cfg.cv_folds,
                                  derive_seed(ps, "grid"))
        grid_entry[algo], cv_report = _grid_record(spec, cells, "cv")
        oof[algo] = cv_report.oof_values
        models[algo] = train(
            ModelSpec(algo, spec.hyperparameters,
                      derive_seed(ps, "refit", algo)),
            X, ytr, schema.fingerprint)
    entry["grid"] = grid_entry

    Xb, yb = _balanced_test(test_records, yte, schema, scaler, ps)
    entry["counts"]["balanced_test"] = len(yb)

    candidates = []  # (name, model, scores, report)

    def assess(name: str, model, reports: dict, rows: list, row_name: str) -> None:
        scores = make_scores(decision_values(model, Xb))
        report = compute_metrics(scores, yb)
        reports[name] = report_to_dict(report)
        rows.append((row_name, report))
        candidates.append((name, model, scores, report))

    rows = []
    entry["test"] = {}
    for algo in BINARY_ALGORITHMS:
        assess(algo, models[algo], entry["test"], rows, DISPLAY_NAMES[algo])
    entry["tables"]["binary"] = _write_table(
        out_dir, f"reports/phase{phase_no}_binary", render_table(rows, "binary"))

    stack_rows = []
    entry["stacking"] = {}
    for i, combo in enumerate(cfg.stacking):
        meta = ModelSpec("logreg", {}, derive_seed(ps, "stack", i, "meta"))
        model = fit_stack_meta([models[a] for a in combo],
                               np.column_stack([oof[a] for a in combo]),
                               ytr, meta, schema.fingerprint)
        name = ", ".join(SHORT_NAMES[a] for a in combo)
        assess(name, model, entry["stacking"], stack_rows, name)
    entry["tables"]["stacking"] = _write_table(
        out_dir, f"reports/phase{phase_no}_stacking",
        render_table(stack_rows, "stacking"))

    # max keeps the first of equal keys: a tie goes to the earlier row
    best = max(candidates, key=lambda c: (c[3].accuracy, c[3].f1))
    _save_best(best, yb, schema, scaler, positive, out_dir, phase_no, entry)
    return entry


def _resolve_gamma(values, d: int) -> list[float]:
    # "auto" stands for 1/d; a value listed twice is searched once
    return list(dict.fromkeys(1.0 / d if v == "auto" else float(v)
                              for v in values))


def _one_class_phase(records, positive: Label, phase_no: int, cfg: RunConfig,
                     out_dir: str) -> dict:
    ps = derive_seed(cfg.seed, "phase", phase_no)
    y = _labels_to_y(records)
    train_records, ytr, test_records, yte = _split_records(
        records, y, cfg.test_fraction, derive_seed(ps, "split"))
    ham_records = [r for r, flag in zip(train_records, ytr) if flag == 0]
    anom_records = [r for r, flag in zip(train_records, ytr) if flag == 1]

    schema, scaler, Xh, dropped = _fit_features(ham_records, cfg, FULL)
    Xa = apply_scaler(extract_matrix(anom_records, schema), scaler)
    d = Xh.shape[1]

    raw_grid = cfg.one_class_grid or default_grid("one_class_svm")
    grid = {"nu": [float(v) for v in raw_grid["nu"]],
            "gamma": _resolve_gamma(raw_grid["gamma"], d)}

    # model selection on the training half only: the anomalies are a
    # validation pool, never training rows (see one_class_cv)
    spec, cells = grid_search("one_class_svm", grid, np.vstack([Xh, Xa]),
                              [0] * len(Xh) + [1] * len(Xa), cfg.cv_folds, ps)
    grid_block, _ = _grid_record(spec, cells, "validation")
    model = train_one_class(
        ModelSpec("one_class_svm", spec.hyperparameters,
                  derive_seed(ps, "refit")),
        Xh, schema.fingerprint)

    Xb, yb = _balanced_test(test_records, yte, schema, scaler, ps)
    scores = make_scores(decision_values(model, Xb), one_class=True)
    test_report = compute_metrics(scores, yb)

    entry = {
        "positive_label": positive.value,
        "counts": {"train_ham": len(ham_records),
                   "validation_pool": len(anom_records),
                   "test": len(test_records),
                   "balanced_test": len(yb)},
        "feature_count": d,
        "dropped_single_valued": list(dropped),
        "schema_fingerprint": schema.fingerprint,
        "grid": {"one_class_svm": grid_block},
        "test": {"one_class_svm": report_to_dict(test_report)},
        "tables": {},
    }
    entry["tables"]["oneclass"] = _write_table(
        out_dir, f"reports/phase{phase_no}_oneclass",
        render_table([(ONECLASS_COLUMN[phase_no], test_report)], "oneclass"))
    _save_best(("one_class_svm", model, scores, test_report), yb, schema,
               scaler, positive, out_dir, phase_no, entry)
    return entry


def run_phases(cfg: RunConfig, phases=None) -> dict:
    """Run the requested phases (default all four) and write artifacts.

    The manifest is rewritten after each phase, so results from phases
    that completed survive a later failure. Returns the manifest dict.
    """
    wanted = sorted(set(phases if phases else (1, 2, 3, 4)))
    for p in wanted:
        if p not in (1, 2, 3, 4):
            raise ValueError(f"unknown phase {p}")
    out_dir = cfg.output_dir
    for sub in ("reports", "models", "importance", "roc"):
        os.makedirs(os.path.join(out_dir, sub), exist_ok=True)

    datasets = load_datasets(cfg)
    needs_phishing = any(p in wanted for p in (2, 4))
    if needs_phishing and datasets.phishing is None:
        raise ValueError("phases 2 and 4 need a phishing corpus "
                         "(phishing_dir or synthetic datasets)")

    manifest: dict = {
        "format_version": 1,
        "tool": {"name": "headerscan", "version": __version__},
        "config": config_to_dict(cfg),
        "datasets": datasets.info,
        "phases": {},
    }
    ham_phish = None
    if needs_phishing:
        a_ham = [r for r in datasets.ham_spam if r.label is Label.HAM]
        ham_phish = sorted(a_ham + datasets.phishing, key=lambda r: r.id)

    for p in wanted:
        log.info("phase %d starting", p)
        if p == 1:
            entry = _binary_phase(datasets.ham_spam, Label.SPAM, 1, FULL,
                                  cfg, out_dir, select=True,
                                  balance_first=False)
        elif p == 2:
            entry = _binary_phase(ham_phish, Label.PHISHING, 2,
                                  DOMAIN_MATCH_ONLY, cfg, out_dir,
                                  select=False, balance_first=True)
        elif p == 3:
            entry = _one_class_phase(datasets.ham_spam, Label.SPAM, 3,
                                     cfg, out_dir)
        else:
            entry = _one_class_phase(ham_phish, Label.PHISHING, 4,
                                     cfg, out_dir)
        manifest["phases"][str(p)] = entry
        _write_text(out_dir, "manifest.json",
                    json.dumps(manifest, sort_keys=True, indent=1) + "\n")
        log.info("phase %d done: best %s at %.4f balanced accuracy", p,
                 entry["best"]["name"], entry["best"]["test"]["accuracy"])
    return manifest


def run_importance(cfg: RunConfig) -> dict:
    """The phase-1 importance stage on its own: same split, same seeds,
    so its tables match what a full run would write."""
    os.makedirs(os.path.join(cfg.output_dir, "importance"), exist_ok=True)
    datasets = load_datasets(cfg)
    ps = derive_seed(cfg.seed, "phase", 1)
    y = _labels_to_y(datasets.ham_spam)
    train_records, ytr, _test_records, _yte = _split_records(
        datasets.ham_spam, y, cfg.test_fraction, derive_seed(ps, "split"))
    schema, scaler, X, _dropped = _fit_features(train_records, cfg, FULL)
    entry: dict = {}
    _importance_stage(X, ytr, schema, scaler, cfg, ps, cfg.output_dir, 1,
                      entry)
    return entry
