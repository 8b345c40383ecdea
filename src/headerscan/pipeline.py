"""Config-driven experiment pipeline over the four test phases.

1. binary classifiers on ham vs spam: full feature catalog, permutation
   importance with top-M selection, grid search, stacking, balanced test
2. binary classifiers on ham vs phishing with the domain-match subset
3. one-class SVM trained on ham only, tested on balanced ham plus spam
4. one-class SVM trained on ham only, tested on balanced ham plus phishing

The phases are rows of the PHASES table, and one driver runs each: split,
fit the features, the importance stage (phase 1), a grid search and refit
per algorithm, then the balanced test, tables, ROC file and bundle. A run
loads only the corpora its phases read: the phishing corpus only for
phases 2 and 4.

Every random draw is seeded through derive_seed tags rooted at the config
seed, so rerunning the same config rewrites byte-identical artifacts
(tables, model bundles, manifest).
"""

from __future__ import annotations

import dataclasses
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
    "RunConfig", "Datasets", "DataError",
    "BINARY_ALGORITHMS", "DISPLAY_NAMES", "SHORT_NAMES", "DEFAULT_STACKS",
    "load_config", "config_to_dict", "load_datasets", "read_ham_spam",
    "read_phishing", "report_to_dict",
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

# hyperparameters of the models that score permutation importance; the
# forest report drives selection, the other two are informational
IMPORTANCE_SPECS = (
    ("random_forest", {"n_trees": 100, "max_depth": None,
                       "max_features": "all", "min_samples_leaf": 5}),
    ("linear_svm", {}),
    ("mlp", {}),
)


@dataclass(frozen=True)
class Phase:
    """One experiment as data for the one phase driver: the loaded
    records it reads ("ham_spam", or "ham_phishing": the ham plus the
    phishing corpus), its positive label and feature set, and whether it
    fits the one-class SVM on training ham or the nine binary learners."""

    records: str
    positive: Label
    feature_set: str
    one_class: bool
    balance_first: bool = False  # class-balance the records before the split
    select: bool = False  # importance stage, then the top-M features

    @property
    def algorithms(self) -> tuple[str, ...]:
        return ("one_class_svm",) if self.one_class else BINARY_ALGORITHMS


PHASES = {
    1: Phase("ham_spam", Label.SPAM, FULL, one_class=False, select=True),
    2: Phase("ham_phishing", Label.PHISHING, DOMAIN_MATCH_ONLY,
             one_class=False, balance_first=True),
    3: Phase("ham_spam", Label.SPAM, FULL, one_class=True),
    4: Phase("ham_phishing", Label.PHISHING, FULL, one_class=True),
}


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


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _check_values(name: str, algorithm: str, grid: dict) -> None:
    # every cell must pass validate_spec now, not when its phase runs; each
    # domain constrains one value alone, so checking each listed value
    # once refuses exactly the grids with an invalid cell
    for key, values in grid.items():
        for value in values:
            try:
                validate_spec(ModelSpec(algorithm, {key: value}, 0))
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from None


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _fraction(value) -> bool:
    # a bool or an int is never inside (0, 1): what passes is a float
    return isinstance(value, (int, float)) and 0 < value < 1


def _grid(value) -> bool:
    return isinstance(value, dict) and all(
        isinstance(v, list) and v for v in value.values())


_PATH = (lambda v: v is None or isinstance(v, str) and "\0" not in v,
         "a path string without NUL, or null")
_COUNT = (lambda v: _is_int(v) and v >= 1, "an integer >= 1")

# config key -> (test, what the value must be): the one statement of each
# key's type and bound, seed and output_dir included once the overrides
# apply. Each test checks the type before it compares, hashes or iterates.
_CONFIG_DOMAINS = {
    "seed": (_is_int, "an explicit integer"),
    "output_dir": (lambda v: isinstance(v, str) and v != "" and "\0" not in v,
                   "a non-empty path string without NUL (or pass --out)"),
    "trec_index": _PATH, "trec_root": _PATH, "ham_dir": _PATH,
    "spam_dir": _PATH, "phishing_dir": _PATH,
    "synthetic": (lambda v: v is None or (
        isinstance(v, dict) and not set(v) - {"n", "anomaly_fraction", "seed"}
        and _is_int(v.get("n")) and v["n"] > 3
        and _fraction(v.get("anomaly_fraction", 0.5)) and _is_int(v.get("seed"))),
        "null or an object of n (an integer > 3), anomaly_fraction "
        "(inside (0, 1), default 0.5) and seed (an integer)"),
    "k": _COUNT,
    "one_hot": (lambda v: isinstance(v, bool), "a boolean"),
    "chain_direction": (lambda v: v in (CHAIN_BY_THEN_FROM, CHAIN_FROM_THEN_BY),
                        f"{CHAIN_BY_THEN_FROM!r} or {CHAIN_FROM_THEN_BY!r}"),
    "importance_repeats": _COUNT,
    "top_m": _COUNT,
    "test_fraction": (_fraction, "inside (0, 1)"),
    "cv_folds": (lambda v: _is_int(v) and v >= 2, "an integer >= 2"),
    "grids": (lambda v: isinstance(v, dict) and all(
        algo in BINARY_ALGORITHMS and _grid(grid) for algo, grid in v.items()),
        "an object mapping binary algorithms to objects of non-empty lists"),
    "one_class_grid": (lambda v: _grid(v) and set(v) == {"nu", "gamma"},
                       "an object of non-empty nu and gamma lists"),
    # members are known names, so strings, before set() hashes them
    "stacking": (lambda v: isinstance(v, list) and v and all(
        isinstance(c, list) and len(c) >= 2 and all(a in BINARY_ALGORITHMS for a in c)
        and len(set(c)) == len(c) for c in v),
        "a non-empty list of combinations of two or more distinct binary algorithms"),
}


def load_config(path: str, seed: int | None = None,
                output_dir: str | None = None) -> RunConfig:
    """Parse and validate a JSON config file; anything malformed, a
    document nested too deeply included, raises ValueError.

    Dataset paths resolve against the config file's directory and must
    exist. The seed is required in the file unless overridden here:
    there is no wall-clock fallback.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: config nested too deeply") from None
    _require(isinstance(doc, dict), "config must be a JSON object")
    unknown = set(doc) - set(_CONFIG_DOMAINS)
    _require(not unknown, f"unknown config keys: {sorted(unknown)}")
    # an override replaces the file's value, which is then never read
    kwargs = {**doc, "seed": doc.get("seed") if seed is None else seed,
              "output_dir": doc.get("output_dir") if output_dir is None else output_dir}
    for key, value in kwargs.items():
        test, what = _CONFIG_DOMAINS[key]
        _require(test(value), f"{key} must be {what}")
    # a null path or synthetic reads as absent, which is also its default
    kwargs = {key: value for key, value in kwargs.items() if value is not None}

    base = os.path.dirname(os.path.abspath(path))
    kwargs["output_dir"] = os.path.abspath(kwargs["output_dir"])
    for key in ("trec_index", "trec_root", "ham_dir", "spam_dir", "phishing_dir"):
        if key in kwargs:
            kwargs[key] = os.path.abspath(os.path.join(base, kwargs[key]))
    if "synthetic" in kwargs:
        synth = kwargs["synthetic"]
        kwargs["synthetic"] = {"n": synth["n"], "anomaly_fraction": synth.get(
            "anomaly_fraction", 0.5), "seed": synth["seed"]}
    sources = ["trec_index" in kwargs, "ham_dir" in kwargs or "spam_dir" in kwargs,
               "synthetic" in kwargs]
    _require(sum(sources) == 1,
             "configure exactly one ham+spam source: trec_index, "
             "ham_dir+spam_dir, or synthetic")
    _require(("ham_dir" in kwargs) == ("spam_dir" in kwargs),
             "ham_dir and spam_dir must be configured together")
    if "trec_index" in kwargs:
        kwargs.setdefault("trec_root", os.path.dirname(kwargs["trec_index"]))
        _require(os.path.isfile(kwargs["trec_index"]),
                 f"trec_index not found: {kwargs['trec_index']}")
        _require(os.path.isdir(kwargs["trec_root"]),
                 f"trec_root not found: {kwargs['trec_root']}")
    for key in ("ham_dir", "spam_dir", "phishing_dir"):
        if key in kwargs:
            _require(os.path.isdir(kwargs[key]), f"{key} not found: {kwargs[key]}")

    for algo, grid in kwargs.get("grids", {}).items():
        _check_values(f"grids.{algo}", algo, grid)
    if "one_class_grid" in kwargs:
        grid = kwargs["one_class_grid"]
        # gamma "auto" is 1/d, known once the features are
        _check_values("one_class_grid", "one_class_svm", {
            "nu": grid["nu"], "gamma": [1.0 if g == "auto" else g for g in grid["gamma"]]})
    if "stacking" in kwargs:
        kwargs["stacking"] = tuple(tuple(combo) for combo in kwargs["stacking"])
    return RunConfig(**kwargs)


def config_to_dict(cfg: RunConfig) -> dict:
    # JSON round trip so tuples become lists, exactly as the manifest
    # stores them
    return json.loads(json.dumps(dataclasses.asdict(cfg)))


class DataError(ValueError):
    """A corpus that cannot be loaded or serve the requested phases."""


@dataclass
class Datasets:
    """Loaded corpora plus the manifest block describing them."""

    ham_spam: list[CorpusRecord]
    phishing: list[CorpusRecord] | None
    info: dict


def _prefixed(make, prefix: str):
    """make, with "prefix/" put before each id."""
    return lambda id, header, label: make(f"{prefix}/{id}", header, label)


def _load_dir(dir_path: str, label: Label, make) -> list:
    records, report = load_labeled_dir(dir_path, label, make)
    if report.skipped:
        log.warning("skipped %d of %d files under %s",
                    report.skipped, report.entries, dir_path)
    return records


def _log_corpus(name: str, records: list[CorpusRecord]) -> None:
    log.info("%s corpus: %d messages, %d malformed header lines, "
             "%d with no Date that parses", name, len(records),
             sum(r.malformed_line_count for r in records),
             sum(r.facts.date_zone is None for r in records))


def read_ham_spam(cfg: RunConfig, make) -> tuple[str, list]:
    """The ham+spam corpus's source name, and its messages in corpus
    order, each read from that source as make(id, header, label)."""
    if cfg.trec_index is not None:
        records, report = load_trec_index(cfg.trec_index, cfg.trec_root, make)
        if report.skipped:
            log.warning("skipped %d of %d index entries",
                        report.skipped, report.entries)
        return "trec", records
    if cfg.ham_dir is not None:
        # every ham/ id sorts before every spam/ one
        return "dirs", (_load_dir(cfg.ham_dir, Label.HAM, _prefixed(make, "ham"))
                        + _load_dir(cfg.spam_dir, Label.SPAM, _prefixed(make, "spam")))
    if cfg.synthetic is None:
        raise ValueError("no ham+spam source configured")
    emails = generate_emails(cfg.synthetic["n"],
                             cfg.synthetic["anomaly_fraction"],
                             seed=cfg.synthetic["seed"])
    return "synthetic", to_records(emails, make)


def read_phishing(cfg: RunConfig, make) -> list | None:
    """The phishing corpus's messages as read_ham_spam reads them, or
    None if none is configured (phishing_dir, or the synthetic source)."""
    make = _prefixed(make, "phishing")
    if cfg.phishing_dir is not None:
        return _load_dir(cfg.phishing_dir, Label.PHISHING, make)
    if cfg.synthetic is None:
        return None
    emails = generate_emails(cfg.synthetic["n"],
                             cfg.synthetic["anomaly_fraction"],
                             seed=derive_seed(cfg.synthetic["seed"], "phishing"),
                             anomaly_label=Label.PHISHING)
    return to_records([e for e in emails if e.label is Label.PHISHING], make)


def load_datasets(cfg: RunConfig, allow_empty: bool = False,
                  with_phishing: bool = True) -> Datasets:
    """The ham+spam corpus, and the phishing corpus too if with_phishing
    and one is configured (phishing_dir, or the synthetic source)."""
    info: dict = {}
    source, records = read_ham_spam(cfg, CorpusRecord)
    if not records and not allow_empty:
        raise ValueError("ham+spam corpus is empty")
    info["ham_spam"] = {"source": source, "count": len(records),
                        "digest": corpus_digest(records)}
    _log_corpus("ham+spam", records)

    if not with_phishing:
        return Datasets(records, None, info)
    phishing = read_phishing(cfg, CorpusRecord)
    if phishing is not None:
        if not phishing and not allow_empty:
            raise ValueError("phishing corpus is empty")
        info["phishing"] = {"count": len(phishing),
                            "digest": corpus_digest(phishing)}
        _log_corpus("phishing", phishing)
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


def _phase_prefix(no: int, records, cfg: RunConfig, out_dir: str):
    """A phase up to its grid: split, fit the features and, if the phase
    selects, the importance stage. Returns the phase seed, the manifest
    entry so far, the training matrix and labels, the schema, the scaler
    and the test split. A one-class phase fits its features on the
    training ham, whose rows come first in the matrix, and the training
    anomalies follow as the grid's validation pool."""
    phase = PHASES[no]
    ps = derive_seed(cfg.seed, "phase", no)
    y = np.array([r.label is not Label.HAM for r in records], dtype=np.int64)
    if phase.balance_first:
        keep = np.sort(balance(y, derive_seed(ps, "prebalance")))
        records, y = [records[i] for i in keep], y[keep]
    train_idx, test_idx = stratified_split(y, cfg.test_fraction,
                                           derive_seed(ps, "split"))
    train_records, ytr = [records[i] for i in train_idx], y[train_idx]
    test = ([records[i] for i in test_idx], y[test_idx])
    pool = None
    if phase.one_class:
        pool = [r for r, flag in zip(train_records, ytr) if flag]
        train_records = [r for r, flag in zip(train_records, ytr) if not flag]
        counts = {"train_ham": len(train_records), "validation_pool": len(pool)}
    else:
        counts = {"train": len(train_records)}
    schema, scaler, X, dropped = _fit_features(train_records, cfg,
                                               phase.feature_set)
    if pool is not None:
        X = np.vstack([X, apply_scaler(extract_matrix(pool, schema), scaler)])
        ytr = np.repeat([0, 1], [len(train_records), len(pool)])

    entry: dict = {"positive_label": phase.positive.value,
                   "counts": {**counts, "test": len(test[1])},
                   "feature_count": len(schema.descriptors),
                   "dropped_single_valued": list(dropped), "tables": {}}
    if phase.select:
        X, schema, scaler = _importance_stage(
            X, ytr, schema, scaler, cfg, ps, out_dir, no, entry)
    entry["schema_fingerprint"] = schema.fingerprint
    return ps, entry, X, ytr, schema, scaler, test


def _phase_grid(cfg: RunConfig, algorithm: str, d: int) -> dict:
    """The grid searched for algorithm: the config's, else the default.
    A one-class gamma of "auto" stands for 1/d; a value listed twice, or
    equal to an earlier one (1 and 1.0), is searched once."""
    if algorithm != "one_class_svm":
        grid = cfg.grids[algorithm] if algorithm in cfg.grids else default_grid(algorithm)
    else:
        raw = cfg.one_class_grid or default_grid(algorithm)
        grid = {"nu": [float(v) for v in raw["nu"]],
                "gamma": [1.0 / d if v == "auto" else float(v) for v in raw["gamma"]]}
    return {key: list(dict.fromkeys(values)) for key, values in grid.items()}


def _run_phase(no: int, records, cfg: RunConfig, out_dir: str) -> dict:
    """Run phase no of PHASES on its records and write its artifacts: the
    shared prefix, a grid search and a refit per algorithm, the balanced
    test, the report tables, the ROC file and the best model's bundle.
    Returns the phase's manifest entry."""
    phase = PHASES[no]
    one_class = phase.one_class
    ps, entry, X, y, schema, scaler, test = _phase_prefix(no, records, cfg,
                                                          out_dir)
    # one fold plan for every algorithm, so the winning cells' held-out
    # columns line up row for row and feed the stacks' meta-learners
    grid_seed = ps if one_class else derive_seed(ps, "grid")
    entry["grid"], models, oof = {}, {}, {}
    for algo in phase.algorithms:
        spec, cells = grid_search(algo, _phase_grid(cfg, algo, X.shape[1]),
                                  X, y, cfg.cv_folds, grid_seed)
        report = next(r for hp, r in cells if hp == spec.hyperparameters)
        entry["grid"][algo] = {
            "best_hyperparameters": spec.hyperparameters,
            "validation" if one_class else "cv":
                report_to_dict(report, include_folds=True),
            "cells": [{"hyperparameters": hp, "accuracy": r.accuracy}
                      for hp, r in cells]}
        oof[algo] = report.oof_values
        if one_class:  # the anomalies only validate: refit on the ham
            models[algo] = train_one_class(
                ModelSpec(algo, spec.hyperparameters, derive_seed(ps, "refit")),
                X[y == 0], schema.fingerprint)
        else:
            models[algo] = train(
                ModelSpec(algo, spec.hyperparameters,
                          derive_seed(ps, "refit", algo)),
                X, y, schema.fingerprint)

    Xb, yb = _balanced_test(*test, schema, scaler, ps)
    entry["counts"]["balanced_test"] = len(yb)
    # each model scores the balanced test once; the stacks reuse its columns
    values = {algo: decision_values(models[algo], Xb) for algo in phase.algorithms}
    candidates = []  # (name, model, scores, report)

    def assess(name: str, model, dv, reports: dict, rows: list, row_name: str) -> None:
        scores = make_scores(dv, one_class=one_class)
        report = compute_metrics(scores, yb)
        reports[name] = report_to_dict(report)
        rows.append((row_name, report))
        candidates.append((name, model, scores, report))

    style = "oneclass" if one_class else "binary"
    rows = []
    entry["test"] = {}
    for algo in phase.algorithms:
        # a one-class table has a column per test set, not a row per model
        row_name = (f"Ham and {phase.positive.value.capitalize()}"
                    if one_class else DISPLAY_NAMES[algo])
        assess(algo, models[algo], values[algo], entry["test"], rows, row_name)
    entry["tables"][style] = _write_table(
        out_dir, f"reports/phase{no}_{style}", render_table(rows, style))

    if not one_class:
        stack_rows = []
        entry["stacking"] = {}
        for i, combo in enumerate(cfg.stacking):
            meta = ModelSpec("logreg", {}, derive_seed(ps, "stack", i, "meta"))
            model = fit_stack_meta([models[a] for a in combo],
                                   np.column_stack([oof[a] for a in combo]),
                                   y, meta, schema.fingerprint)
            dv = model.meta_decision_values(
                np.column_stack([values[a] for a in combo]))
            name = ", ".join(SHORT_NAMES[a] for a in combo)
            assess(name, model, dv, entry["stacking"], stack_rows, name)
        entry["tables"]["stacking"] = _write_table(
            out_dir, f"reports/phase{no}_stacking",
            render_table(stack_rows, "stacking"))

    # max keeps the first of equal keys: a tie goes to the earlier row
    name, model, scores, report = max(candidates,
                                      key=lambda c: (c[3].accuracy, c[3].f1))
    model_rel = f"models/phase{no}.model.json"
    save_bundle(os.path.join(out_dir, model_rel), model, schema, scaler,
                phase.positive.value)
    entry["best"] = {"name": name, "test": report_to_dict(report),
                     "model_file": model_rel}
    entry["roc_file"] = _write_roc(out_dir, f"roc/phase{no}.csv", scores, yb)
    return entry


def run_phases(cfg: RunConfig, phases=None) -> dict:
    """Run the requested phases (default all four) and write artifacts.

    Only the corpora the requested phases read are loaded. The manifest
    is rewritten after each phase, so results from phases that completed
    survive a later failure. Returns the manifest dict.
    """
    wanted = sorted(set(phases if phases else PHASES))
    for p in wanted:
        if p not in PHASES:
            raise ValueError(f"unknown phase {p}")
    out_dir = cfg.output_dir
    for sub in ("reports", "models", "importance", "roc"):
        os.makedirs(os.path.join(out_dir, sub), exist_ok=True)

    needs_phishing = any(PHASES[p].records == "ham_phishing" for p in wanted)
    try:
        datasets = load_datasets(cfg, with_phishing=needs_phishing)
    except (OSError, ValueError) as exc:
        raise DataError(str(exc)) from exc
    if needs_phishing and datasets.phishing is None:
        raise DataError("phases 2 and 4 need a phishing corpus "
                        "(phishing_dir or synthetic datasets)")

    manifest: dict = {
        "format_version": 1,
        "tool": {"name": "headerscan", "version": __version__},
        "config": config_to_dict(cfg),
        "datasets": datasets.info,
        "phases": {},
    }
    corpora = {"ham_spam": datasets.ham_spam}
    if needs_phishing:
        ham = [r for r in datasets.ham_spam if r.label is Label.HAM]
        corpora["ham_phishing"] = sorted(ham + datasets.phishing,
                                         key=lambda r: r.id)

    for p in wanted:
        log.info("phase %d starting", p)
        entry = _run_phase(p, corpora[PHASES[p].records], cfg, out_dir)
        manifest["phases"][str(p)] = entry
        _write_text(out_dir, "manifest.json",
                    json.dumps(manifest, sort_keys=True, indent=1) + "\n")
        log.info("phase %d done: best %s at %.4f balanced accuracy", p,
                 entry["best"]["name"], entry["best"]["test"]["accuracy"])
    return manifest


def run_importance(cfg: RunConfig) -> dict:
    """Phase 1's prefix on its own, loading ham and spam only: the same
    split, features and seeds, so its importance tables are byte for
    byte those a full run writes. Returns phase 1's entry so far."""
    os.makedirs(os.path.join(cfg.output_dir, "importance"), exist_ok=True)
    datasets = load_datasets(cfg, with_phishing=False)
    return _phase_prefix(1, datasets.ham_spam, cfg, cfg.output_dir)[1]
