"""Rank features by permutation, keep the best, retrain smaller.

Shuffling one standardized column at a time and measuring the accuracy
drop gives a model-agnostic ranking. The generated corpus plants its
signal in three header properties, so the ranking has a known right
answer to compare against.
"""

import numpy as np

from headerscan import (Label, ModelSpec, compute_metrics, extract_matrix,
                        fit_scaler, fit_schema, generate_emails, make_scores,
                        permutation_importance, prune_single_valued,
                        select_top_m, stratified_split, to_records, train)
from headerscan.evaluation import render_importance_table
from headerscan.features import apply_scaler, subset_scaler, subset_schema
from headerscan.synthetic import PLANTED_FEATURES


def main() -> None:
    records = to_records(generate_emails(1500, anomaly_fraction=0.5, seed=29))
    y = np.array([0 if r.label is Label.HAM else 1 for r in records])
    schema = fit_schema(records, k=50, one_hot=True)
    schema, matrix, _ = prune_single_valued(
        schema, extract_matrix(records, schema))
    scaler = fit_scaler(matrix)
    X = apply_scaler(matrix, scaler)
    train_ix, test_ix = stratified_split(y, test_fraction=0.25, seed=1)

    # a forest that sees every feature at every split attributes cleanly
    spec = ModelSpec("random_forest",
                     {"n_trees": 100, "max_features": "all",
                      "min_samples_leaf": 5}, 0)
    forest = train(spec, X[train_ix], y[train_ix], schema.fingerprint)
    report = permutation_importance(
        forest, X[test_ix], y[test_ix], repeats=10, seed=7,
        feature_names=schema.names, fingerprint=schema.fingerprint)

    table = render_importance_table(report).text
    print("\n".join(table.splitlines()[:12]))
    print(f"... {len(report.feature_names)} features ranked, "
          f"baseline accuracy {report.baseline_accuracy:.4f}")

    planted = {n.split("=")[0] for n in select_top_m(report, 3)}
    print(f"\ntop 3 base features: {sorted(planted)}")
    print(f"planted signal recovered: {planted == set(PLANTED_FEATURES)}")

    # keep the ten strongest columns and train on those alone
    keep = select_top_m(report, 10)
    small_schema, cols = subset_schema(schema, keep)
    small_scaler = subset_scaler(scaler, cols)
    Xs = X[:, cols]

    full = train(ModelSpec("random_forest", {"n_trees": 100}, 0),
                 X[train_ix], y[train_ix], schema.fingerprint)
    small = train(ModelSpec("random_forest", {"n_trees": 100}, 0),
                  Xs[train_ix], y[train_ix], small_schema.fingerprint)
    for name, model, bench in (("all features", full, X),
                               (f"top {len(cols)}", small, Xs)):
        scores = make_scores(model.decision_values(bench[test_ix]))
        acc = compute_metrics(scores, y[test_ix]).accuracy
        print(f"{name:>12}: held-out accuracy {acc:.4f} "
              f"({bench.shape[1]} columns)")
    assert small_scaler.mean.shape == (len(cols),)


if __name__ == "__main__":
    main()
