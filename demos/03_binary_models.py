"""Train the binary learners, tune one of them, and stack three.

Everything downstream of the feature matrix is deterministic in the
seeds written here, so rerunning the script reproduces every number.
"""

import numpy as np

from headerscan import (Label, ModelSpec, compute_metrics, extract_matrix,
                        fit_scaler, fit_schema, generate_emails, grid_search,
                        kfold_cv, make_scores, prune_single_valued,
                        render_table, stratified_split, to_records, train,
                        train_stack)
from headerscan.features import apply_scaler


def feature_matrix(records):
    schema = fit_schema(records, k=40, one_hot=True)
    schema, matrix, _ = prune_single_valued(
        schema, extract_matrix(records, schema))
    scaler = fit_scaler(matrix)
    return schema, scaler, apply_scaler(matrix, scaler)


def main() -> None:
    records = to_records(generate_emails(600, anomaly_fraction=0.5, seed=3))
    y = np.array([0 if r.label is Label.HAM else 1 for r in records])
    schema, _scaler, X = feature_matrix(records)
    train_ix, test_ix = stratified_split(y, test_fraction=0.25, seed=42)
    Xtr, ytr = X[train_ix], y[train_ix]
    Xte, yte = X[test_ix], y[test_ix]
    print(f"{len(train_ix)} train / {len(test_ix)} test, "
          f"{X.shape[1]} features")

    best, cells = grid_search("knn", {"k": [1, 3, 5, 9]}, Xtr, ytr,
                              k=5, seed=42)
    print("\nkNN grid, pooled 5-fold accuracy per cell:")
    for hp, report in cells:
        print(f"  k={hp['k']}: {report.accuracy:.4f}")
    print(f"chosen: {best.hyperparameters}")

    contenders = [
        ("Random Forest", ModelSpec("random_forest", {"n_trees": 50}, 0)),
        ("K-Nearest Neighbors", best),
        ("Support Vector Machine", ModelSpec("linear_svm", {"C": 10.0}, 0)),
        ("Naive Bayes (Gaussian)", ModelSpec("gaussian_nb", {}, 0)),
    ]
    rows = []
    for name, spec in contenders:
        rows.append((name, kfold_cv(spec, Xtr, ytr, k=5, seed=42)))
    print("\n" + render_table(rows, "binary").text)

    # held-out check for the strongest single model
    forest = train(contenders[0][1], Xtr, ytr, schema.fingerprint)
    held_out = compute_metrics(make_scores(forest.decision_values(Xte)), yte)
    print(f"forest held-out accuracy {held_out.accuracy:.4f}")

    # the meta-learner trains on each base's kfold_cv held-out values
    # (5 folds, seeded by the meta spec); the table reports the stack on
    # the held-out rows
    stack = train_stack([contenders[0][1], best, contenders[2][1]],
                        ModelSpec("logreg", {}, 0), Xtr, ytr,
                        schema.fingerprint)
    held_out = compute_metrics(make_scores(stack.decision_values(Xte)), yte)
    print("\nstack, held-out rows:")
    print(render_table([("RF, kNN, SVM", held_out)], "stacking").text)


if __name__ == "__main__":
    main()
