"""Train on ham alone, then judge unseen ham and spam.

The one-class SVM never sees an anomaly during training. Its nu knob
bounds the fraction of training ham allowed outside the boundary, and
the fitted model carries an audit of its own optimality conditions, so
the sweep below is checkable rather than folklore.
"""

import tempfile

import numpy as np

from headerscan import (Label, ModelSpec, balance, compute_metrics,
                        extract_matrix, fit_scaler, fit_schema,
                        generate_emails, load_bundle, make_scores,
                        predict_one_class, prune_single_valued, render_table,
                        save_bundle, stratified_split, to_records,
                        train_one_class)
from headerscan.features import apply_scaler


def main() -> None:
    records = to_records(generate_emails(700, anomaly_fraction=0.4, seed=17))
    y = np.array([0 if r.label is Label.HAM else 1 for r in records])
    train_ix, test_ix = stratified_split(y, test_fraction=0.3, seed=5)

    # schema and scaler come from training ham only
    ham_train = [records[i] for i in train_ix if y[i] == 0]
    schema = fit_schema(ham_train, k=40, one_hot=True)
    schema, matrix, _ = prune_single_valued(
        schema, extract_matrix(ham_train, schema))
    scaler = fit_scaler(matrix)
    X_ham = apply_scaler(matrix, scaler)
    print(f"training on {len(X_ham)} ham, {X_ham.shape[1]} features")

    gamma = 1.0 / X_ham.shape[1]
    print("\nnu sweep (training-set audit):")
    for nu in (0.05, 0.1, 0.2, 0.4):
        model = train_one_class(
            ModelSpec("one_class_svm", {"nu": nu, "gamma": gamma}, 0),
            X_ham, schema.fingerprint)
        a = model.audit
        print(f"  nu={nu:4}: support vectors {a.sv_fraction:.3f}, "
              f"margin errors {a.margin_error_fraction:.3f}, "
              f"|sum alpha - 1| = {abs(a.sum_alpha - 1.0):.1e}")

    model = train_one_class(
        ModelSpec("one_class_svm", {"nu": 0.1, "gamma": gamma}, 0),
        X_ham, schema.fingerprint)

    # balanced test bench: equal ham and spam, none seen in training
    keep = balance(y[test_ix], seed=99)
    bench = [records[test_ix[i]] for i in keep]
    y_bench = y[test_ix][keep]
    X_bench = apply_scaler(extract_matrix(bench, schema), scaler)
    scores = make_scores(model.decision_values(X_bench), one_class=True)
    report = compute_metrics(scores, y_bench)
    print("\n" + render_table([("Ham and Spam", report)], "oneclass").text)

    # a bundle file carries model, schema, and scaler together
    with tempfile.TemporaryDirectory() as scratch:
        path = f"{scratch}/oneclass.model.json"
        save_bundle(path, model, schema, scaler, "spam")
        loaded = load_bundle(path)
    vec = apply_scaler(extract_matrix(bench[:1], loaded.schema),
                       loaded.scaler)[0]
    verdict = predict_one_class(loaded.model, vec, loaded.schema.fingerprint)
    label = loaded.positive_label if verdict.is_anomalous else "ham"
    print(f"reloaded bundle judges first bench email ({bench[0].id}): "
          f"{label}, truth {bench[0].label.name.lower()}")


if __name__ == "__main__":
    main()
