"""headerscan: email anomaly detection from message headers alone.

Parses RFC 5322 headers tolerantly, derives fixed-length feature
vectors from header structure (no body content), and classifies with
self-contained numpy learners, including a one-class mode trained on
ham only.
"""

# bound before the submodule imports; pipeline reads it at import time
__version__ = "0.1.0"

from .corpus import (CorpusRecord, Label, LoadReport, corpus_digest,
                     header_frequencies, load_labeled_dir, load_trec_index,
                     top_k_fields)
from .evaluation import (EvalReport, ImportanceReport, balance,
                         compute_metrics, grid_search, kfold_cv, make_scores,
                         permutation_importance, render_table, roc_points,
                         select_top_m, stratified_split)
from .features import (CHAIN_BY_THEN_FROM, CHAIN_FROM_THEN_BY,
                       DOMAIN_MATCH_ONLY, FULL, FeatureDescriptor,
                       FeatureSchema, ScalerParams, apply_scaler, extract,
                       extract_matrix, fit_scaler, fit_schema,
                       prune_single_valued, subset_scaler, subset_schema)
from .headers import (DateStamp, EmailHeader, HeaderField, ParsedAddress,
                      ReceivedHop, extract_domain, parse_address_list,
                      parse_date, parse_headers, parse_received,
                      serialize_headers)
from .learners import (Bundle, ModelSpec, Score, decision_values,
                       default_grid, load_bundle, predict, predict_one_class,
                       save_bundle, train, train_one_class, train_stack)
from .pipeline import RunConfig, load_config, run_importance, run_phases
from .synthetic import generate_emails, to_records
