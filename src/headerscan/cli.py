"""Command line front end.

Commands: ingest (columnar header cache), headers-report (field
frequencies), run (the four-phase pipeline), classify (score one email
with a saved model), importance (permutation importance tables only).

Exit codes: 0 success (for classify: ham or inlier), 10 classify judged
the message anomalous, 1 a pipeline phase failed, 2 usage, config, or
data errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import logging
import os
import sys

from . import __version__
from .corpus import header_frequencies, top_k_fields
from .features import apply_scaler, extract
from .headers import parse_headers
from .learners import load_bundle, predict
from .pipeline import (DataError, load_config, load_datasets, read_ham_spam,
                       read_phishing, run_importance, run_phases)

log = logging.getLogger(__name__)

_PHASES = {"1": [1], "2": [2], "3": [3], "4": [4], "all": None}


def _config_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="JSON config file")
    sub.add_argument("--seed", type=int, default=None,
                     help="override the config seed")
    sub.add_argument("--out", default=None,
                     help="override the config output_dir")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="headerscan",
        description="email header anomaly detection toolkit")
    parser.add_argument("--version", action="version",
                        version=f"headerscan {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("ingest",
                              help="parse the corpora into a CSV cache")
    _config_flags(sub)
    sub.set_defaults(func=_cmd_ingest)

    sub = commands.add_parser("headers-report",
                              help="field document frequencies")
    _config_flags(sub)
    sub.set_defaults(func=_cmd_headers_report)

    sub = commands.add_parser("run", help="run the four-phase pipeline")
    _config_flags(sub)
    sub.add_argument("--phase", choices=sorted(_PHASES), default="all")
    sub.set_defaults(func=_cmd_run)

    sub = commands.add_parser("classify",
                              help="score one email with a saved model")
    sub.add_argument("--model", required=True, help="model bundle file")
    sub.add_argument("email", help="message file, or - for stdin")
    sub.set_defaults(func=_cmd_classify)

    sub = commands.add_parser("importance",
                              help="permutation importance tables")
    _config_flags(sub)
    sub.set_defaults(func=_cmd_importance)
    return parser


def _cmd_ingest(args) -> int:
    cfg = load_config(args.config, args.seed, args.out)
    datasets = load_datasets(cfg)
    fields = top_k_fields(header_frequencies(
        datasets.ham_spam + (datasets.phishing or [])), cfg.k)
    del datasets  # records keep no field values; free them before the re-read
    line = io.StringIO()
    writer = csv.writer(line, lineterminator="\n")

    def row(id, header, label) -> str:
        """One message's cache line. Lines are held until the corpus is in
        order, and one string holds less than a list of cells."""
        line.seek(0)
        line.truncate()
        # repeated fields collapse into one cell, values in file order
        writer.writerow([id, label.value] + [" | ".join(header.get_all(name))
                                             for name in fields])
        return line.getvalue()

    # each message is read again from its source, in corpus order
    _, rows = read_ham_spam(cfg, row)
    rows += read_phishing(cfg, row) or []
    os.makedirs(cfg.output_dir, exist_ok=True)
    path = os.path.join(cfg.output_dir, "cache.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(["id", "label"] + fields)
        fh.writelines(rows)
    print(f"wrote {len(rows)} rows, {2 + len(fields)} columns: {path}")
    return 0


def _cmd_headers_report(args) -> int:
    cfg = load_config(args.config, args.seed, args.out)
    datasets = load_datasets(cfg, allow_empty=True)
    records = datasets.ham_spam + (datasets.phishing or [])
    stats = header_frequencies(records)
    if not stats.doc_freq:
        log.warning("corpus is empty; nothing to report")
    ordered = sorted(stats.doc_freq.items(), key=lambda kv: (-kv[1], kv[0]))
    width = max([len(name) for name, _ in ordered] + [5])
    print(f"{'Field'.ljust(width)}  Documents")
    for i, (name, count) in enumerate(ordered):
        if i == cfg.k:
            print(f"{'-' * width}  ---- top-{cfg.k} cut ----")
        print(f"{name.ljust(width)}  {count}")
    return 0


def _cmd_run(args) -> int:
    cfg = load_config(args.config, args.seed, args.out)
    try:
        manifest = run_phases(cfg, _PHASES[args.phase])
    except DataError:
        raise  # found while loading, before any phase: main exits 2
    except Exception as exc:
        print(f"error: phase failed: {exc}", file=sys.stderr)
        return 1
    for number, entry in sorted(manifest["phases"].items()):
        best = entry["best"]
        print(f"phase {number}: best {best['name']} "
              f"balanced accuracy {best['test']['accuracy']:.4f}")
    print(f"manifest: {os.path.join(cfg.output_dir, 'manifest.json')}")
    return 0


def _cmd_classify(args) -> int:
    try:
        bundle = load_bundle(args.model)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.email == "-":
            raw = sys.stdin.buffer.read()
        else:
            with open(args.email, "rb") as fh:
                raw = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    vector = apply_scaler(extract(parse_headers(raw), bundle.schema),
                          bundle.scaler)
    fingerprint = bundle.schema.fingerprint
    score = predict(bundle.model, vector, fingerprint)
    label = bundle.positive_label if score.is_anomalous else "ham"
    print(f"{label}\t{score.decision_value!r}\t{fingerprint}")
    return 10 if score.is_anomalous else 0


def _cmd_importance(args) -> int:
    cfg = load_config(args.config, args.seed, args.out)
    entry = run_importance(cfg)
    table = entry["importance"]["random_forest"]["tables"]["text"]
    with open(os.path.join(cfg.output_dir, table), "r",
              encoding="utf-8") as fh:
        print(fh.read(), end="")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
