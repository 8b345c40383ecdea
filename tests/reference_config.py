"""pipeline.load_config and its helpers as they were before one table
stated each config key's domain, copied verbatim. The differential fuzz
in test_config.py compares today's load_config with this one."""

from __future__ import annotations

import dataclasses
import itertools
import json
import os

from headerscan.features import CHAIN_BY_THEN_FROM, CHAIN_FROM_THEN_BY
from headerscan.learners import ModelSpec, validate_spec
from headerscan.pipeline import BINARY_ALGORITHMS, RunConfig


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
            # members are known names, so strings, before set() hashes them
            _require(isinstance(combo, list) and len(combo) >= 2
                     and all(a in BINARY_ALGORITHMS for a in combo)
                     and len(set(combo)) == len(combo),
                     f"bad stacking combination: {combo!r}")
            normalized.append(tuple(combo))
        kwargs["stacking"] = tuple(normalized)

    return RunConfig(**kwargs)
