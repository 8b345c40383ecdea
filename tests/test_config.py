"""The run config's validation table against the hand-written checks it
replaced: a seeded mutation fuzz of full valid configs through both
load_config versions."""

import dataclasses
import json
import random

import pytest

from headerscan import pipeline
from headerscan.pipeline import RunConfig, config_to_dict, load_config
import reference_config as reference  # load_config before the table

PATH_KEYS = ("trec_index", "trec_root", "ham_dir", "spam_dir", "phishing_dir")
FIELDS = [f.name for f in dataclasses.fields(RunConfig)]

COMMON = {
    "seed": 7,
    "output_dir": "out",
    "phishing_dir": "phish",
    "k": 50,
    "one_hot": False,
    "chain_direction": "from-then-by",
    "importance_repeats": 3,
    "top_m": 30,
    "test_fraction": 0.25,
    "cv_folds": 4,
    "grids": {"knn": {"k": [3, 5]}, "random_forest": {"max_depth": [None, 2]},
              "mlp": {"hidden": [8], "lr": [0.01]}},
    "one_class_grid": {"nu": [0.1, 0.5], "gamma": ["auto", 0.5]},
    "stacking": [["random_forest", "mlp"], ["knn", "linear_svm", "logreg"]],
}
BASES = [
    dict(COMMON, synthetic={"n": 160, "anomaly_fraction": 0.4, "seed": 99}),
    dict(COMMON, ham_dir="ham", spam_dir="spam"),
    dict(COMMON, trec_index="trec/index", trec_root="trec"),
]
# plausible values as well as garbage, so that about one in seven mutated
# configs still loads
SCALARS = [
    None, True, False, 0, 1, 2, 3, 4, -1, 10**30, 10**400, 0.5, 0.0, 1.0,
    1e-300, float("nan"), float("inf"), float("-inf"), "", "x", "auto",
    "by-then-from", "from-then-by", "knn", "mlp", "random_forest",
    "linear_svm", "ham", "spam", "phish", "trec", "trec/index",
    "out\0x", "phish\0", "trec\0",
]
KEYS = ["n", "seed", "anomaly_fraction", "nu", "gamma", "k", "C", "knn",
        "mlp", "lr", "hidden", "x"]


def _garbage(rng, depth=0):
    roll = rng.random()
    if roll < 0.12 and depth < 3:
        return [_garbage(rng, depth + 1) for _ in range(rng.randint(0, 3))]
    if roll < 0.24 and depth < 3:
        return {rng.choice(KEYS): _garbage(rng, depth + 1)
                for _ in range(rng.randint(0, 3))}
    if roll < 0.5:  # a valid value, perhaps of another key
        base = rng.choice(BASES)
        return json.loads(json.dumps(base[rng.choice(list(base))]))
    return rng.choice(SCALARS)


def _slots(value):
    """(container, key) of every value nested inside value."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in list(items):
        yield value, key
        yield from _slots(child)


def _mutate(rng, doc):
    for _ in range(rng.choice([1, 1, 2, 3])):
        roll = rng.random()
        if roll < 0.25 and doc:
            del doc[rng.choice(list(doc))]
        elif roll < 0.55:
            doc[rng.choice(FIELDS + ["bogus"])] = _garbage(rng)
        else:
            slots = [slot for slot in _slots(doc) if slot[0] is not doc]
            if not slots:
                continue
            container, key = rng.choice(slots)
            if rng.random() < 0.3 and isinstance(container, dict):
                del container[key]
            else:
                container[key] = _garbage(rng)


def _nul_path(doc, output_dir):
    out = doc.get("output_dir") if output_dir is None else output_dir
    paths = [out] + [doc.get(key) for key in PATH_KEYS]
    return any(isinstance(p, str) and "\0" in p for p in paths)


def test_the_table_states_every_config_field():
    assert list(pipeline._CONFIG_DOMAINS) == FIELDS


@pytest.fixture
def config_path(tmp_path):
    for name in ("ham", "spam", "phish", "trec"):
        (tmp_path / name).mkdir()
    (tmp_path / "trec" / "index").write_text("")
    return tmp_path / "config.json"


def _compare(path, doc, outcomes, seed=None, output_dir=None):
    """Load doc with both versions; they must agree but for NUL paths."""
    path.write_text(json.dumps(doc))
    try:
        before = json.dumps(config_to_dict(reference.load_config(
            str(path), seed, output_dir)))
    except (ValueError, OverflowError):  # a 400-digit fraction overflowed
        before = None
    try:  # anything but ValueError fails the test
        after = json.dumps(config_to_dict(load_config(str(path), seed, output_dir)))
    except ValueError as exc:
        after = None
        if before is not None:  # the one intended difference
            assert _nul_path(doc, output_dir), (doc, exc)
            assert "without NUL" in str(exc)
            outcomes["nul"] += 1
            return
    assert after == before, doc
    outcomes["accepted" if after else "rejected"] += 1


def test_table_agrees_on_every_single_key_substitution(config_path):
    outcomes = {"accepted": 0, "rejected": 0, "nul": 0}
    for base in BASES:
        for key in FIELDS:
            for value in SCALARS + [[], {}, [[]], {"x": 1}]:
                _compare(config_path, dict(base, **{key: value}), outcomes)
    assert min(outcomes.values()) > 0, outcomes


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_table_loads_exactly_what_the_hand_written_checks_loaded(config_path, seed):
    rng = random.Random(seed)
    outcomes = {"accepted": 0, "rejected": 0, "nul": 0}
    for _ in range(600):
        doc = json.loads(json.dumps(rng.choice(BASES)))
        _mutate(rng, doc)
        _compare(config_path, doc, outcomes,
                 rng.choice([None, None, None, 5, 0, -2]),
                 rng.choice([None, None, None, "elsewhere", "", "else\0where"]))
    assert min(outcomes.values()) > 0, outcomes
    assert outcomes["accepted"] > 50, outcomes
    assert outcomes["accepted"] > 60, outcomes
