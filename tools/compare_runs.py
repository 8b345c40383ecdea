"""Run headerscan's phases from two source trees and compare every output byte.

    python tools/compare_runs.py PARENT_SRC CHANGE_SRC --config CFG [--phases 1,3]

PARENT_SRC and CHANGE_SRC are directories that hold a `headerscan`
package, such as the `src/` of two checkouts. Each side runs
`run_phases` on the config file CFG in a fresh subprocess that imports
headerscan from its own tree, one side after the other, with BLAS
pinned to one thread, and writes into its own temporary output
directory. Every file the two runs wrote is then compared byte for
byte. The one value allowed to differ is the output directory that
manifest.json records under "config"; it is masked before the
comparison. Exits 0 when every file matches; otherwise lists the
differing files and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

# the child checks that headerscan came from its own tree
CHILD = """
import os, sys
import headerscan
from headerscan.pipeline import load_config, run_phases
src, config, out, phases = sys.argv[1:]
if os.path.dirname(os.path.dirname(os.path.abspath(headerscan.__file__))) != src:
    sys.exit(f"headerscan was imported from {headerscan.__file__}, not from {src}")
run_phases(load_config(config, output_dir=out), [int(p) for p in phases.split(",")])
"""

BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_side(src: str, config: str, out: str, phases: str) -> None:
    """run_phases from the headerscan package under src, in a subprocess."""
    env = dict(os.environ, PYTHONPATH=src, **{name: "1" for name in BLAS_THREADS})
    done = subprocess.run([sys.executable, "-c", CHILD, src, config, out, phases],
                          env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"run from {src} failed:\n{done.stderr}")


def output_files(out: str) -> dict[str, bytes]:
    """Every file under out by its path relative to out, the manifest's
    recorded output directory masked."""
    files = {}
    for base, _, names in os.walk(out):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, out)] = fh.read()
    if "manifest.json" in files:
        recorded = b'"output_dir": ' + json.dumps(out).encode()
        files["manifest.json"] = files["manifest.json"].replace(recorded, b'"output_dir": null')
    return files


def differing_files(parent: dict[str, bytes], change: dict[str, bytes]) -> list[str]:
    """Paths written by one side only, or with other bytes."""
    return sorted(path for path in parent.keys() | change.keys()
                  if parent.get(path) != change.get(path))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--config", required=True)
    parser.add_argument("--phases", default="1,2,3,4")
    args = parser.parse_args(argv)
    config = os.path.abspath(args.config)
    with tempfile.TemporaryDirectory() as tmp:
        sides = []
        for name, src in (("parent", args.parent_src), ("change", args.change_src)):
            out = os.path.join(tmp, name)
            run_side(os.path.abspath(src), config, out, args.phases)
            sides.append(output_files(out))
    differ = differing_files(*sides)
    for path in differ:
        print(f"differs: {path}")
    print(f"{len(sides[0])} parent files, {len(sides[1])} change files, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
