"""Regenerate the benchmark's own part of the paper suite's reference.

Usage (from the root of a checkout)::

    PYTHONPATH=src python3 perfbench/make_reference.py

Runs each paper experiment alone on the event engine without a cache, at
the benchmark's scale.  Six of the seven artifacts are the repository's
committed ``results/*.json``, which are the reference for those
experiments; this script reports any difference from them and exits 1.
The artifact with no committed copy (``policies.json``) is written to
``perfbench/reference``, together with ``manifest.json``, which records
how many simulation points each experiment submits.  Run it only when
the program's outputs are meant to change.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import suite
from tracer import Tracer


def main() -> int:
    from repro.experiments import runner

    suite.REFERENCE_DIR.mkdir(exist_ok=True)
    points: dict[str, int] = {}
    differs = False
    with tempfile.TemporaryDirectory() as scratch:
        outdir = Path(scratch)
        for name in runner.EXPERIMENTS:
            tracer = Tracer()
            tracer.install()
            try:
                with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                    code = runner.main(
                        [
                            "--scale", repr(suite.SCALE), "--jobs", "1",
                            "--no-cache", "--only", name, "--output", str(outdir),
                        ]
                    )
            finally:
                tracer.uninstall()
            if code != 0:
                print(f"{name}: runner exited with {code}", file=sys.stderr)
                return 1
            points[name] = tracer.counts["exec.points"]
            artifact = outdir / f"{name}.json"
            committed = suite.RESULTS_DIR / f"{name}.json"
            if not committed.is_file():
                shutil.copyfile(artifact, suite.REFERENCE_DIR / artifact.name)
            elif committed.read_bytes() != artifact.read_bytes():
                print(f"{name}: differs from {committed}", file=sys.stderr)
                differs = True
    manifest = {"scale": suite.SCALE, "points": points}
    (suite.REFERENCE_DIR / "manifest.json").write_text(
        json.dumps(manifest, indent=2) + "\n"
    )
    print(f"reference written to {suite.REFERENCE_DIR}: {points}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
