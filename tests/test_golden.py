"""Byte-identical reruns of the listed artifacts, checked against tests/golden.json.

Each entry of golden.json is one CLI command line and its format; each
environment key (numpy version, BLAS name and version, OpenBLAS thread
count) records the sha256 of every entry's artifact and of its manifest.
The test reruns each entry through cli.main with the working directory in
tmp_path and a relative --out, so the manifest does not depend on the path.
A BLAS with another version or thread count may round its products
differently, so on an environment with no key the test skips, naming the
mismatch and the hashes it got.  The values themselves stay covered by the
tolerances of the other tests on every environment.

A change that moves bytes on purpose records the new hashes in the same
commit: `PYTHONPATH=src python tests/test_golden.py` rewrites the key of the
environment it runs in (set OPENBLAS_NUM_THREADS to choose the thread key).
"""

from __future__ import annotations

import hashlib
import json
import os
import shlex
import sys
import tempfile
from pathlib import Path

import pytest

from latticemix import cli

GOLDEN = Path(__file__).with_name("golden.json")
# the benchmark's environment record reads the BLAS build and its thread count
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import envinfo  # noqa: E402


def environment() -> dict:
    """This process's key: numpy version, BLAS name and version, OpenBLAS threads."""
    info = envinfo.process_info()
    return {"numpy": info["numpy"], "blas": f"{info['blas']['name']} {info['blas']['version']}",
            "threads": info["blas_threads"]["threads"]}


def run_entry(command: str, fmt: str) -> dict:
    """sha256 of the artifact and of the manifest of one command, run in the working directory."""
    out = f"artifact.{fmt}"
    assert cli.main(shlex.split(command) + ["--format", fmt, "--out", out]) == 0
    return {name: hashlib.sha256(Path(path).read_bytes()).hexdigest()
            for name, path in (("artifact", out), ("manifest", out + ".manifest.json"))}


_golden = json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("entry", _golden["commands"], ids=lambda e: e["command"])
def test_artifact_and_manifest_bytes_hold(entry, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = run_entry(entry["command"], entry["format"])
    env = environment()
    known = [k for k in _golden["environments"] if all(k[f] == env[f] for f in env)]
    if not known:
        keys = "; ".join(f"numpy {k['numpy']}, {k['blas']}, {k['threads']} threads"
                         for k in _golden["environments"])
        pytest.skip(f"no golden key for numpy {env['numpy']}, {env['blas']}, "
                    f"{env['threads']} threads (recorded: {keys}); got artifact "
                    f"{got['artifact']}, manifest {got['manifest']}")
    assert got == known[0]["hashes"][entry["command"]]


if __name__ == "__main__":
    env = environment()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        hashes = {e["command"]: run_entry(e["command"], e["format"]) for e in _golden["commands"]}
    others = [k for k in _golden["environments"] if any(k[f] != env[f] for f in env)]
    _golden["environments"] = others + [{**env, "hashes": hashes}]
    GOLDEN.write_text(json.dumps(_golden, indent=1) + "\n")
    print(f"recorded {len(hashes)} entries for {env}")
