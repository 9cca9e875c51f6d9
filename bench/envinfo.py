"""Environment block recorded with every benchmark result."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import sys

import numpy as np

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_OPENBLAS_SYMBOLS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads", "scipy_openblas_get_num_threads")


def _blas_build() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown"}
    return {"name": blas.get("name", "unknown"), "version": blas.get("version", "unknown")}


def _openblas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library loaded in this process."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in _OPENBLAS_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def blas_threads() -> dict:
    settings = {name: os.environ[name] for name in THREAD_VARIABLES if name in os.environ}
    library = _openblas_threads()
    if library is not None:
        source = "openblas_get_num_threads"
    elif settings:
        source = "environment"
    else:
        source = "unverified"
    return {"threads": library, "environment": settings, "source": source}


def process_info() -> dict:
    """What the process that runs the jobs sees."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_build(),
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def source_identity(root: str) -> dict:
    """Git commit when the checkout is a git work tree, plus a digest of src/."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "latticemix")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        done = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {"git_commit": commit, "src_sha256": digest.hexdigest(),
            "executable": os.path.basename(sys.executable)}
