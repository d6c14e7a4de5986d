"""What a result was measured on: host, versions, thread setup, source."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import sys
from pathlib import Path


def _openblas():
    """OpenBLAS build string and runtime thread count, read through the
    library numpy loaded; (None, None) when it cannot be found."""
    import numpy as np

    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "lib*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            try:
                get_config = getattr(lib, f"{prefix}_get_config{suffix}")
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
            except AttributeError:
                continue
            get_config.restype = ctypes.c_char_p
            get_config.argtypes = []
            get_threads.restype = ctypes.c_int
            get_threads.argtypes = []
            return get_config().decode(), get_threads()
    return None, None


def _git_revision(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = root / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest(root: Path) -> str:
    """sha256 over the package sources, for checkouts without git data."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "dgopt").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def collect(root: Path, args) -> dict:
    import numpy as np

    blas_config, blas_threads = _openblas()
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas_config,
        "openblas_threads": blas_threads,
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS") or k.startswith("OMP_")},
        "git_revision": _git_revision(root),
        "source_digest": source_digest(root),
        "argv": [sys.executable] + sys.argv,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
