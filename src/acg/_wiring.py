"""Build and load the compiled wiring kernel, `_wiring.c`, through ctypes.

The kernel runs both wiring stages and formats the rows of the sample
files.  It is compiled on first use with the system C compiler into the
`__pycache__` directory beside this file, or into a temporary directory
where that one cannot be written.  The library is named by the SHA-256 of
the source, the flags and the machine type, and written under a temporary
name then renamed, so processes that build at once never load a partial
file.  load() returns None when there is no compiler or the build or the
load fails; the sampler then runs its Python loops and its "%d" row
formatter, which give the same bytes.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

# -ffp-contract=off keeps a*b+c from fusing into one rounding; never -ffast-math
# or -march=native, which change the picks
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
SOURCE = Path(__file__).with_name("_wiring.c")


def load() -> ctypes.CDLL | None:
    """The kernel with its argument types declared, or None without a working compiler."""
    cc = shutil.which("cc")
    if cc is None:
        return None
    try:
        key = hashlib.sha256(SOURCE.read_bytes() + repr((FLAGS, platform.machine())).encode())
        name = f"_wiring-{key.hexdigest()[:16]}.so"
        try:
            return _declare(_build(cc, SOURCE.parent / "__pycache__", name))
        except OSError:
            with tempfile.TemporaryDirectory(ignore_cleanup_errors=True) as tmp:
                return _declare(_build(cc, Path(tmp), name))
    except (OSError, subprocess.SubprocessError):
        return None


def _build(cc: str, directory: Path, name: str) -> ctypes.CDLL:
    target = directory / name
    if not target.exists():
        directory.mkdir(exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=f".{name}.", suffix=".tmp")
        os.close(fd)
        try:
            subprocess.run(
                [cc, *FLAGS, "-o", tmp, str(SOURCE)], check=True, capture_output=True, timeout=120
            )
            os.chmod(tmp, 0o755)  # mkstemp made it private; other users load it too
            os.replace(tmp, target)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return ctypes.CDLL(str(target))


def _declare(lib: ctypes.CDLL) -> ctypes.CDLL:
    i64 = ctypes.c_int64
    floats = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    ints = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
    text = np.ctypeslib.ndpointer(np.uint8, flags="C_CONTIGUOUS")
    lib.acg_type_chain.argtypes = [i64, floats, ints, ints, floats, i64, ctypes.c_int, i64, ints, ints]
    lib.acg_type_chain.restype = ctypes.c_int
    lib.acg_assign_stubs.argtypes = [i64, i64, ints, i64, ints, floats, i64, ints, ints]
    lib.acg_assign_stubs.restype = None
    lib.acg_format_rows.argtypes = [i64, i64, i64, ints, ctypes.c_int, text]
    lib.acg_format_rows.restype = i64
    return lib
