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


def load() -> Kernel | None:
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


def _build(cc: str, directory: Path, name: str) -> Kernel:
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
    return Kernel(str(target))


def _declare(lib: Kernel) -> Kernel:
    i64, address = ctypes.c_int64, ctypes.c_void_p
    lib.acg_type_chain.argtypes = [i64, address, address, address, address, i64, ctypes.c_int, i64, address, address]
    lib.acg_type_chain.restype = ctypes.c_int
    lib.acg_assign_stubs.argtypes = [i64, i64, address, i64, address, address, i64, address, address]
    lib.acg_assign_stubs.restype = None
    lib.acg_format_rows.argtypes = [i64, i64, i64, address, ctypes.c_int, address]
    lib.acg_format_rows.restype = i64
    return lib


_F64, _I64, _U8 = np.dtype(np.float64), np.dtype(np.int64), np.dtype(np.uint8)


def _address(name: str, array: np.ndarray, dtype: np.dtype, shape: tuple) -> int:
    """The address of a C-contiguous array of this dtype and shape; TypeError for any other."""
    if array.dtype != dtype or array.shape != shape or not array.flags.c_contiguous:
        raise TypeError(
            f"{name} must be a C-contiguous {dtype} array of shape {shape}, "
            f"got {array.dtype} {array.shape}{'' if array.flags.c_contiguous else ' not C-contiguous'}"
        )
    return array.ctypes.data


class Kernel(ctypes.CDLL):
    """The loaded kernel: each method checks every array it passes, then hands C its address.

    One dtype, C-contiguity and shape check per array replaces ctypes'
    np.ctypeslib.ndpointer conversion, at about half its cost per call, and
    also fixes each array's length; that the values are in range (degrees
    and types below K + 1, as the sampler makes them) is left to the caller.
    """

    def type_chain(self, rate, em, ep, us, fallback_uniform: bool, refresh_every: int, kt, jt) -> int:
        """acg_type_chain over len(kt) steps; consumes em and ep."""
        size, steps = len(rate), len(kt)
        return self.acg_type_chain(
            size,
            _address("rate", rate, _F64, (size, size)),
            _address("em", em, _I64, (size,)),
            _address("ep", ep, _I64, (size,)),
            _address("us", us, _F64, (steps, 4)),
            steps,
            fallback_uniform,
            refresh_every,
            _address("kt", kt, _I64, (steps,)),
            _address("jt", jt, _I64, (steps,)),
        )

    def assign_stubs(self, degrees, types, us, col: int, pool, owners) -> None:
        """acg_assign_stubs over len(types) steps, one per stub: the C lays sum(degrees) stubs out in pool."""
        n, steps = len(degrees), len(types)
        if int(degrees.sum()) != steps:
            raise ValueError(f"{steps} steps for {int(degrees.sum())} stubs")
        self.acg_assign_stubs(
            int(degrees.max(initial=0)) + 1,
            n,
            _address("degrees", degrees, _I64, (n,)),
            steps,
            _address("types", types, _I64, (steps,)),
            _address("us", us, _F64, (steps, 4)),
            col,
            _address("pool", pool, _I64, (steps,)),
            _address("owners", owners, _I64, (steps,)),
        )

    def format_rows(self, start: int, block, sep: str, out) -> int:
        """acg_format_rows of the columns of block into out, which holds 20 bytes per field."""
        ncols, rows = block.shape
        need = rows * (ncols + 1) * 20
        block_at = _address("block", block, _I64, (ncols, rows))
        return self.acg_format_rows(start, rows, ncols, block_at, ord(sep), _address("out", out[:need], _U8, (need,)))
