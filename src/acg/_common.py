"""What the command-line parser and the layers share without numpy.

Each default below is defined here once.  The layer whose argument it is
imports it (sampler: DEFAULT_DELTA, DEFAULT_MAX_REDRAWS,
DEFAULT_MAX_RESTARTS; exact_kernel: DEFAULT_TABLE_CAP, ORACLE_CAP;
asymptotics: DEFAULT_TOL, DEFAULT_MAX_ITER), so each stays importable
under that layer's name, and the parser reads it from here, so that
`acg <command> --help` loads no layer and no numpy.  _atomic_write is the
one writer of every output file, the sampler's and the CLI's.
"""

from pathlib import Path

DEFAULT_DELTA = 0.25
DEFAULT_MAX_RESTARTS = 10
DEFAULT_MAX_REDRAWS = 1000
DEFAULT_TABLE_CAP = 60
ORACLE_CAP = 7
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100


def _atomic_write(path: Path, parts) -> None:
    """Write a string, or an iterable of strings or bytes in order, to a temp file, then rename it to path.

    Strings are written as UTF-8 and nothing translates line ends.  A
    failed write removes the temp file and leaves path as it was.
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            for part in [parts] if isinstance(parts, str) else parts:
                fh.write(part.encode("utf-8") if isinstance(part, str) else part)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    tmp.replace(path)
