"""Build and load the native solve core (``solver_core.c``).

The core is one C99 file with no dependency beyond libc.  On first import
it is compiled with the system C compiler (``sysconfig``'s ``CC``, else
``cc``) into a shared library and loaded through :mod:`ctypes`, so the
package needs no build step: running from ``PYTHONPATH=src`` works.

The library is cached outside the checkout, under
``$XDG_CACHE_HOME/repro-native/`` (``~/.cache/repro-native/`` when the
variable is unset), named by the SHA-256 of the source, the compiler
command, the flags and the platform.  Checkouts with the same source
share one build, and a changed source builds afresh.  A build is written
to a temporary file and moved into place with :func:`os.replace`, so
processes that race to build the same library (pool workers, parallel
test runs) all end up loading a complete file.

When no compiler is found, the compile fails, or the library cannot be
loaded, :data:`LIB` is ``None`` and :data:`STATUS` says why; then
:class:`repro.sat.solver.Solver` is the pure-Python reference,
:class:`~repro.sat.pysolver.PySolver`.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shlex
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path

SOURCE = Path(__file__).with_name("solver_core.c")
CFLAGS = ("-O2", "-std=c99", "-fPIC", "-shared")


def default_compiler() -> list[str]:
    """The C compiler command: ``sysconfig``'s ``CC``, else ``cc``."""
    return shlex.split(sysconfig.get_config_var("CC") or "") or ["cc"]


def cache_dir() -> Path:
    """Where built libraries live: ``$XDG_CACHE_HOME`` or ``~/.cache``."""
    root = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(root) / "repro-native"


def library_path(compiler: list[str], directory: Path) -> Path:
    """The cache file for this source, compiler, flags and platform."""
    digest = hashlib.sha256()
    digest.update(SOURCE.read_bytes())
    for part in (*compiler, *CFLAGS, sys.platform, platform.machine(),
                 sysconfig.get_config_var("SOABI") or ""):
        digest.update(b"\0" + part.encode())
    return directory / f"{digest.hexdigest()}.so"


def build(cc: str | list[str] | None = None,
          directory: Path | None = None) -> Path:
    """Compile the core into the cache unless it is there; return its path.

    Raises :class:`OSError` (the compiler is missing or fails, or the
    cache is not writable) or :class:`subprocess.SubprocessError`.
    """
    compiler = (default_compiler() if cc is None
                else shlex.split(cc) if isinstance(cc, str) else list(cc))
    directory = cache_dir() if directory is None else Path(directory)
    target = library_path(compiler, directory)
    if target.is_file():
        return target
    directory.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".build-", suffix=".so")
    os.close(fd)
    try:
        done = subprocess.run(
            [*compiler, *CFLAGS, "-o", tmp, str(SOURCE)],
            stdin=subprocess.DEVNULL, capture_output=True, text=True,
            timeout=300,
        )
        if done.returncode != 0:
            raise OSError(
                f"{compiler[0]} exited {done.returncode}: "
                f"{done.stderr.strip()[-400:]}"
            )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


def _declare(lib: ctypes.CDLL) -> ctypes.CDLL:
    """Attach the argument and result types of every exported function."""
    c_int, c_int64, c_void_p = ctypes.c_int, ctypes.c_int64, ctypes.c_void_p
    ints = ctypes.POINTER(ctypes.c_int)
    signatures = {
        "rs_new": (c_void_p, [ctypes.c_uint64, c_int,
                              ctypes.POINTER(c_int64),
                              ctypes.POINTER(ctypes.c_double)]),
        "rs_free": (None, [c_void_p]),
        "rs_ok": (c_int, [c_void_p]),
        "rs_ensure_vars": (None, [c_void_p, c_int]),
        "rs_add_clause": (c_int, [c_void_p, ints, c_int]),
        "rs_add_clauses": (c_int, [c_void_p, ints, c_int]),
        "rs_add_xor": (c_int, [c_void_p, ints, c_int, c_int]),
        "rs_add_xor_group": (c_int, [c_void_p, ints, c_int, ints]),
        "rs_release_group": (None, [c_void_p, c_int]),
        "rs_solve": (c_int, [c_void_p, ints, c_int]),
        "rs_block_model": (c_int, [c_void_p, ints, c_int, c_int]),
    }
    for name, (restype, argtypes) in signatures.items():
        fn = getattr(lib, name)
        fn.restype = restype
        fn.argtypes = argtypes
    return lib


def load(cc: str | list[str] | None = None,
         directory: Path | None = None) -> tuple[ctypes.CDLL | None, str]:
    """Build (if needed) and load the core; never raises.

    Returns ``(library, status)``: the loaded library and ``"native: PATH"``,
    or ``None`` and ``"python: REASON"`` when the native core is
    unavailable.
    """
    try:
        path = build(cc, directory)
        return _declare(ctypes.CDLL(str(path))), f"native: {path}"
    except (OSError, subprocess.SubprocessError, AttributeError) as exc:
        return None, f"python: {type(exc).__name__}: {exc}"


#: The loaded core, or ``None`` when the pure-Python solver stands in.
#: :data:`STATUS` starts with ``native`` or ``python`` accordingly.
LIB, STATUS = load()
