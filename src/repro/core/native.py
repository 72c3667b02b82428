"""The one native layer: ``_sweep.c`` built, loaded, declared and checked.

The C library holds every hot loop: the interpolation sweep, the plane
encode and decode, the δ tables and the planner's DP.  This is the only
module that knows its ABI.  At import it compiles the file into a per-user
cache (:func:`build`) and loads it, every entry declared from one table
(:func:`load`); the wrappers call :func:`library` and pass each buffer by
:func:`address`, once :func:`checked` has refused what the C cannot read
safely.  ctypes releases the GIL for every call.  ``-ffp-contract=off``
keeps each multiply and add its own rounding (GCC on aarch64 would fuse
them), so answers are bitwise those of the numpy code the C replaced.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import secrets
import shlex
import shutil
import stat
import subprocess
import sysconfig
from array import array
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError

_SOURCE = Path(__file__).with_name("_sweep.c")
_FLAGS = ("-O2", "-std=c99", "-ffp-contract=off", "-fPIC", "-shared")
_LIBS = ("-lm",)
_P, _I, _D = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
#: Every entry's argument types (``_sweep.c``); each returns an ``int64``.
_ENTRIES = {
    "ipc_forward": (_P, _P, _P, _I, _I, _P, _D),
    "ipc_reconstruct": (_P, _P, _I, _I, _P, _I, _P, _D),
    "ipc_decode_planes": (_P, _I, _P, _I, _I, _P),
    "ipc_plan": (_P, _P, _P, _I, _I, _D, _I, _D, _P, _P),
    "ipc_encode_planes": (_P, _P, _I, _I, _P, _P),
    "ipc_truncation_errors": (_P, _P, _P, _I, _P),
}


def _private(path: Path, kind: Callable[[int], bool] = stat.S_ISREG) -> bool:
    """A ``kind`` of file (regular) this user owns and no one else can write."""
    try:
        info = path.lstat()
    except FileNotFoundError:
        return False
    return kind(info.st_mode) and info.st_uid == os.geteuid() and not info.st_mode & 0o022


def _cache_directory() -> Path:
    """``$XDG_CACHE_HOME/ipcomp-repro`` (else under ``~/.cache``), created
    ``0o700``; refused unless this user owns it and no one else can write it."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    path = Path(base) / "ipcomp-repro"
    path.mkdir(mode=0o700, parents=True, exist_ok=True)
    if not _private(path, stat.S_ISDIR):
        raise ConfigurationError(
            f"the C sweep's cache {path} is not a directory that "
            "only this user can write"
        )
    return path


def build(directory: Path, flags: Sequence[str] = ()) -> Path:
    """The path of ``_sweep.c`` built with the library's flags and ``flags``
    (a sanitizer's, in tests) in ``directory``, unless a private build is
    there.  The name hashes the source, the command and the platform; a
    build lands under it by an atomic rename, so processes building at once
    each load a whole library."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "") or ["cc"]
    if shutil.which(cc[0]) is None:
        raise ConfigurationError(
            f"the C sweep needs a C compiler: {cc[0]!r} (sysconfig's CC) "
            "is not on PATH"
        )
    command = [*cc, *_FLAGS, *flags]
    signature = "\0".join(
        [" ".join([*command, *_LIBS]), sysconfig.get_platform(), platform.machine()]
    )
    key = hashlib.sha256(_SOURCE.read_bytes() + signature.encode()).hexdigest()[:16]
    path = Path(directory) / f"sweep-{key}.so"
    if not _private(path):
        partial = path.with_name(f".{path.name}.{os.getpid()}.{secrets.token_hex(4)}")
        try:
            built = subprocess.run(
                [*command, "-o", str(partial), str(_SOURCE), *_LIBS],
                capture_output=True,
                text=True,
            )
            if built.returncode:
                raise ConfigurationError(
                    f"building the C sweep with {command[0]!r} failed: "
                    f"{built.stderr.strip()}"
                )
            os.replace(partial, path)
        finally:
            partial.unlink(missing_ok=True)
    return path


def load(path: Path) -> ctypes.CDLL:
    """The library at ``path``, every entry declared from ``_ENTRIES``."""
    lib = ctypes.CDLL(str(path))
    for name, argtypes in _ENTRIES.items():
        entry = getattr(lib, name)
        entry.argtypes, entry.restype = argtypes, ctypes.c_int64
    return lib


try:
    _LIB: Optional[ctypes.CDLL] = load(build(_cache_directory()))
    _MISSING = ""
except ConfigurationError as error:  # ``import repro`` still works
    _LIB, _MISSING = None, str(error)
except OSError as error:
    _LIB, _MISSING = None, f"the C sweep could not be built or loaded: {error}"


def library() -> ctypes.CDLL:
    """The loaded library; :class:`ConfigurationError` if it could not be built."""
    if _LIB is None:
        raise ConfigurationError(_MISSING)
    return _LIB


#: ``addressof(_VIEW.from_buffer(a))`` is the address of a writable array
#: ``a``, an empty one too, for a third of what ``a.ctypes.data`` costs.
_VIEW = ctypes.c_char * 0


def address(buffer: Any) -> int:
    """The address of an ``array``'s or a C-contiguous ``ndarray``'s data."""
    if isinstance(buffer, array):
        return buffer.buffer_info()[0]
    if buffer.flags.writeable:
        return ctypes.addressof(_VIEW.from_buffer(buffer))
    return buffer.ctypes.data


def checked(buffer: Any, kind: Any, shape: Any, error: type, message: str) -> int:
    """:func:`address` of ``buffer`` once it is what the C reads, else
    ``error(message)``, formatted with ``buffer``, ``shape`` and ``got`` (the
    buffer's dtype, else its type).  ``kind`` is a numpy dtype — a
    C-contiguous ``ndarray`` of it and of ``shape`` (``None``: 1-D) — or an
    ``array`` typecode: an ``array`` of it, ``shape`` ``(rows, width)``
    whole rows of ``width`` (``rows`` −1: any number)."""
    if isinstance(kind, str):
        rows, width = shape
        ok = isinstance(buffer, array) and buffer.typecode == kind
        ok = ok and len(buffer) % width == 0 and rows in (-1, len(buffer) // width)
    else:
        ok = isinstance(buffer, np.ndarray) and buffer.dtype == kind and buffer.flags.c_contiguous
        ok = ok and (buffer.ndim == 1 if shape is None else buffer.shape == shape)
    if not ok:
        got = getattr(buffer, "dtype", type(buffer).__name__)
        raise error(message.format(buffer=buffer, shape=shape, got=got))
    return address(buffer)
