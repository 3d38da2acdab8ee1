"""File I/O: Matrix Market files of sparse symmetric operators, the one
JSON writer of every report and manifest, and the checked reader of JSON
input files."""

from __future__ import annotations

import json
import math
import os
from typing import Iterable

import numpy as np
import scipy.sparse as sp

from .core import SparseSymMatrix
from .exceptions import ConfigError


def write_matrix(path: str, A: SparseSymMatrix) -> None:
    """Write in coordinate format, lower triangle with the symmetric qualifier."""
    # imported here, not at load: scipy.io adds about 0.8 MiB of peak RSS to
    # every process that imports subeig (Linux x86-64, scipy 1.17)
    import scipy.io

    scipy.io.mmwrite(path, sp.tril(A.csr), precision=17, symmetry="symmetric")


def read_matrix(path: str) -> SparseSymMatrix:
    """Read a Matrix Market file; symmetric storage is expanded internally."""
    import scipy.io

    if not os.path.exists(path):
        raise ConfigError(f"matrix file not found: {path}")
    mat = scipy.io.mmread(path)
    if not sp.issparse(mat):
        mat = sp.csr_matrix(np.atleast_2d(mat))
    return SparseSymMatrix.from_csr(mat.tocsr())


def deterministic_json(obj) -> str:
    """JSON with sorted keys and every float at 17 significant digits, so
    identical inputs serialize byte-identically across runs and platforms;
    a NaN or infinity is written as null."""
    out: list[str] = []
    _emit(obj, out)
    return "".join(out)


def _emit(obj, out: list[str]) -> None:
    if isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                out.append(",")
            out.append(json.dumps(str(key)))
            out.append(":")
            _emit(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _emit(item, out)
        out.append("]")
    elif isinstance(obj, bool) or obj is None:
        out.append("true" if obj is True else "false" if obj is False else "null")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(f"{float(obj):.17g}" if math.isfinite(obj) else "null")
    else:
        out.append(json.dumps(str(obj)))


def require_keys(obj, what: str, keys: Iterable[str] = ()) -> dict:
    """obj when it is a JSON object holding every one of keys, else a
    ConfigError that names what it is (its file) and the first missing key."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must contain a JSON object")
    for key in keys:
        if key not in obj:
            raise ConfigError(f"{what} has no {key!r}")
    return obj


def read_json_object(path: str, what: str, keys: Iterable[str] = ()) -> dict:
    """The JSON object in the file at path, checked by require_keys; what
    names the kind of file ("replay file") in the messages, which also name
    the path."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc
    return require_keys(payload, f"{what} {path}", keys)
