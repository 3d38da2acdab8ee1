"""Matrix Market file round trips."""

import numpy as np
import pytest

from subeig import io
from subeig.core import SparseSymMatrix
from subeig.exceptions import ConfigError, NotSymmetricError

from .conftest import make_spd, tridiag


def test_matrix_round_trip(tmp_path, rng):
    A = make_spd(rng, 12)
    path = str(tmp_path / "A.mtx")
    io.write_matrix(path, A)
    B = io.read_matrix(path)
    assert np.allclose(A.to_dense(), B.to_dense(), rtol=0, atol=0)


def test_sparse_pattern_preserved(tmp_path):
    A = tridiag(20)
    path = str(tmp_path / "T.mtx")
    io.write_matrix(path, A)
    B = io.read_matrix(path)
    assert B.csr.nnz == A.csr.nnz
    assert np.array_equal(A.to_dense(), B.to_dense())


def test_read_rejects_asymmetric(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 3\n1 1 1.0\n1 2 2.0\n2 2 1.0\n")
    with pytest.raises(NotSymmetricError):
        io.read_matrix(str(path))


def test_missing_files_raise_config_error(tmp_path):
    with pytest.raises(ConfigError):
        io.read_matrix(str(tmp_path / "nope.mtx"))
