"""SciPy's compiled LAPACK and sparse kernels, loaded without importing SciPy.

Importing any SciPy subpackage runs SciPy's package code, which imports
its array-API layer and, through it, numpy.f2py and numpy.testing: about
0.27 s of a cold command, more than the solve.  The solver needs two of
SciPy's compiled modules alone, so this module loads those two files
straight from SciPy's install directory, found by
importlib.util.find_spec("scipy"), which does not run the package:

- ``scipy/linalg/_flapack``: the band Cholesky ``dpbtrf``, its triangular
  sweep ``dtbtrs`` and the dense LU ``dgetrf``/``dgetrs``;
- ``scipy/sparse/_sparsetools``: the CSR/CSC products and the COO to CSR
  conversion with its sort, sum and zero-dropping passes.

Both are private paths of SciPy, checked against SciPy 1.17.  A missing
file raises ImportError naming it.

Csr is the sparse matrix the model and the solver hold.  It stores
exactly the arrays a SciPy csr_matrix built from the same input stores,
and each operation calls the kernel SciPy's would, so every array and
every product is SciPy's, bit for bit.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

__all__ = ["Csr", "dgetrf", "dgetrs", "dpbtrf", "dtbtrs"]


def _load(name: str):
    """SciPy's compiled module scipy.<name>, loaded from its file alone."""
    full = f"scipy.{name}"
    if full in sys.modules:  # SciPy itself, or an earlier load, has it
        return sys.modules[full]
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError(f"SciPy is not installed: {full} is needed")
    stem = os.path.join(spec.submodule_search_locations[0], *name.split("."))
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.isfile(stem + suffix):
            loader = importlib.machinery.ExtensionFileLoader(full, stem + suffix)
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_file_location(full, stem + suffix, loader=loader))
            loader.exec_module(module)
            return module
    raise ImportError(f"SciPy's compiled module {stem}{importlib.machinery.EXTENSION_SUFFIXES[0]} "
                      f"was not found")


_flapack = _load("linalg._flapack")
_sparsetools = _load("sparse._sparsetools")
dpbtrf, dtbtrs, dgetrf, dgetrs = _flapack.dpbtrf, _flapack.dtbtrs, _flapack.dgetrf, _flapack.dgetrs


class Csr:
    """A float64 sparse matrix in compressed sparse row form.

    Row i holds the entries data[indptr[i]:indptr[i + 1]] in the columns
    indices[indptr[i]:indptr[i + 1]]; indices and indptr are int32.  The
    arrays given are kept, copied only to take those dtypes, and not
    checked.  `m @ v` is m times
    a vector and `m.T @ v` its transpose times one, read from the same
    arrays as column-compressed (SciPy's .T does the same).
    """

    __slots__ = ("data", "indices", "indptr", "shape")

    def __init__(self, data, indices, indptr, shape: tuple[int, int]):
        self.data = np.asarray(data, dtype=np.float64)
        self.indices = np.asarray(indices, dtype=np.int32)
        self.indptr = np.asarray(indptr, dtype=np.int32)
        self.shape = (int(shape[0]), int(shape[1]))

    @classmethod
    def from_coo(cls, data, rows, cols, shape: tuple[int, int]) -> Csr:
        """The matrix with data[t] at (rows[t], cols[t]): entries that meet are added,
        each row's columns ascend, and an entry that comes out zero is not stored.

        The arrays are SciPy's csr_matrix((data, (rows, cols)), shape)
        after eliminate_zeros().
        """
        (m, n), nnz = shape, len(data)
        rows, cols = np.asarray(rows, dtype=np.int32), np.asarray(cols, dtype=np.int32)
        if nnz and not (0 <= rows.min() and rows.max() < m and 0 <= cols.min() and cols.max() < n):
            raise ValueError(f"an entry lies outside the {m} x {n} matrix")
        a = cls(np.empty(nnz), np.empty(nnz, np.int32), np.empty(m + 1, np.int32), shape)
        _sparsetools.coo_tocsr(m, n, nnz, rows, cols, np.asarray(data, dtype=np.float64),
                               a.indptr, a.indices, a.data)
        if not _sparsetools.csr_has_canonical_format(m, a.indptr, a.indices):
            a._sum_duplicates()
        _sparsetools.csr_eliminate_zeros(m, n, a.indptr, a.indices, a.data)
        return a._pruned()

    def canonical(self) -> Csr:
        """self if each row's columns are distinct and ascending, else a copy made so.

        Entries in one place are added, as SciPy's sum_duplicates adds them.
        """
        if _sparsetools.csr_has_canonical_format(self.shape[0], self.indptr, self.indices):
            return self
        copy = Csr(self.data.copy(), self.indices.copy(), self.indptr.copy(), self.shape)
        copy._sum_duplicates()
        return copy._pruned()

    def _sum_duplicates(self) -> None:
        """Sort each row's columns, unless they are sorted already, and add repeated ones, in place.

        A sorted row is not sorted again: the sort is not stable, so it
        could reorder repeated columns and change their sum's rounding.
        """
        m, n = self.shape
        if not _sparsetools.csr_has_sorted_indices(m, self.indptr, self.indices):
            _sparsetools.csr_sort_indices(m, self.indptr, self.indices, self.data)
        _sparsetools.csr_sum_duplicates(m, n, self.indptr, self.indices, self.data)

    def _pruned(self) -> Csr:
        """self with data and indices cut to the entries indptr counts."""
        nnz = int(self.indptr[-1])
        self.data, self.indices = self.data[:nnz], self.indices[:nnz]
        return self

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        return _product(_sparsetools.csr_matvec, self, self.shape, v)

    @property
    def T(self) -> _Transpose:
        return _Transpose(self)


class _Transpose:
    """A Csr's transpose, for products: the same arrays read column-compressed."""

    __slots__ = ("csr", "shape")

    def __init__(self, csr: Csr):
        self.csr, self.shape = csr, csr.shape[::-1]

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        return _product(_sparsetools.csc_matvec, self.csr, self.shape, v)


def _product(kernel, a: Csr, shape: tuple[int, int], v) -> np.ndarray:
    """kernel's product of a's arrays, read as a `shape` matrix, and the vector v."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (shape[1],):  # the kernels read v unchecked
        raise ValueError(f"dimension mismatch: {shape} matrix times vector of shape {v.shape}")
    out = np.zeros(shape[0])
    kernel(shape[0], shape[1], a.indptr, a.indices, a.data, v, out)
    return out
