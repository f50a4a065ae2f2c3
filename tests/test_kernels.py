"""trimarket's CSR type, its kernels and its reverse Cuthill-McKee order against SciPy's.

trimarket._kernels loads SciPy's compiled LAPACK and sparsetools modules
without importing SciPy, and Csr calls the kernels SciPy's csr_matrix
calls; qp.reverse_cuthill_mckee is a port of SciPy's csgraph ordering.
Each is compared here, array for array and bit for bit, with what SciPy
itself gives on the same input.
"""

import importlib.machinery
import importlib.util
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import lapack
from scipy.sparse.csgraph import reverse_cuthill_mckee as scipy_rcm

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import trimarket.qp as qp  # noqa: E402
from trimarket import _kernels  # noqa: E402
from trimarket._kernels import Csr  # noqa: E402
from trimarket.model import default_config  # noqa: E402
from trimarket.scenarios import SynthSpec, synth_data  # noqa: E402

from _instances import build  # noqa: E402


def _same_arrays(got: Csr, want) -> bool:
    """got's data, indices and indptr are want's, dtype and bytes, and so is its shape."""
    return got.shape == want.shape and all(
        getattr(got, part).dtype == getattr(want, part).dtype
        and getattr(got, part).tobytes() == getattr(want, part).tobytes()
        for part in ("data", "indices", "indptr"))


def _week(horizon: int = 168):
    return build(default_config(horizon), synth_data(SynthSpec(seed=7, horizon=horizon)))[1]


# ---------------------------------------------------------------------------
# Csr


def test_assembled_blocks_are_scipys(monkeypatch):
    # a_eq and coup at T=168, built from their triplets, hold the arrays
    # SciPy's COO conversion and eliminate_zeros give; each product with
    # a vector and with the transpose is SciPy's, bit for bit
    triplets, real = [], Csr.from_coo.__func__

    def recorded(cls, data, rows, cols, shape):
        triplets.append((np.array(data), np.array(rows), np.array(cols), shape))
        return real(cls, data, rows, cols, shape)

    monkeypatch.setattr(Csr, "from_coo", classmethod(recorded))
    p = _week()
    assert len(triplets) == 2
    rng = np.random.default_rng(0)
    for got, (data, rows, cols, shape) in zip((p.a_eq, p.coup), triplets):
        want = sp.csr_matrix((data, (rows, cols)), shape=shape)
        want.eliminate_zeros()
        assert _same_arrays(got, want)
        for _ in range(3):
            x, y = rng.standard_normal(shape[1]), rng.standard_normal(shape[0])
            assert (got @ x).tobytes() == (want @ x).tobytes()
            assert (got.T @ y).tobytes() == (want.T @ y).tobytes()
    with pytest.raises(ValueError, match="dimension mismatch"):
        p.a_eq @ np.zeros(p.n + 1)
    with pytest.raises(ValueError, match="dimension mismatch"):
        p.a_eq.T @ np.zeros(p.n)
    # the kernels index unchecked, so an entry outside the shape is
    # refused before them, as SciPy refuses it
    with pytest.raises(ValueError, match="outside the 1 x 2 matrix"):
        Csr.from_coo([1.0], [0], [2], (1, 2))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(shape=st.tuples(st.integers(1, 8), st.integers(1, 8)), data=st.data())
# sorted rows that repeat a column: SciPy adds them as they stand, and its
# sort, which is not stable, would reorder a long row's repeats and so
# change the rounding of their sum
@example(shape=(1, 3), data=([0, 0, 0, 0], [0, 1, 1, 2], [1.0, 0.1, 0.2, 0.0]))
@example(shape=(1, 2), data=([0] * 24, [0] * 12 + [1] * 12,
                             ([1e16] + [1.0] * 10 + [-1e16]) * 2))
def test_coo_conversion_is_scipys(shape, data):
    # triplets with repeated places, entries that cancel and explicit
    # zeros: from_coo gives SciPy's arrays, and canonical() on the raw
    # CSR arrays gives what SciPy's sum_duplicates gives, in a copy
    m, n = shape
    if isinstance(data, tuple):
        rows, cols, vals = data
    else:
        k = data.draw(st.integers(0, 20))
        rows = data.draw(st.lists(st.integers(0, m - 1), min_size=k, max_size=k))
        cols = data.draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k))
        vals = data.draw(st.lists(st.sampled_from([0.0, 1.0, -1.0, 0.1, 0.2, 0.3, 1e-17, 3.0]),
                                  min_size=k, max_size=k))
    rows, cols, vals = np.array(rows, dtype=int), np.array(cols, dtype=int), np.array(vals)
    want = sp.csr_matrix((vals, (rows, cols)), shape=shape)
    want.eliminate_zeros()
    assert _same_arrays(Csr.from_coo(vals, rows, cols, shape), want)

    # the same entries in CSR form, each row in the triplets' order
    by_row = np.argsort(rows, kind="stable")
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=m))])
    raw = Csr(vals[by_row], cols[by_row], indptr, shape)
    was = [part.copy() for part in (raw.data, raw.indices, raw.indptr)]
    scipy_raw = sp.csr_matrix((vals[by_row], cols[by_row], indptr), shape=shape)
    canonical = scipy_raw.has_canonical_format
    scipy_raw.sum_duplicates()
    got = raw.canonical()
    assert _same_arrays(got, scipy_raw) and (got is raw) == canonical
    assert all(a.tobytes() == b.tobytes() for a, b in zip((raw.data, raw.indices, raw.indptr), was))


def test_a_missing_kernel_file_names_it(monkeypatch):
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".so"])
    with pytest.raises(ImportError, match=r"linalg/_no_such_kernels\.so was not found"):
        _kernels._load("linalg._no_such_kernels")
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
    with pytest.raises(ImportError, match="SciPy is not installed"):
        _kernels._load("linalg._no_such_kernels")


def test_lapack_routines_are_scipys():
    # the directly loaded routines are scipy.linalg.lapack's, the one
    # module SciPy adopts, and factor and solve a band matrix as its do
    for name in ("dpbtrf", "dtbtrs", "dgetrf", "dgetrs"):
        assert getattr(_kernels, name) is getattr(lapack, name)
    assert _kernels._load("linalg._flapack") is _kernels._flapack  # loaded once
    rng = np.random.default_rng(1)
    n, bw = 9, 2
    band = rng.uniform(-1.0, 1.0, (bw + 1, n))
    band[0] += 4.0  # diagonally dominant: positive definite
    rhs = rng.standard_normal(n)
    for routines in (_kernels, lapack):
        factor, info = routines.dpbtrf(band.copy(), lower=1)
        assert info == 0
        sweep = routines.dtbtrs(factor, rhs.copy(), uplo="L")[0]
        lu, piv, info = routines.dgetrf(np.outer(rhs[:2], rhs[:2]) + np.eye(2))
        got = (factor, sweep, lu, piv, routines.dgetrs(lu, piv, rhs[:2])[0])
        if routines is _kernels:
            first = got
    assert all(a.tobytes() == b.tobytes() for a, b in zip(first, got))
    # in a fresh interpreter trimarket loads the files first, and SciPy
    # then imports the same module objects
    script = ("import trimarket._kernels as k, scipy.linalg.lapack as l, "
              "scipy.sparse._sparsetools as s\n"
              "print(k.dpbtrf is l.dpbtrf, k._sparsetools is s)\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "True True\n"


# ---------------------------------------------------------------------------
# reverse Cuthill-McKee


def _scipy_order(rows, cols, n):
    """SciPy's order of the pattern's canonical CSR matrix, as the solver once made it."""
    pattern = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    return scipy_rcm(pattern, symmetric_mode=True)


def _assert_scipys_order(rows, cols, n):
    got, want = qp.reverse_cuthill_mckee(rows, cols, n), _scipy_order(rows, cols, n)
    assert got.dtype == want.dtype == np.int32
    np.testing.assert_array_equal(got, want)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(n=st.integers(1, 40), data=st.data())
def test_rcm_is_scipys_on_random_patterns(n, data):
    # random symmetric patterns, each edge stored twice or more in some
    # draws, the diagonal on none, some or all nodes: isolated nodes,
    # several components and many degree ties, where a port can drift
    k = data.draw(st.integers(0, 3 * n))
    ends = st.lists(st.integers(0, n - 1), min_size=k, max_size=k)
    i, j = np.array(data.draw(ends), dtype=int), np.array(data.draw(ends), dtype=int)
    diag = np.array(data.draw(st.sampled_from([[], list(range(n)),
                                               list(range(0, n, 3))])), dtype=int)
    repeat = data.draw(st.integers(1, 3))
    rows = np.concatenate([np.tile(np.concatenate([i, j]), repeat), diag])
    cols = np.concatenate([np.tile(np.concatenate([j, i]), repeat), diag])
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    perm = rng.permutation(len(rows))  # duplicates anywhere in the entry list
    _assert_scipys_order(rows[perm], cols[perm], n)


def test_rcm_small_and_disconnected_patterns():
    # one node, with and without its diagonal; isolated nodes between two
    # paths; and two components with equal degrees throughout
    for rows, cols, n in (([], [], 1), ([0], [0], 1), ([0, 1, 3, 4], [1, 0, 4, 3], 6),
                          ([0, 1, 1, 2, 3, 4, 4, 5], [1, 0, 2, 1, 4, 3, 5, 4], 6)):
        _assert_scipys_order(np.array(rows, dtype=int), np.array(cols, dtype=int), n)
    # n = 0: SciPy's ordering raises (the max of no degree), the port
    # returns the empty order
    empty = np.zeros(0, dtype=int)
    with pytest.raises(ValueError):
        _scipy_order(empty, empty, 0)
    assert qp.reverse_cuthill_mckee(empty, empty, 0).tolist() == []


@pytest.mark.parametrize("horizon", [24, 168, 672, 2688])
def test_rcm_is_scipys_on_the_solvers_patterns(monkeypatch, horizon):
    # the core of every pattern the solver orders: the week's (whose
    # polish refills it), the elastic LPs' of the diagnosis and, at
    # T=168, the one a warm start's polish builds, its first system
    seen, polishing, real, polish = [], [], qp.reverse_cuthill_mckee, qp._polish

    def recorded(rows, cols, n):
        seen.append((np.array(rows), np.array(cols), n, bool(polishing)))
        return real(rows, cols, n)

    def marked(*args):
        polishing.append(True)
        try:
            return polish(*args)
        finally:
            polishing.pop()

    monkeypatch.setattr(qp, "reverse_cuthill_mckee", recorded)
    monkeypatch.setattr(qp, "_polish", marked)
    p = _week(horizon)
    for problem in (p, qp._elastic(p, (0, 1), 0), qp._elastic(p, (), None)):
        qp._Pattern(qp._pattern_key(qp._presolve(problem)))
    if horizon == 168:
        base = qp.solve_qp(p)
        assert qp.solve_qp(p, start=base).iterations == 0
    assert [in_polish for *_, in_polish in seen] == (
        [False] * 3 + ([False, True] if horizon == 168 else []))
    monkeypatch.undo()
    for rows, cols, n, _ in seen:
        _assert_scipys_order(rows, cols, n)
