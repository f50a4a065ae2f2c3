"""SciPy's matrix API over trimarket's sparse matrices, for the tests that use it.

QpProblem.a_eq and .coup are trimarket's own CSR type (trimarket._kernels.Csr),
which has products and nothing else; a test that slices, densifies or
stacks one reads it through scipy_csr.
"""

import scipy.sparse as sp


def scipy_csr(m) -> sp.csr_matrix:
    """m's arrays in a SciPy csr_matrix, not copied; m a Csr or a SciPy sparse matrix."""
    if sp.issparse(m):
        return m.tocsr()
    return sp.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)
