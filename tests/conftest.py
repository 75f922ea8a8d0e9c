import contextlib
import warnings

import numpy as np

from gmres_sv.sparse import csr_from_coo

# Hypothesis's pytest plugin imports this module while it reports a failing
# property. Its libcst import raises a DeprecationWarning, which the
# `error::DeprecationWarning` filter would turn into an INTERNALERROR that
# hides the falsifying example, so import it once here with that warning off.
# libcst is optional, as it is to the plugin, which skips the module without it.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


def csr_from_dense(dense):
    """Exact CSR copy of a dense array (explicit zeros dropped)."""
    dense = np.asarray(dense, dtype=np.float64)
    rows, cols = np.nonzero(dense)
    return csr_from_coo((rows, cols, dense[rows, cols]), dense.shape[0], dense.shape[1])


def random_csr(rng, n_rows, n_cols, density=0.3, shift=0.0):
    """Random sparse matrix; ``shift`` adds to the diagonal (square only)."""
    dense = np.where(
        rng.random((n_rows, n_cols)) < density,
        rng.standard_normal((n_rows, n_cols)),
        0.0,
    )
    if shift:
        dense[np.arange(min(n_rows, n_cols)), np.arange(min(n_rows, n_cols))] += shift
    return csr_from_dense(dense), dense
