import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import csr_from_dense, random_csr
from gmres_sv.sparse import (
    CsrMatrix,
    MatrixMarketError,
    MatrixMarketFormatError,
    MatrixMarketParseError,
    TripleIndexError,
    csr_from_coo,
    gen_bidiagonal,
    gen_laplacian_1d,
    identity,
    read_matrix_market,
    read_matrix_market_rhs,
    _sum_duplicates,
    spmv,
)


def dense_by_accumulation(triples, n_rows, n_cols):
    """Independent oracle: accumulate triples straight into a dense array."""
    M = np.zeros((n_rows, n_cols))
    for i, j, v in triples:
        M[i, j] += v
    return M


class TestCsrFromCoo:
    def test_single_entry(self):
        A = csr_from_coo([(0, 0, 2.0)], 1, 1)
        assert A.shape == (1, 1)
        assert A.to_dense()[0, 0] == 2.0

    def test_duplicates_summed(self):
        A = csr_from_coo([(0, 0, 1.0), (0, 0, 1.0)], 1, 1)
        assert A.nnz == 1
        assert A.to_dense()[0, 0] == 2.0

    def test_random_triples_roundtrip(self):
        rng = np.random.default_rng(7)
        triples = [
            (int(rng.integers(0, 12)), int(rng.integers(0, 9)), float(rng.standard_normal()))
            for _ in range(100)
        ]
        A = csr_from_coo(triples, 12, 9)
        assert_allclose(A.to_dense(), dense_by_accumulation(triples, 12, 9), rtol=1e-13, atol=1e-14)

    def test_out_of_bounds_names_triple(self):
        with pytest.raises(TripleIndexError, match=r"row=3, col=0"):
            csr_from_coo([(0, 0, 1.0), (3, 0, 2.0)], 2, 2)

    @settings(deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 7), st.integers(1, 7), st.integers(0, 80))
    def test_keyed_sort_matches_lexsort(self, seed, n_rows, n_cols, nnz):
        # Few positions and values of mixed magnitude: any other summation
        # order of a duplicate run would change its rounded sum.
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, n_rows, nnz)
        cols = rng.integers(0, n_cols, nnz)
        vals = rng.standard_normal(nnz) * 10.0 ** rng.integers(-8, 9, nnz)
        order = np.lexsort((cols, rows))
        r, c, v = rows[order], cols[order], vals[order]
        first = np.ones(nnz, dtype=bool)
        first[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
        starts = np.flatnonzero(first)
        row_ptr = np.cumsum(np.r_[0, np.bincount(r[starts], minlength=n_rows)])
        expected = (row_ptr, c[starts], np.add.reduceat(v, starts) if nnz else v)
        for got, want in zip(_sum_duplicates(rows, cols, vals, n_rows, n_cols), expected):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_keys_near_the_int64_top_sort_by_row_then_column(self):
        n_cols = 2**62 - 1
        rows, cols = np.array([1, 0, 1]), np.array([n_cols - 1, n_cols - 1, 0])
        row_ptr, out_cols, vals = _sum_duplicates(rows, cols, np.array([1.0, 2.0, 3.0]), 2, n_cols)
        assert row_ptr.tolist() == [0, 1, 3]
        assert out_cols.tolist() == [n_cols - 1, 0, n_cols - 1]
        assert vals.tolist() == [2.0, 3.0, 1.0]

    def test_shape_past_int64_keys_rejected(self):
        one = np.zeros(1, dtype=np.int64)
        with pytest.raises(ValueError, match="too large for int64 coordinate keys"):
            _sum_duplicates(one, one, np.ones(1), 3, 2**62)

    def test_invariants_hold(self):
        rng = np.random.default_rng(3)
        A, _ = random_csr(rng, 20, 15)
        assert A.row_ptr[0] == 0
        assert A.row_ptr[-1] == A.nnz
        assert np.all(np.diff(A.row_ptr) >= 0)
        assert np.all(np.isfinite(A.values))


class TestSpmv:
    def test_identity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(5)
        assert_allclose(spmv(identity(5), x), x, rtol=0, atol=0)

    def test_laplacian_ones(self):
        y = spmv(gen_laplacian_1d(3), np.ones(3))
        assert_allclose(y, [1.0, 0.0, 1.0], atol=0)

    def test_random_against_dense_oracle(self):
        rng = np.random.default_rng(11)
        A, dense = random_csr(rng, 50, 50)
        x = rng.standard_normal(50)
        y = spmv(A, x)
        ref = dense @ x
        assert np.linalg.norm(y - ref) <= 1e-14 * np.linalg.norm(ref)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            spmv(identity(4), np.ones(5))

    @pytest.mark.parametrize("builder", ["coo", "laplacian", "bidiag", "mm"])
    def test_sparse_dense_consistency(self, builder):
        rng = np.random.default_rng(hash(builder) % 2**32)
        if builder == "coo":
            A, _ = random_csr(rng, 137, 137)
        elif builder == "laplacian":
            A = gen_laplacian_1d(137)
        elif builder == "bidiag":
            A = gen_bidiagonal(137, 0.3)
        else:
            text = "%%MatrixMarket matrix coordinate real general\n3 3 3\n1 1 2.0\n2 3 -1.5\n3 1 0.5\n"
            A = read_matrix_market(io.StringIO(text))
        dense = A.to_dense()
        for _ in range(5):
            x = rng.standard_normal(A.n_cols)
            x /= np.linalg.norm(x)
            y = spmv(A, x)
            ref = dense @ x
            assert np.linalg.norm(y - ref) <= 1e-14 * max(np.linalg.norm(ref), 1e-30)


def bincount_product(A, x):
    """Reference product: the coordinate scatter, one ``bincount`` over the stored entries."""
    rows = np.repeat(np.arange(A.n_rows), np.diff(A.row_ptr))
    return np.bincount(rows, weights=A.values * x[A.col_idx], minlength=A.n_rows)


def diagonal_arrays(A):
    """The stored offsets and the (n_diags, n_rows) value array behind the per-diagonal views."""
    offsets = [cols.start - rows.start for rows, _, cols in A._dia]
    data = A._dia[0][1].base
    assert all(vals.base is data for _, vals, _ in A._dia)
    return offsets, data


def takes_fallback(A):
    """Whether the matrix is empty or its diagonals hold more than 1.5 slots per entry."""
    rows = np.repeat(np.arange(A.n_rows), np.diff(A.row_ptr))
    return A.nnz == 0 or np.unique(A.col_idx - rows).size * A.n_rows > 1.5 * A.nnz


@st.composite
def sparse_systems(draw):
    """A random CSR matrix of any shape and a finite x.

    Half the cases are a few diagonals with some holes on a near-square
    shape, which mostly take the diagonal layout; the rest are scattered
    cells with empty rows and optionally one dense row, which mostly take
    the coordinate fallback.
    """
    banded = draw(st.booleans())
    n_rows = draw(st.integers(int(banded), 9))
    n_cols = max(1, n_rows + draw(st.integers(-2, 2))) if banded else draw(st.integers(1, 9))
    value = st.floats(-1e100, 1e100, allow_nan=False, width=64)
    if banded:
        offsets = draw(st.sets(st.integers(max(1 - n_rows, -2), min(n_cols - 1, 2)), min_size=1, max_size=3))
        band = sorted({(i, i + o) for o in offsets for i in range(n_rows) if 0 <= i + o < n_cols})
        cells = set(band) - draw(st.sets(st.sampled_from(band), max_size=len(band) // 4))
    else:
        cells = draw(st.sets(st.tuples(st.integers(0, max(n_rows - 1, 0)), st.integers(0, n_cols - 1)), max_size=30))
        if n_rows and draw(st.booleans()):
            dense_row = draw(st.integers(0, n_rows - 1))
            cells |= {(dense_row, j) for j in range(n_cols)}
    triples = [(i, j, draw(value)) for i, j in sorted(cells)] if n_rows else []
    x = np.array(draw(st.lists(value, min_size=n_cols, max_size=n_cols)))
    return csr_from_coo(triples, n_rows, n_cols), x


class TestSlotLayout:
    @settings(deadline=None, max_examples=300)
    @given(sparse_systems())
    def test_product_equals_bincount(self, case):
        A, x = case
        assert (A._dia is None) == takes_fallback(A)
        assert (A._coo_rows is None) != (A._dia is None)
        assert np.array_equal(spmv(A, x), bincount_product(A, x))

    def test_laplacian_takes_three_diagonals(self):
        A = gen_laplacian_1d(7)
        offsets, data = diagonal_arrays(A)
        assert offsets == [-1, 0, 1] and data.shape == (3, 7)
        assert A._coo_rows is None
        # the sub- and superdiagonal leave the matrix at row 0 and row 6
        assert data[0, 0] == 0.0 and data[2, 6] == 0.0
        assert np.all(data[0, 1:] == -1.0) and np.all(data[1] == 2.0) and np.all(data[2, :6] == -1.0)
        assert [(rows.start, rows.stop) for rows, _, _ in A._dia] == [(1, 7), (0, 7), (0, 6)]

    def test_rows_sum_in_stored_column_order(self):
        # 1 + 1e16 rounds to 1e16, so row 1 reads 0.0 in column order and
        # 1.0 in any order that adds the 1 last
        A = gen_laplacian_1d(3)
        x = np.array([-1.0, 0.5e16, 1e16])
        y = spmv(A, x)
        assert y[1] == 0.0 and np.array_equal(y, bincount_product(A, x))

    def test_rectangular_diagonal_cut_by_columns(self):
        # 4 x 3: row 3 meets the main diagonal at column 3, outside the matrix
        A = csr_from_coo([(0, 0, 1.0), (1, 0, 2.0), (1, 1, 3.0), (2, 1, 4.0), (2, 2, 5.0), (3, 2, 6.0)], 4, 3)
        offsets, data = diagonal_arrays(A)
        assert offsets == [-1, 0] and data.shape == (2, 4)
        spans = [(rows.start, rows.stop, cols.start, cols.stop) for rows, _, cols in A._dia]
        assert spans == [(1, 4, 0, 3), (0, 3, 0, 3)]
        assert data[0, 0] == 0.0 and data[1, 3] == 0.0
        x = np.array([1.0, 10.0, 100.0])
        assert np.array_equal(spmv(A, x), A.to_dense() @ x)

    def test_dense_row_falls_back_to_coordinates(self):
        n = 20
        triples = [(0, j, 1.0) for j in range(n)] + [(i, i, 2.0) for i in range(1, n)]
        A = csr_from_coo(triples, n, n)
        assert A._dia is None
        x = np.arange(1.0, n + 1.0)
        assert np.array_equal(spmv(A, x), A.to_dense() @ x)

    @pytest.mark.parametrize("n_rows, n_cols", [(0, 3), (3, 4), (4, 0)])
    def test_no_entries(self, n_rows, n_cols):
        A = csr_from_coo([], n_rows, n_cols)
        assert A._dia is None
        y = spmv(A, np.ones(n_cols))
        assert y.shape == (n_rows,) and not y.any()

    def test_empty_row_reads_zero(self):
        # tridiagonal 5 x 5 with row 2 left empty
        triples = [(i, j, 1.0 + i + 10 * j) for i in (0, 1, 3, 4) for j in (i - 1, i, i + 1) if 0 <= j < 5]
        A = csr_from_coo(triples, 5, 5)
        offsets, data = diagonal_arrays(A)
        assert offsets == [-1, 0, 1] and not data[:, 2].any()
        x = np.arange(1.0, 6.0)
        y = spmv(A, x)
        assert y[2] == 0.0 and np.array_equal(y, A.to_dense() @ x)


class TestReadOnly:
    @pytest.mark.parametrize("dense_row", [False, True])
    def test_every_array_rejects_writes(self, dense_row):
        triples = [(i, i, 1.0) for i in range(6)] + ([(0, j, 1.0) for j in range(1, 6)] if dense_row else [])
        A = csr_from_coo(triples, 6, 6)
        diagonals = [vals for _, vals, _ in A._dia] if A._dia else [A._coo_rows]
        arrays = [A.row_ptr, A.col_idx, A.values] + diagonals
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_constructor_copies_its_inputs(self):
        row_ptr = np.array([0, 1, 2])
        col_idx = np.array([0, 1])
        values = np.array([1.0, 2.0])
        A = CsrMatrix(2, 2, row_ptr, col_idx, values)
        values[0] = np.nan
        col_idx[1] = 0
        assert values.flags.writeable
        assert np.array_equal(A.to_dense(), np.diag([1.0, 2.0]))
        assert np.array_equal(spmv(A, np.ones(2)), [1.0, 2.0])


@st.composite
def column_rows(draw):
    """Column lists per row, some sorted and unique, some not, empty rows included."""
    n_cols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.tuples(st.lists(st.integers(0, n_cols - 1), max_size=4), st.booleans()), min_size=1, max_size=6))
    return n_cols, [sorted(set(cols)) if tidy else cols for cols, tidy in rows]


class TestConstructorChecks:
    @pytest.mark.parametrize(
        "args, message",
        [
            ((-1, 2, [0], [], []), "matrix shape must be nonnegative"),
            ((2, 2, [0, 0], [], []), "row_ptr must have length n_rows + 1 = 3"),
            ((1, 2, [0, 1], [0], [1.0, 2.0]), "col_idx and values must be 1-d arrays of equal length"),
            ((1, 2, [1, 1], [0], [1.0]), "row_ptr must start at 0 and end at nnz"),
            ((1, 2, [0, 2], [0], [1.0]), "row_ptr must start at 0 and end at nnz"),
            ((2, 2, [0, 2, 1], [0], [1.0]), "row_ptr must be nondecreasing"),
            ((1, 2, [0, 1], [2], [1.0]), "column indices out of range"),
            ((1, 2, [0, 1], [-1], [1.0]), "column indices out of range"),
            ((1, 3, [0, 2], [1, 1], [1.0, 2.0]), "column indices must be strictly increasing within each row"),
            ((1, 3, [0, 2], [2, 1], [1.0, 2.0]), "column indices must be strictly increasing within each row"),
            ((1, 2, [0, 1], [0], [np.nan]), "matrix values must be finite"),
        ],
    )
    def test_invalid_arrays_rejected(self, args, message):
        with pytest.raises(ValueError) as info:
            CsrMatrix(*args)
        assert str(info.value) == message

    @settings(max_examples=200, deadline=None)
    @given(column_rows())
    def test_row_order_rule_matches_a_per_row_loop(self, case):
        n_cols, rows = case
        ordered = all(a < b for cols in rows for a, b in zip(cols, cols[1:]))
        col_idx = np.array([c for cols in rows for c in cols], dtype=np.int64)
        args = (len(rows), n_cols, np.cumsum([0] + [len(cols) for cols in rows]), col_idx, np.ones(col_idx.size))
        if ordered:
            assert np.array_equal(CsrMatrix(*args).col_idx, col_idx)
        else:
            with pytest.raises(ValueError, match="strictly increasing within each row"):
                CsrMatrix(*args)


def sorted_triples(kind, n, superdiag):
    """The coordinate triples that each generator once sorted through ``csr_from_coo``."""
    idx = np.arange(n, dtype=np.int64)
    if kind == "identity":
        return idx, idx, np.ones(n)
    if kind == "laplacian":
        return (
            np.concatenate([idx, idx[1:], idx[:-1]]),
            np.concatenate([idx, idx[:-1], idx[1:]]),
            np.concatenate([2.0 * np.ones(n), -np.ones(n - 1), -np.ones(n - 1)]),
        )
    return (
        np.concatenate([idx, idx[:-1]]),
        np.concatenate([idx, idx[1:]]),
        np.concatenate([np.arange(1.0, n + 1.0), float(superdiag) * np.ones(n - 1)]),
    )


class TestGenerators:
    @pytest.mark.parametrize("n", [1, 2, 3, 1000])
    @pytest.mark.parametrize(
        "kind, superdiag", [("identity", None), ("laplacian", None), ("bidiagonal", 0.1), ("bidiagonal", -2.5)]
    )
    def test_band_layout_equals_sorted_triples(self, kind, superdiag, n):
        built = {"identity": identity, "laplacian": gen_laplacian_1d}.get(kind, lambda n: gen_bidiagonal(n, superdiag))(n)
        reference = csr_from_coo(sorted_triples(kind, n, superdiag), n, n)
        for name in ("row_ptr", "col_idx", "values"):
            got, want = getattr(built, name), getattr(reference, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_laplacian_order_one(self):
        assert_allclose(gen_laplacian_1d(1).to_dense(), [[2.0]], atol=0)

    def test_laplacian_rows(self):
        expected = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
        assert_allclose(gen_laplacian_1d(3).to_dense(), expected, atol=0)

    def test_laplacian_symmetric(self):
        dense = gen_laplacian_1d(60).to_dense()
        assert np.array_equal(dense, dense.T)

    def test_laplacian_eigenvalues_small_oracle(self):
        # dense symmetric eigensolver oracle at n=200
        n = 200
        computed = np.linalg.eigvalsh(gen_laplacian_1d(n).to_dense())
        k = np.arange(1, n + 1)
        formula = 2.0 * (1.0 - np.cos(k * np.pi / (n + 1)))
        assert np.max(np.abs(computed - formula)) <= 1e-10

    def test_laplacian_eigenvalue_extremes_formula(self):
        n = 1000
        computed = np.linalg.eigvalsh(gen_laplacian_1d(n).to_dense())
        lam = lambda k: 2.0 * (1.0 - np.cos(k * np.pi / (n + 1)))
        assert abs(computed[0] - lam(1)) <= 1e-10
        assert abs(computed[-1] - lam(n)) <= 1e-10

    def test_bidiagonal_order_one(self):
        assert_allclose(gen_bidiagonal(1, 0.1).to_dense(), [[1.0]], atol=0)

    def test_bidiagonal_rows(self):
        expected = np.array([[1.0, 0.1, 0.0], [0.0, 2.0, 0.1], [0.0, 0.0, 3.0]])
        assert_allclose(gen_bidiagonal(3, 0.1).to_dense(), expected, atol=0)

    def test_bidiagonal_diagonal_values(self):
        A = gen_bidiagonal(1000, 0.1)
        assert_allclose(np.diag(A.to_dense()), np.arange(1.0, 1001.0), atol=0)

    @pytest.mark.parametrize("gen", [gen_laplacian_1d, lambda n: gen_bidiagonal(n, 0.1), identity])
    def test_zero_order_rejected(self, gen):
        with pytest.raises(ValueError):
            gen(0)


GENERAL_2X2 = """%%MatrixMarket matrix coordinate real general
% a comment line
2 2 2
1 1 4.0
2 2 5.0
"""

SYMMETRIC_LOWER = """%%MatrixMarket matrix coordinate real symmetric
2 2 2
1 1 1.0
2 1 3.0
"""


BANNER = "%%MatrixMarket matrix coordinate real general\n"


class TestMatrixMarketRead:
    def test_general_file(self):
        A = read_matrix_market(io.StringIO(GENERAL_2X2))
        assert_allclose(A.to_dense(), np.diag([4.0, 5.0]), atol=0)

    def test_symmetric_expansion(self):
        A = read_matrix_market(io.StringIO(SYMMETRIC_LOWER))
        dense = A.to_dense()
        assert dense[1, 0] == 3.0
        assert dense[0, 1] == 3.0

    def test_symmetric_equals_expanded_general(self):
        rng = np.random.default_rng(5)
        n = 8
        lower = np.tril(rng.standard_normal((n, n)))
        lower[rng.random((n, n)) < 0.5] = 0.0
        np.fill_diagonal(lower, rng.standard_normal(n))
        sym_lines = [f"%%MatrixMarket matrix coordinate real symmetric"]
        gen_lines = [f"%%MatrixMarket matrix coordinate real general"]
        sym_entries = [(i, j, lower[i, j]) for i in range(n) for j in range(i + 1) if lower[i, j] != 0.0]
        gen_entries = list(sym_entries) + [(j, i, v) for i, j, v in sym_entries if i != j]
        sym_lines.append(f"{n} {n} {len(sym_entries)}")
        gen_lines.append(f"{n} {n} {len(gen_entries)}")
        sym_lines += [f"{i + 1} {j + 1} {float(v)!r}" for i, j, v in sym_entries]
        gen_lines += [f"{i + 1} {j + 1} {float(v)!r}" for i, j, v in gen_entries]
        A_sym = read_matrix_market(io.StringIO("\n".join(sym_lines) + "\n"))
        A_gen = read_matrix_market(io.StringIO("\n".join(gen_lines) + "\n"))
        assert np.array_equal(A_sym.to_dense(), A_gen.to_dense())

    @pytest.mark.parametrize("qualifier", ["complex", "pattern", "integer"])
    def test_unsupported_field(self, qualifier):
        text = f"%%MatrixMarket matrix coordinate {qualifier} general\n1 1 1\n1 1 1\n"
        with pytest.raises(MatrixMarketFormatError):
            read_matrix_market(io.StringIO(text))

    def test_array_matrix_unsupported(self):
        text = "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n"
        with pytest.raises(MatrixMarketFormatError):
            read_matrix_market(io.StringIO(text))

    def test_malformed_line_reports_number(self):
        text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 4.0\n1 oops 5.0\n"
        with pytest.raises(MatrixMarketParseError) as excinfo:
            read_matrix_market(io.StringIO(text))
        assert excinfo.value.line_no == 4
        assert "line 4" in str(excinfo.value)

    def test_entry_count_mismatch(self):
        text = "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 4.0\n2 2 5.0\n"
        with pytest.raises(MatrixMarketParseError, match="declared 3"):
            read_matrix_market(io.StringIO(text))

    def test_extra_entries_rejected(self):
        text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 4.0\n2 2 5.0\n"
        with pytest.raises(MatrixMarketParseError, match="more than the declared"):
            read_matrix_market(io.StringIO(text))

    def test_missing_banner(self):
        with pytest.raises(MatrixMarketParseError, match="banner"):
            read_matrix_market(io.StringIO("2 2 1\n1 1 4.0\n"))

    @pytest.mark.parametrize("size_line", ["-1 3 0", "3 -1 0", "3 3 -1"])
    def test_negative_size_named(self, size_line):
        text = BANNER + "% comment\n" + size_line + "\n"
        with pytest.raises(MatrixMarketParseError, match="negative size") as excinfo:
            read_matrix_market(io.StringIO(text))
        assert excinfo.value.line_no == 3

    @pytest.mark.parametrize(
        "read, text, message",
        [
            (
                read_matrix_market,
                "%%MatrixMarket matrix coordinate\n",
                "line 1: banner must name object, format and field",
            ),
            (read_matrix_market, "%%MatrixMarket vector coordinate real general\n", "unsupported object 'vector'"),
            (read_matrix_market, BANNER + "% no size\n", "line 2: missing size line"),
            (read_matrix_market, BANNER + "2 2\n", "line 2: expected 3 integers, got 2 tokens"),
            (
                read_matrix_market_rhs,
                "%%MatrixMarket matrix array real symmetric\n2 1\n1\n2\n",
                "unsupported symmetry 'symmetric' for a vector",
            ),
        ],
        ids=["short-banner", "vector-object", "no-size-line", "short-size-line", "symmetric-vector"],
    )
    def test_header_error_text(self, read, text, message):
        with pytest.raises(MatrixMarketError) as info:
            read(io.StringIO(text))
        assert str(info.value) == message

    def test_path_input(self, tmp_path):
        path = tmp_path / "tiny.mtx"
        path.write_text(GENERAL_2X2)
        A = read_matrix_market(str(path))
        assert A.nnz == 2


class TestMatrixMarketRhs:
    def test_array_vector(self):
        text = "%%MatrixMarket matrix array real general\n3 1\n1.0\n2.0\n3.0\n"
        assert_allclose(read_matrix_market_rhs(io.StringIO(text)), [1.0, 2.0, 3.0], atol=0)

    def test_coordinate_vector(self):
        text = "%%MatrixMarket matrix coordinate real general\n4 1 2\n1 1 5.0\n4 1 -1.0\n"
        assert_allclose(read_matrix_market_rhs(io.StringIO(text)), [5.0, 0.0, 0.0, -1.0], atol=0)

    def test_zero_length(self):
        text = "%%MatrixMarket matrix array real general\n0 1\n"
        assert read_matrix_market_rhs(io.StringIO(text)).size == 0

    def test_count_mismatch(self):
        text = "%%MatrixMarket matrix array real general\n3 1\n1.0\n2.0\n"
        with pytest.raises(MatrixMarketParseError, match="declared 3"):
            read_matrix_market_rhs(io.StringIO(text))

    def test_multicolumn_rejected(self):
        text = "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n"
        with pytest.raises(MatrixMarketFormatError, match="single column"):
            read_matrix_market_rhs(io.StringIO(text))

    def test_complex_rejected(self):
        text = "%%MatrixMarket matrix array complex general\n2 1\n1 0\n2 0\n"
        with pytest.raises(MatrixMarketFormatError):
            read_matrix_market_rhs(io.StringIO(text))


ARRAY_BANNER = "%%MatrixMarket matrix array real general\n"

# Lines the reader must skip anywhere in the body.
FILLER = ["% a comment line\n", "%\n", "\n", "   \n", "\t\n", "\r\n", "% crlf comment\r\n"]


class NonSeekableText(io.TextIOBase):
    """A text stream that can only be read forward, like a pipe."""

    def __init__(self, text):
        self._inner = io.StringIO(text)

    def readable(self):
        return True

    def read(self, size=-1):
        return self._inner.read(size)

    def readline(self, size=-1):
        return self._inner.readline(size)


@st.composite
def coordinate_files(draw):
    """A Matrix Market text with filler between entries, and the triples it holds (0-based)."""
    symmetric = draw(st.booleans())
    n_rows = draw(st.integers(1, 6))
    n_cols = n_rows if symmetric else draw(st.integers(1, 6))
    value = st.floats(allow_nan=False, allow_infinity=False, width=64)
    index = st.tuples(st.integers(0, n_rows - 1), st.integers(0, n_cols - 1))
    entries = draw(st.lists(st.tuples(index, value), max_size=15))
    # duplicates: repeat a drawn entry with a new value
    entries += [(entries[i][0], v) for i, v in draw(st.lists(st.tuples(st.integers(0, 14), value), max_size=3))
                if i < len(entries)]
    if symmetric:
        entries = [((max(i, j), min(i, j)), v) for (i, j), v in entries]
    gap = st.lists(st.sampled_from(FILLER), max_size=2).map("".join)
    space = st.sampled_from([" ", "\t", "  ", " \t "])
    lines = [BANNER.replace("general", "symmetric") if symmetric else BANNER, draw(gap)]
    lines.append(f"{n_rows} {n_cols} {len(entries)}\n")
    for (i, j), v in entries:
        lines.append(draw(gap))
        fields = draw(space).join([str(i + 1), str(j + 1), repr(v)])
        tail = draw(st.sampled_from(["", " ", "\t", " % trailing comment"]))
        lines.append(draw(st.sampled_from(["", " ", "\t"])) + fields + tail + draw(st.sampled_from(["\n", "\r\n"])))
    lines.append(draw(gap))
    triples = [(i, j, v) for (i, j), v in entries]
    if symmetric:
        triples += [(j, i, v) for i, j, v in triples if i != j]
    return "".join(lines), triples, n_rows, n_cols


BAD_LINES = [
    ("1 2\n", "expected 'row col value', got 2 tokens"),
    ("1 2 3.0 4\n", "expected 'row col value', got 4 tokens"),
    ("1.5 2 3.0\n", "could not parse entry"),
    ("1 1e0 3.0\n", "could not parse entry"),
    ("1_0 2 3.0\n", "could not parse entry"),
    ("1 2 three\n", "could not parse entry"),
    ("3 1 3.0\n", r"entry \(3, 1\) outside a 2x2 matrix"),
    ("0 1 3.0\n", r"entry \(0, 1\) outside a 2x2 matrix"),
    ("1 2 nan\n", "non-finite value 'nan'"),
    ("1 2 -inf\n", "non-finite value '-inf'"),
    ("1 2 1e400\n", "non-finite value '1e400'"),
    ("1 2 3.0\r 4\n", "carriage return inside a line"),
]


class TestMatrixMarketBulkRead:
    @settings(deadline=None)
    @given(coordinate_files())
    def test_matches_csr_from_coo(self, case):
        text, triples, n_rows, n_cols = case
        try:
            expected = csr_from_coo(triples, n_rows, n_cols)
        except ValueError:  # summed duplicates overflowed
            with pytest.raises(MatrixMarketParseError, match="sum past the float range") as excinfo:
                read_matrix_market(io.StringIO(text))
            assert 3 <= excinfo.value.line_no <= text.count("\n")
            return
        A = read_matrix_market(io.StringIO(text))
        assert A.shape == expected.shape
        assert np.array_equal(A.row_ptr, expected.row_ptr)
        assert np.array_equal(A.col_idx, expected.col_idx)
        assert np.array_equal(A.values, expected.values)

    @settings(deadline=None)
    @given(st.lists(st.sampled_from(["1", "2", "0", "3", "1.5", "1e0", "1_0", "nan", "-inf", "2.5", "%", "x"])
                    .map(lambda t: t + " ") | st.sampled_from(["\n", "\r\n", "\r", "\t"]), max_size=20))
    def test_any_body_parses_or_names_a_line(self, pieces):
        text = BANNER + "2 2 2\n" + "".join(pieces)
        try:
            A = read_matrix_market(io.StringIO(text))
        except MatrixMarketParseError as exc:
            assert 2 <= exc.line_no <= text.count("\n") + 1
            assert "declared 2 entries but found 2" not in str(exc)
        else:
            assert A.shape == (2, 2)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("body", ["", "% nothing here\n\n  \n%\n"])
    def test_empty_body_reads_as_empty_matrix(self, body):
        A = read_matrix_market(io.StringIO(BANNER + "% before the size line\n3 2 0\n" + body))
        assert A.shape == (3, 2)
        assert A.nnz == 0

    @pytest.mark.filterwarnings("error")
    def test_comment_only_body_with_entries_declared(self):
        with pytest.raises(MatrixMarketParseError, match="declared 2 entries but found 0") as excinfo:
            read_matrix_market(io.StringIO(BANNER + "2 2 2\n% nothing here\n\n"))
        assert excinfo.value.line_no == 2

    @pytest.mark.parametrize("bad_line, match", BAD_LINES)
    def test_bad_line_is_named(self, bad_line, match):
        text = BANNER + "2 2 2\n1 1 1.0\n% a comment block\n%\n\n" + bad_line + "2 2 2.0\n"
        with pytest.raises(MatrixMarketParseError, match=match) as excinfo:
            read_matrix_market(io.StringIO(text))
        assert excinfo.value.line_no == 7

    # a file is read with universal newlines, where a lone carriage return ends the line
    @pytest.mark.parametrize("bad_line, match", [case for case in BAD_LINES if "\r" not in case[0]])
    def test_bad_line_in_a_file_is_named(self, tmp_path, bad_line, match):
        path = tmp_path / "bad.mtx"
        path.write_text(BANNER + "2 2 2\n1 1 1.0\n% a comment block\n%\n\n" + bad_line + "2 2 2.0\n")
        with pytest.raises(MatrixMarketParseError, match=match) as excinfo:
            read_matrix_market(path)
        assert excinfo.value.line_no == 7

    def test_too_many_entries_named(self):
        text = BANNER + "2 2 1\n1 1 1.0\n% a comment block\n\n2 2 2.0\n"
        with pytest.raises(MatrixMarketParseError, match="more than the declared 1 entries") as excinfo:
            read_matrix_market(io.StringIO(text))
        assert excinfo.value.line_no == 6

    def test_first_bad_line_wins(self):
        text = BANNER + "2 2 2\n% comment\n1 1 inf\n1 5 1.0\n"
        with pytest.raises(MatrixMarketParseError, match="non-finite") as excinfo:
            read_matrix_market(io.StringIO(text))
        assert excinfo.value.line_no == 4

    def test_non_seekable_stream(self):
        A = read_matrix_market(NonSeekableText(GENERAL_2X2))
        assert_allclose(A.to_dense(), np.diag([4.0, 5.0]), atol=0)
        text = BANNER + "2 2 2\n1 1 1.0\n% comment\n2 3 1.0\n"
        with pytest.raises(MatrixMarketParseError, match=r"entry \(2, 3\)") as excinfo:
            read_matrix_market(NonSeekableText(text))
        assert excinfo.value.line_no == 5

    @pytest.mark.parametrize("symmetry, i, j", [("general", 1, 1), ("symmetric", 2, 1)])
    def test_overflowing_duplicates_name_the_second_line(self, symmetry, i, j):
        # the running sum leaves the range at the second entry and stays out
        body = f"2 2 4\n{i} {j} 1e308\n% comment\n2 2 1.0\n%\n{i} {j} 1e308\n{i} {j} 1.0\n"
        text = BANNER.replace("general", symmetry) + body
        with pytest.raises(MatrixMarketParseError, match=rf"entries at \({i}, {j}\) sum past") as excinfo:
            read_matrix_market(io.StringIO(text))
        assert excinfo.value.line_no == 7

    def test_path_with_crlf_and_comments(self, tmp_path):
        path = tmp_path / "crlf.mtx"
        path.write_bytes(b"%%MatrixMarket matrix coordinate real symmetric\r\n% c\r\n2 2 2\r\n1 1 4.0\r\n% c\r\n2 1 3.0\r\n")
        assert_allclose(read_matrix_market(path).to_dense(), [[4.0, 3.0], [3.0, 0.0]], atol=0)


class TestMatrixMarketRhsEntries:
    def test_coordinate_duplicates_summed(self):
        text = BANNER + "3 1 3\n2 1 1.5\n% comment\n2 1 2.0\n3 1 -1.0\n"
        assert_allclose(read_matrix_market_rhs(io.StringIO(text)), [0.0, 3.5, -1.0], atol=0)

    def test_coordinate_out_of_range_named(self):
        text = BANNER + "3 1 2\n1 1 1.0\n% comment\n2 2 1.0\n"
        with pytest.raises(MatrixMarketParseError, match=r"entry \(2, 2\) outside a 3x1 vector") as excinfo:
            read_matrix_market_rhs(io.StringIO(text))
        assert excinfo.value.line_no == 5

    @pytest.mark.parametrize(
        "good, bad, match",
        [
            (
                BANNER + "% 1 1 9.0\n3 1 3\n2 1 1.5\n% comment\n2 1 2.0\n3 1 -1.0\n",
                BANNER + "% 1 1 9.0\n3 1 2\n1 1 1.0\n% comment\n2 2 1.0\n",
                r"entry \(2, 2\) outside a 3x1 vector",
            ),
            (
                ARRAY_BANNER + "% 9.0\n3 1\n0.0\n% comment\n3.5\n-1.0\n",
                ARRAY_BANNER + "% 9.0\n3 1\n1.0\n% comment\n2.0 1.0\n",
                "expected one value, got 2 tokens",
            ),
        ],
        ids=["coordinate", "array"],
    )
    def test_coordinate_file_read_past_its_header(self, tmp_path, good, bad, match):
        path = tmp_path / "rhs.mtx"
        path.write_text(good)
        assert_allclose(read_matrix_market_rhs(path), [0.0, 3.5, -1.0], atol=0)
        path.write_text(bad)
        with pytest.raises(MatrixMarketParseError, match=match) as excinfo:
            read_matrix_market_rhs(path)
        assert excinfo.value.line_no == 6

    @pytest.mark.parametrize(
        "text",
        [
            BANNER + "3 1 2\n1 1 1.0\n% comment\n%\n2 1 nan\n",
            ARRAY_BANNER + "3 1\n1.0\n% comment\n%\ninf\n2.0\n",
        ],
    )
    def test_non_finite_value_named(self, text):
        with pytest.raises(MatrixMarketParseError, match="non-finite value") as excinfo:
            read_matrix_market_rhs(io.StringIO(text))
        assert excinfo.value.line_no == 6

    @pytest.mark.filterwarnings("error")
    def test_coordinate_empty_body(self):
        text = BANNER + "3 1 0\n% nothing\n"
        assert_allclose(read_matrix_market_rhs(io.StringIO(text)), np.zeros(3), atol=0)

    def test_overflowing_duplicates_name_the_second_line(self):
        text = BANNER + "3 1 3\n2 1 1.5e308\n% comment\n1 1 1.0\n2 1 1.5e308\n"
        with pytest.raises(MatrixMarketParseError, match=r"entries at \(2, 1\) sum past the float range") as excinfo:
            read_matrix_market_rhs(NonSeekableText(text))
        assert excinfo.value.line_no == 6

    @pytest.mark.parametrize(
        "text", [ARRAY_BANNER + "-1 1\n", ARRAY_BANNER + "2 -1\n", BANNER + "-1 1 0\n", BANNER + "2 1 -1\n"]
    )
    def test_negative_size_named(self, text):
        with pytest.raises(MatrixMarketParseError, match="negative size") as excinfo:
            read_matrix_market_rhs(io.StringIO(text))
        assert excinfo.value.line_no == 2

    @pytest.mark.parametrize(
        "text", [BANNER + "2 1 1\n% comment\n2 1 7.0\n", ARRAY_BANNER + "2 1\n% comment\n0.0\n7.0\n"],
        ids=["coordinate", "array"],
    )
    def test_non_seekable_coordinate_vector(self, text):
        assert_allclose(read_matrix_market_rhs(NonSeekableText(text)), [0.0, 7.0], atol=0)

    def test_array_line_with_two_values_named(self):
        text = ARRAY_BANNER + "3 1\n1.0\n2.0 3.0\n"
        with pytest.raises(MatrixMarketParseError, match="expected one value, got 2 tokens") as excinfo:
            read_matrix_market_rhs(io.StringIO(text))
        assert excinfo.value.line_no == 4


# A value token and what every body reads it as; None: an error naming its line.
VALUE_TOKENS = [
    ("1.5", 1.5),
    ("-0.0", -0.0),
    (".5", 0.5),
    ("1.", 1.0),
    ("+2e3", 2000.0),
    ("1_0", None),
    ("\u0661", None),
    ("nan", None),
    ("1e400", None),
]


@pytest.mark.parametrize("token, value", VALUE_TOKENS)
@pytest.mark.parametrize(
    "read, text",
    [
        (read_matrix_market_rhs, ARRAY_BANNER + "2 1\n% comment\n1.0\n{}\n"),
        (read_matrix_market_rhs, BANNER + "2 1 2\n% comment\n1 1 1.0\n2 1 {}\n"),
        (lambda f: read_matrix_market(f).to_dense().ravel(), BANNER + "2 1 2\n% comment\n1 1 1.0\n2 1 {}\n"),
    ],
    ids=["array", "coordinate-vector", "coordinate-matrix"],
)
def test_every_body_reads_a_value_token_alike(read, text, token, value):
    source = io.StringIO(text.format(token))
    if value is None:
        with pytest.raises(MatrixMarketParseError) as excinfo:
            read(source)
        assert excinfo.value.line_no == 5
    else:
        assert read(source).tobytes() == np.array([1.0, value]).tobytes()


def read_outcome(read, source):
    """What a reader gives for ``source``: its result's bytes, or a parse error's line and text."""
    try:
        return "read", read(source).tobytes()
    except MatrixMarketParseError as exc:
        return exc.line_no, str(exc)


def dense_matrix(source):
    return read_matrix_market(source).to_dense()


class TestNonAsciiBytes:
    @pytest.mark.parametrize("from_path", [True, False], ids=["path", "stream"])
    @pytest.mark.parametrize(
        "read, text, line_no",
        [
            (read_matrix_market_rhs, ARRAY_BANNER + "3 1\n1.0\n% comment\n٣.5\n2.0\n", 5),
            (dense_matrix, BANNER + "2 2 2\n1 1 1.0\n% comment\n2 2 ٣.5\n", 5),
            (dense_matrix, BANNER + "2 2 2\n1 1 1.0\n% comment\n٢ 2 3.5\n", 5),
            (read_matrix_market_rhs, ARRAY_BANNER + "٣ 1\n1.0\n2.0\n3.0\n", 2),
        ],
        ids=["array-value", "coordinate-value", "coordinate-index", "size-line"],
    )
    def test_non_ascii_digit_names_its_line(self, tmp_path, from_path, read, text, line_no):
        path = tmp_path / "digit.mtx"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(MatrixMarketParseError, match="non-ASCII character in a token") as excinfo:
            read(path if from_path else io.StringIO(text))
        assert excinfo.value.line_no == line_no

    @pytest.mark.parametrize("from_path", [True, False], ids=["path", "stream"])
    def test_non_ascii_comment_is_accepted(self, tmp_path, from_path):
        text = BANNER.replace("general", "general % café") + "% ٣\n2 2 2\n1 1 1.0 % é\n% \ufeff\n2 2 2.0\n"
        path = tmp_path / "comment.mtx"
        path.write_text(text, encoding="utf-8")
        assert_allclose(dense_matrix(path if from_path else io.StringIO(text)), np.diag([1.0, 2.0]), atol=0)

    @pytest.mark.parametrize("from_path", [True, False], ids=["path", "stream"])
    @pytest.mark.parametrize(
        "raw, error",
        [
            (BANNER.encode() + b"2 2 2\n1\xc2\xa01 1.0\n2 2 2.0\n", None),
            (
                "%%MatrixMarket matrix coördinate real general\n".encode(),
                "unsupported format 'coördinate' for a sparse matrix",
            ),
            (BANNER.encode() + b"% caf\xe9\n2 2 2\n1 1 1.0\n2 2 2.0\n", None),
            (BANNER.encode() + b"2 2 2\n1 1 1.0\n2 2 2.\xf60\n", "line 4: non-ASCII character in a token"),
            (BANNER.encode() + b"2 2 2\xf6\n1 1 1.0\n2 2 2.0\n", "line 2: non-ASCII character in a token"),
        ],
        ids=["utf8-no-break-space", "utf8-banner", "latin1-comment", "latin1-value", "latin1-size-line"],
    )
    def test_path_decodes_as_its_utf8_stream(self, tmp_path, from_path, raw, error):
        # a byte that is not UTF-8 reaches the reader as an escaped surrogate
        path = tmp_path / "encoded.mtx"
        path.write_bytes(raw)
        source = path if from_path else io.StringIO(raw.decode("utf-8", "surrogateescape"))
        if error is None:
            assert_allclose(dense_matrix(source), np.diag([1.0, 2.0]), atol=0)
        else:
            with pytest.raises((MatrixMarketParseError, MatrixMarketFormatError), match=f"^{re.escape(error)}$"):
                dense_matrix(source)

    def test_digit_separator_in_the_size_line_named(self):
        with pytest.raises(MatrixMarketParseError, match="could not parse integers") as excinfo:
            read_matrix_market_rhs(io.StringIO(ARRAY_BANNER + "1_0 1\n"))
        assert excinfo.value.line_no == 2


FAULTS = [
    "non-ASCII digit",
    "non-ASCII comment",
    "non-ASCII space",
    "extra token",
    "index 1e0",
    "digit separator",
    "missing line",
]


@st.composite
def faulty_files(draw):
    """A small coordinate-matrix or array-vector text with one fault drawn from ``FAULTS``, and its reader."""
    n = draw(st.integers(1, 4))
    value = st.floats(-1e3, 1e3, allow_nan=False).map(repr)
    if draw(st.booleans()):
        read, lines = read_matrix_market_rhs, [ARRAY_BANNER, f"{n} 1"] + [draw(value) for _ in range(n)]
    else:
        entries = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n), value), min_size=1, max_size=6))
        read, lines = dense_matrix, [BANNER, f"{n} {n} {len(entries)}"] + [f"{i} {j} {v}" for i, j, v in entries]
    at = draw(st.integers(2, len(lines) - 1))
    tokens = lines[at].split()
    which = draw(st.integers(0, len(tokens) - 1))
    fault = draw(st.sampled_from(FAULTS))
    if fault == "non-ASCII digit":
        pos = draw(st.integers(0, len(tokens[which]) - 1))
        digit = draw(st.sampled_from("١٣१１"))
        tokens[which] = tokens[which][:pos] + digit + tokens[which][pos + 1 :]
    elif fault == "non-ASCII space":
        tokens[which] = "\u00a0" + tokens[which]
    elif fault == "extra token":
        tokens.append("1")
    elif fault == "index 1e0":
        tokens[min(which, 1)] = "1e0"
    elif fault == "digit separator":
        tokens[which] = "1_0"
    lines[at] = " ".join(tokens)
    if fault == "non-ASCII comment":
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(["% café", "%٣", "% \ufeff"])))
    elif fault == "missing line":
        del lines[at]
    return lines[0] + "\n".join(lines[1:]) + "\n", read


@settings(deadline=None)
@given(faulty_files())
def test_path_and_stream_agree_on_a_faulty_file(tmp_path_factory, case):
    text, read = case
    path = tmp_path_factory.getbasetemp() / "faulty.mtx"
    path.write_text(text, encoding="utf-8")
    assert read_outcome(read, path) == read_outcome(read, io.StringIO(text))
