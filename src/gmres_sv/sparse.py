"""Sparse CSR matrices, Matrix Market I/O, and built-in test-problem generators.

One Matrix Market reader serves matrices and vectors: a coordinate body
holds ``row col value`` lines, an array body one value per line, and both
follow the same token rules, with the first bad line named in the error.

All vectors and dense matrices in this package are plain ``numpy.ndarray``
objects with float64 entries; only the sparse coefficient matrix gets a
dedicated type.
"""

import io
import math
import warnings

import numpy as np

__all__ = [
    "CsrMatrix",
    "TripleIndexError",
    "MatrixMarketError",
    "MatrixMarketFormatError",
    "MatrixMarketParseError",
    "csr_from_coo",
    "spmv",
    "identity",
    "gen_laplacian_1d",
    "gen_bidiagonal",
    "read_matrix_market",
    "read_matrix_market_rhs",
]


class TripleIndexError(ValueError):
    """A coordinate triple lies outside the declared matrix shape."""

    def __init__(self, triple, n_rows, n_cols):
        self.triple = triple
        super().__init__(
            f"entry (row={triple[0]}, col={triple[1]}, value={triple[2]}) is outside "
            f"a {n_rows}x{n_cols} matrix"
        )


class MatrixMarketError(ValueError):
    """Base class for Matrix Market reader failures."""


class MatrixMarketFormatError(MatrixMarketError):
    """The file is valid Matrix Market but uses an unsupported qualifier."""


class MatrixMarketParseError(MatrixMarketError):
    """The file is malformed; ``line_no`` points at the offending line."""

    def __init__(self, line_no, message):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


# Above this ratio of diagonal slots to stored entries, spmv keeps the
# coordinate layout: a dense row or scattered columns would otherwise store
# one mostly empty diagonal per distinct offset. Measured on random
# 5-diagonal matrices with holes (2-core Xeon, one thread, best of 9), the
# DIA time over the bincount time at order 1000, where the per-diagonal call
# overhead dominates, is 0.55 at fill 1.0, 0.65 at 1.2, 0.87-1.06 at 1.5 and
# 1.15-1.2 at 2.3; at order 25600 it is 0.1 at 1.0, 0.35 at 1.5 and 0.5-0.7
# at 2.3. 1.5 is the lower crossover, so DIA never runs where it measured
# notably slower, and its value array stays within 12 B per stored entry
# against the 8 B of row indices the fallback keeps. Uniform rows with
# scattered columns, such as a permutation plus the diagonal, take bincount.
_DIA_MAX_FILL = 1.5


def _frozen(data, dtype):
    """A read-only copy of ``data``: no caller can write through to the matrix."""
    out = np.array(data, dtype=dtype)
    out.flags.writeable = False
    return out


class CsrMatrix:
    """Read-only sparse matrix in compressed sparse row form.

    Parameters
    ----------
    n_rows, n_cols : int
        Matrix shape.
    row_ptr : array of int, length ``n_rows + 1``
        Nondecreasing offsets into ``col_idx``/``values``; ``row_ptr[0] == 0``
        and ``row_ptr[-1] == nnz``.
    col_idx : array of int
        Column index of each stored entry, strictly increasing within a row.
    values : array of float
        Entry values; must all be finite.

    The constructor copies the three arrays and marks the copies, like every
    array it derives, read-only, so an instance cannot change after its
    checks and is safe to share across threads.

    For :func:`spmv` it also stores the matrix by diagonals ("DIA"): the
    distinct offsets ``col - row`` of the stored entries, ascending, and a
    ``(n_diags, n_rows)`` array whose row ``d`` holds diagonal ``d`` at each
    row's index, 0.0 where the row stores nothing on it or the diagonal
    leaves the matrix. Each diagonal keeps the slice of rows it meets, so no
    column index is read per product and a rectangular matrix needs no
    special case. When that array would exceed ``_DIA_MAX_FILL * nnz``
    slots, as a dense row or scattered columns cause, or when there is no
    entry, the instance keeps each entry's row index for a ``bincount``
    scatter instead.
    """

    __slots__ = ("n_rows", "n_cols", "row_ptr", "col_idx", "values", "_dia", "_coo_rows")

    def __init__(self, n_rows, n_cols, row_ptr, col_idx, values):
        n_rows = int(n_rows)
        n_cols = int(n_cols)
        row_ptr = _frozen(row_ptr, np.int64)
        col_idx = _frozen(col_idx, np.int64)
        values = _frozen(values, np.float64)
        if n_rows < 0 or n_cols < 0:
            raise ValueError("matrix shape must be nonnegative")
        if row_ptr.shape != (n_rows + 1,):
            raise ValueError(f"row_ptr must have length n_rows + 1 = {n_rows + 1}")
        if col_idx.shape != values.shape or col_idx.ndim != 1:
            raise ValueError("col_idx and values must be 1-d arrays of equal length")
        if row_ptr[0] != 0 or row_ptr[-1] != values.size:
            raise ValueError("row_ptr must start at 0 and end at nnz")
        lengths = np.diff(row_ptr)
        if np.any(lengths < 0):
            raise ValueError("row_ptr must be nondecreasing")
        if values.size:
            if col_idx.min() < 0 or col_idx.max() >= n_cols:
                raise ValueError("column indices out of range")
        rows = np.repeat(np.arange(n_rows, dtype=np.int64), lengths)
        if np.any((rows[1:] == rows[:-1]) & (col_idx[1:] <= col_idx[:-1])):
            raise ValueError("column indices must be strictly increasing within each row")
        if not np.all(np.isfinite(values)):
            raise ValueError("matrix values must be finite")
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.row_ptr = row_ptr
        self.col_idx = col_idx
        self.values = values
        self._dia = self._coo_rows = None
        # each entry's diagonal, counted from the lowest offset 1 - n_rows;
        # a count per diagonal avoids the sort and the copies of np.unique
        diag = col_idx - rows
        diag += n_rows - 1
        diags = np.flatnonzero(np.bincount(diag, minlength=n_rows + n_cols))
        if not values.size or diags.size * n_rows > _DIA_MAX_FILL * values.size:
            rows.flags.writeable = False
            self._coo_rows = rows
            return
        data = np.zeros((diags.size, n_rows))
        data[np.searchsorted(diags, diag), rows] = values
        data.flags.writeable = False
        # per diagonal: the rows it meets, their values and the matching x slice
        self._dia = tuple(
            (slice(lo, hi), vals[lo:hi], slice(lo + o, hi + o))
            for o, vals in zip((diags - (n_rows - 1)).tolist(), data)
            for lo, hi in [(max(0, -o), min(n_rows, n_cols - o))]
        )

    @property
    def shape(self):
        return (self.n_rows, self.n_cols)

    @property
    def nnz(self):
        return self.values.size

    def to_dense(self):
        """Return the matrix as a dense (n_rows, n_cols) array."""
        dense = np.zeros((self.n_rows, self.n_cols))
        dense[np.repeat(np.arange(self.n_rows), np.diff(self.row_ptr)), self.col_idx] = self.values
        return dense

    def __matmul__(self, x):
        return spmv(self, x)

    def __repr__(self):
        return f"CsrMatrix(shape={self.shape}, nnz={self.nnz})"


def _sum_duplicates(rows, cols, vals, n_rows, n_cols):
    """CSR arrays ``(row_ptr, cols, vals)`` of in-range triples, duplicates summed.

    A sum past the float range comes out as an infinity; the caller decides
    how to report it.
    """
    # A stable sort of the int64 key ``row * n_cols + col`` gives lexsort's
    # (row, col) permutation several times faster; the key needs the shape
    # to have fewer than 2**63 positions.
    if int(n_rows) * int(n_cols) >= 2**63:
        raise ValueError(f"shape {n_rows} x {n_cols} is too large for int64 coordinate keys")
    order = np.argsort(rows * n_cols + cols, kind="stable")
    rows, cols, vals = rows[order], cols[order], vals[order]
    first = np.ones(rows.size, dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    starts = np.flatnonzero(first)
    with np.errstate(over="ignore"):
        vals = np.add.reduceat(vals, starts)
    rows = rows[starts]
    cols = cols[starts]
    return np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n_rows)))), cols, vals


def csr_from_coo(triples, n_rows, n_cols):
    """Build a :class:`CsrMatrix` from coordinate triples.

    ``triples`` is either an iterable of ``(row, col, value)`` tuples or a
    3-tuple of parallel arrays. Duplicate coordinates are summed, rows are
    sorted, and the usual CSR invariants hold on the result.
    """
    if not (isinstance(triples, tuple) and len(triples) == 3 and np.ndim(triples[0]) == 1):
        triples = tuple(zip(*triples)) or ((), (), ())
    rows = np.asarray(triples[0], dtype=np.int64)
    cols = np.asarray(triples[1], dtype=np.int64)
    vals = np.asarray(triples[2], dtype=np.float64)
    bad = (rows < 0) | (rows >= n_rows) | (cols < 0) | (cols >= n_cols)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise TripleIndexError((int(rows[i]), int(cols[i]), float(vals[i])), n_rows, n_cols)
    return CsrMatrix(n_rows, n_cols, *_sum_duplicates(rows, cols, vals, n_rows, n_cols))


def spmv(A, x):
    """Sparse matrix-vector product ``A @ x``.

    On the diagonal layout each diagonal adds one contiguous slice product,
    in ascending offset order, which is each row's stored column order; so
    for finite ``x`` the product equals, value for value, the ``bincount``
    scatter that the coordinate fallback runs. A hole inside a diagonal
    multiplies 0.0 by an entry of ``x`` in a column that row does not store,
    so where ``x`` holds an infinity the diagonal product can read NaN where
    the scatter gives a finite value.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (A.n_cols,):
        raise ValueError(f"vector length {x.shape} does not match matrix shape {A.shape}")
    if A._dia is None:
        return np.bincount(A._coo_rows, weights=A.values * x[A.col_idx], minlength=A.n_rows)
    product = np.zeros(A.n_rows)
    for rows, vals, cols in A._dia:
        # an in-place add on the slice view; ``product[rows] += ...`` would also assign the slice back
        y = product[rows]
        y += vals * x[cols]
    return product


def _banded(n, diagonals):
    """Order-``n`` matrix from ``{offset: scalar or one value per row}``; entries off the matrix are dropped.

    Laid out row by row with the offsets ascending, the entries are in CSR
    order already, so they need no coordinate sort or duplicate pass.
    """
    if n < 1:
        raise ValueError("matrix order must be at least 1")
    offsets = sorted(diagonals)
    cols = np.arange(n)[:, None] + offsets
    inside = (cols >= 0) & (cols < n)
    vals = np.stack([np.broadcast_to(diagonals[o], n) for o in offsets], axis=1)
    return CsrMatrix(n, n, np.concatenate(([0], np.cumsum(inside.sum(axis=1)))), cols[inside], vals[inside])


def identity(n):
    """n x n identity matrix in CSR form."""
    return _banded(n, {0: 1.0})


def gen_laplacian_1d(n):
    """Symmetric tridiagonal matrix with 2 on the diagonal and -1 off it.

    The order-n matrix has eigenvalues ``2 * (1 - cos(k*pi/(n+1)))`` for
    ``k = 1..n``.
    """
    return _banded(n, {-1: -1.0, 0: 2.0, 1: -1.0})


def gen_bidiagonal(n, superdiag):
    """Upper bidiagonal matrix with diagonal 1, 2, ..., n and a constant superdiagonal."""
    return _banded(n, {0: np.arange(1.0, n + 1.0), 1: float(superdiag)})


def _open_source(source):
    """The stream to read and whether to close it; a non-seekable one is copied, for the error scans.

    A path is decoded as UTF-8, as a text stream usually is, and a byte that
    is not UTF-8 is escaped to a lone surrogate, so it reaches the token
    checks, which name its line, unless it sits in a comment.
    """
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        return open(source, "r", encoding="utf-8", errors="surrogateescape"), True
    if not source.seekable():
        source = io.StringIO(source.read())
    return source, False


def _read_banner(stream):
    fields = stream.readline().split()
    if not fields or fields[0].lower() != "%%matrixmarket":
        raise MatrixMarketParseError(1, "missing %%MatrixMarket banner")
    if len(fields) < 4:
        raise MatrixMarketParseError(1, "banner must name object, format and field")
    obj, fmt, field = (f.lower() for f in fields[1:4])
    symmetry = fields[4].lower() if len(fields) > 4 else "general"
    if obj != "matrix":
        raise MatrixMarketFormatError(f"unsupported object '{obj}'")
    return fmt, field, symmetry


def _data_lines(lines, line_no):
    """Yield (line_no, tokens) for the lines holding data, numbering from ``line_no + 1``.

    Text after ``%`` is a comment. A carriage return is allowed only at the
    end of a line, as ``np.loadtxt`` allows it. Tokens split at whitespace,
    Unicode's included, as ``np.loadtxt`` splits them, and a token must be
    ASCII.
    """
    for line_no, line in enumerate(lines, start=line_no + 1):
        body = line.removesuffix("\n").removesuffix("\r").split("%", 1)[0]
        if "\r" in body:
            raise MatrixMarketParseError(line_no, "carriage return inside a line")
        tokens = body.split()
        if not all(t.isascii() for t in tokens):
            raise MatrixMarketParseError(line_no, "non-ASCII character in a token")
        if tokens:
            yield line_no, tokens


def _read_size_line(stream, count):
    """Return the size line's number and ``count`` integers, read by ``readline`` to keep ``tell()``."""
    line_no, tokens = next(_data_lines(iter(stream.readline, ""), 1), (2, None))
    if tokens is None:
        raise MatrixMarketParseError(2, "missing size line")
    if len(tokens) != count:
        raise MatrixMarketParseError(line_no, f"expected {count} integers, got {len(tokens)} tokens")
    try:
        # int() takes digit separators; the body rules do not
        if any("_" in t for t in tokens):
            raise ValueError
        sizes = [int(t) for t in tokens]
    except ValueError:
        raise MatrixMarketParseError(line_no, f"could not parse integers from {tokens!r}") from None
    if min(sizes) < 0:
        raise MatrixMarketParseError(line_no, f"negative size in {tokens!r}")
    return line_no, sizes


_ENTRY = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])
_VALUE = np.dtype([("v", np.float64)])


def _entry_error(stream, line_no, n_rows, n_cols, nnz, kind, width):
    """Scan the body lines with the bulk parse's rules; return the error for the first bad one."""
    fields, what = ("'row col value'", "entries") if width == 3 else ("one value", "values")
    got = 0
    for line_no, tokens in _data_lines(stream, line_no):
        if got == nnz:
            return MatrixMarketParseError(line_no, f"more than the declared {nnz} {what}")
        if len(tokens) != width:
            return MatrixMarketParseError(line_no, f"expected {fields}, got {len(tokens)} tokens")
        try:
            # np.loadtxt takes no digit separators
            if any("_" in t for t in tokens):
                raise ValueError
            i, j = (int(tokens[0]), int(tokens[1])) if width == 3 else (got + 1, 1)
            v = float(tokens[-1])
        except ValueError:
            return MatrixMarketParseError(line_no, f"could not parse entry from {tokens!r}")
        if not (1 <= i <= n_rows and 1 <= j <= n_cols):
            return MatrixMarketParseError(line_no, f"entry ({i}, {j}) outside a {n_rows}x{n_cols} {kind}")
        if not math.isfinite(v):
            return MatrixMarketParseError(line_no, f"non-finite value {tokens[-1]!r}")
        got += 1
    return MatrixMarketParseError(line_no, f"declared {nnz} {what} but found {got}")


def _overflow_error(stream, line_no, i, j, symmetric):
    """The error for duplicates of 0-based ``(i, j)`` whose sum left the float range.

    Scans the entry lines that follow line ``line_no`` and names the first
    line at which the running sum over that coordinate's entries is no
    longer finite, or, should the reader's summation order differ from the
    file's, the coordinate's last line.
    """
    keys = {(i + 1, j + 1), (j + 1, i + 1)} if symmetric else {(i + 1, j + 1)}
    total = 0.0
    for line_no, tokens in _data_lines(stream, line_no):
        key = (int(tokens[0]), int(tokens[1]))
        if key in keys:
            total += float(tokens[2])
            found = line_no, key
            if not math.isfinite(total):
                break
    line_no, key = found
    return MatrixMarketParseError(line_no, f"entries at {key} sum past the float range")


def _read(source, kind):
    """Read a Matrix Market ``kind`` (``"matrix"`` or ``"vector"``) file.

    Returns ``(n_rows, n_cols, row_ptr, cols, vals)``, the CSR arrays of
    the entries with symmetric storage mirrored and duplicates summed.

    A coordinate body line holds ``row col value``, an array line the next
    value of the single column. One ``np.loadtxt`` pass parses the body and
    whole-array checks validate it; only when one of them fails is the body
    scanned again line by line to name the first bad line. From a path,
    numpy reads the file itself, in C chunks, past the header lines; a
    stream it iterates by line.
    """
    vector = kind == "vector"
    stream, owned = _open_source(source)
    try:
        fmt, field, symmetry = _read_banner(stream)
        if fmt not in (("array", "coordinate") if vector else ("coordinate",)):
            raise MatrixMarketFormatError(f"unsupported format '{fmt}' for a {'vector' if vector else 'sparse matrix'}")
        if field != "real":
            raise MatrixMarketFormatError(f"unsupported field '{field}'")
        if symmetry not in (("general",) if vector else ("general", "symmetric")):
            raise MatrixMarketFormatError(f"unsupported symmetry '{symmetry}'" + (" for a vector" if vector else ""))
        width = 3 if fmt == "coordinate" else 1
        line_no, sizes = _read_size_line(stream, 3 if width == 3 else 2)
        n_rows, n_cols, nnz = sizes if width == 3 else (*sizes, sizes[0] * sizes[1])
        if vector and n_cols != 1:
            raise MatrixMarketFormatError(f"expected a single column, got {n_cols}")
        offset = stream.tell()
        dtype = _ENTRY if width == 3 else _VALUE
        body, skip = (source, line_no) if owned else (stream, 0)
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                try:
                    entries = np.loadtxt(body, dtype=dtype, comments="%", skiprows=skip, ndmin=1, encoding="utf-8")
                except UnicodeDecodeError:
                    # numpy decodes the path strictly; the stream escapes the byte
                    stream.seek(offset)
                    entries = np.loadtxt(stream, dtype=dtype, comments="%", ndmin=1)
            vals = entries["v"]
            rows, cols = (entries["i"], entries["j"]) if width == 3 else (np.arange(1, nnz + 1), np.ones(nnz, np.int64))
            if entries.size != nnz or not np.isfinite(vals).all() or (nnz and not (
                min(rows.min(), cols.min()) >= 1 and rows.max() <= n_rows and cols.max() <= n_cols
            )):
                raise ValueError
        except ValueError:
            stream.seek(offset)
            raise _entry_error(stream, line_no, n_rows, n_cols, nnz, kind, width) from None
        rows -= 1
        cols -= 1
        if symmetry == "symmetric":
            off = rows != cols
            rows, cols, vals = (np.concatenate([a, b[off]]) for a, b in ((rows, cols), (cols, rows), (vals, vals)))
        row_ptr, cols, vals = _sum_duplicates(rows, cols, vals, n_rows, n_cols)
        bad = ~np.isfinite(vals)
        if bad.any():
            k = int(np.argmax(bad))
            stream.seek(offset)
            i = int(np.searchsorted(row_ptr, k, side="right")) - 1
            raise _overflow_error(stream, line_no, i, int(cols[k]), symmetry == "symmetric")
        return n_rows, n_cols, row_ptr, cols, vals
    finally:
        if owned:
            stream.close()


def read_matrix_market(source):
    """Read a Matrix Market coordinate file into a :class:`CsrMatrix`.

    Supports ``coordinate real`` files with ``general`` or ``symmetric``
    qualifiers; symmetric storage is expanded to full storage by mirroring
    off-diagonal entries. Indices are converted from 1-based to 0-based,
    duplicate entries are summed, and the body follows the same token rules
    as :func:`read_matrix_market_rhs`'s.
    """
    return CsrMatrix(*_read(source, "matrix"))


def read_matrix_market_rhs(source):
    """Read a Matrix Market vector file: ``array`` or single-column ``coordinate``, ``real general``.

    An array body holds one value per line. The body follows the same
    token rules as :func:`read_matrix_market`'s, and coordinate duplicates
    are summed. Returns a dense 1-d float array of the declared length.
    """
    n, _, row_ptr, _, vals = _read(source, "vector")
    b = np.zeros(n)
    b[np.diff(row_ptr) > 0] = vals
    return b
