from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st
from page_oracle import kernel_basis

from stringhom.exactlin import RowReducer, SparseMatrix, homology_dims


def M(rows):
    return SparseMatrix(
        len(rows), len(rows[0]), {(i, j): v for i, r in enumerate(rows) for j, v in enumerate(r)}
    )


def identity(n):
    return SparseMatrix(n, n, {(i, i): 1 for i in range(n)})


def transpose(m):
    return SparseMatrix(m.cols, m.rows, {(j, i): v for (i, j), v in m.entries.items()})


def reducer(m):
    red = RowReducer()
    for row in m.row_dicts():
        red.add(row)
    return red


def rref(m):
    """Reduced row echelon form and pivot columns, through one ``RowReducer``."""
    red = reducer(m)
    rows = red.reduced_rows()
    entries = {(i, j): v for i, row in enumerate(rows) for j, v in row.items()}
    return SparseMatrix(len(rows), m.cols, entries), red.pivot_columns()


def rank(m):
    return reducer(m).rank


fractions = st.fractions(min_value=-30, max_value=30, max_denominator=12)


@st.composite
def matrices(draw, max_dim=6):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    entries = {}
    for i in range(rows):
        for j in range(cols):
            if draw(st.booleans()):
                v = draw(fractions)
                if v:
                    entries[(i, j)] = v
    return SparseMatrix(rows, cols, entries)


class TestRref:
    def test_rank_one_dependency(self):
        reduced, pivots = rref(M([[1, 2], [2, 4]]))
        assert reduced == M([[1, 2]])
        assert pivots == [0]

    def test_permutation(self):
        reduced, pivots = rref(M([[0, 1], [1, 0]]))
        assert reduced == identity(2)
        assert pivots == [0, 1]

    def test_fractional_elimination(self):
        # Hand Gaussian elimination: the second row is half the first.
        reduced, pivots = rref(
            M([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]])
        )
        assert reduced == M([[1, Fraction(2, 3)]])
        assert pivots == [0]

    @given(matrices())
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, m):
        r1, p1 = rref(m)
        r2, p2 = rref(r1)
        assert r1 == r2
        assert p1 == p2

    @given(matrices())
    @settings(max_examples=60, deadline=None)
    def test_row_space_preserved(self, m):
        reduced, _ = rref(m)
        fwd = RowReducer()
        for row in m.row_dicts():
            fwd.add(row)
        for row in reduced.row_dicts():
            assert fwd.contains(row)
        back = RowReducer()
        for row in reduced.row_dicts():
            back.add(row)
        for row in m.row_dicts():
            assert back.contains(row)


int_rows = st.lists(
    st.dictionaries(st.integers(0, 7), st.integers(-4, 4).filter(bool), min_size=1, max_size=5),
    min_size=1,
    max_size=10,
)


class TestIntegerRows:
    """``int`` entries stay ``int``; results equal those of the same rows as Fraction."""

    @given(int_rows)
    @example([{0: 2, 1: 1}, {0: -3, 2: 1}, {1: 2, 2: -3}])
    @example([{3: -3, 5: 2}, {3: 2, 4: -3}, {4: 2, 5: 1}, {5: -3}])
    @settings(max_examples=150, deadline=None)
    def test_int_rows_match_fraction_rows(self, rows):
        ints, fracs = RowReducer(), RowReducer()
        for row in rows:
            assert ints.add(row) == fracs.add({c: Fraction(v) for c, v in row.items()})
        assert ints.rank == fracs.rank
        assert ints.pivot_columns() == fracs.pivot_columns()
        assert ints.reduced_rows() == fracs.reduced_rows()
        for row in rows:
            assert ints.contains(row)

    def test_unit_leads_create_no_fraction(self):
        red = RowReducer()
        for row in ({0: -1, 1: 2, 3: 5}, {0: 1, 1: -1}, {2: -1, 3: 4}, {1: 1, 2: 1}):
            red.add(row)
        assert red.rank == 4
        assert all(type(v) is int for row in red.pivots.values() for v in row.values())
        assert all(type(v) is int for row in red.reduced_rows() for v in row.values())

    def test_sparse_matrix_keeps_int_entries(self):
        m = M([[1, Fraction(1, 2)], [0, -2]])
        assert [type(m.entries[k]) for k in ((0, 0), (0, 1), (1, 1))] == [int, Fraction, int]
        assert type(SparseMatrix(1, 1, {(0, 0): "3"}).entries[(0, 0)]) is Fraction
        assert m @ m == M([[1, Fraction(-1, 2)], [0, 4]])

    def test_non_unit_lead_divides_exactly(self):
        red = RowReducer()
        red.add({0: -3, 1: 2})
        assert red.pivots[0] == {0: 1, 1: Fraction(-2, 3)}


class TestRank:
    def test_zero(self):
        assert rank(SparseMatrix(3, 3)) == 0

    def test_identity(self):
        assert rank(identity(4)) == 4

    def test_proportional_rows(self):
        assert rank(M([[1, 2], [2, 4], [3, 6]])) == 1

    @given(matrices())
    @settings(max_examples=60, deadline=None)
    def test_transpose_invariant(self, m):
        assert rank(m) == rank(transpose(m))


class TestKernel:
    def test_identity_kernel_empty(self):
        assert kernel_basis(identity(2)).dim == 0

    def test_line(self):
        ker = kernel_basis(M([[1, 1]]))
        assert ker.dim == 1
        assert ker.basis == [{0: Fraction(1), 1: Fraction(-1)}]

    def test_rank_nullity_example(self):
        assert kernel_basis(M([[1, 2, 3]])).dim == 2

    @given(matrices())
    @settings(max_examples=60, deadline=None)
    def test_rank_nullity(self, m):
        ker = kernel_basis(m)
        assert ker.dim + rank(m) == m.cols
        for vec in ker.basis:
            assert all(sum(v * vec.get(j, 0) for j, v in row.items()) == 0 for row in m.row_dicts())


def test_homology_dims_from_blocks():
    # An interval: d_1 sends the edge to the difference of its two ends.  The
    # 2-cell is a cycle (empty row), and d_0 is named by no block.
    blocks = iter([(1, iter([{0: 1, 1: -1}])), (2, iter([{}]))])
    assert homology_dims({0: 2, 1: 1, 2: 1}, blocks) == {0: 1, 1: 0, 2: 1}


@given(
    st.fractions(min_value=-100, max_value=100, max_denominator=40).filter(lambda x: x != 0),
    st.fractions(min_value=-100, max_value=100, max_denominator=40).filter(lambda x: x != 0),
)
def test_exact_arithmetic(a, b):
    assert (a / b) * (b / a) == 1
