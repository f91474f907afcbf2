import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wptdas.errors import ValidationError
from wptdas.selection import STRATEGIES, CandidateMatrix, check_powers, middle_index, select_pairs

from scalar_oracle import select_one


def brute_force_argmax(values):
    """Oracle: exhaustive scan with explicit tie-break bookkeeping."""
    best = (None, None, -1.0)
    rows, cols = values.shape
    for m in range(rows):
        for n in range(cols):
            if values[m, n] > best[2]:
                best = (m + 1, n + 1, values[m, n])
    return best


class TestJoint:
    def test_inspection_example(self):
        assert select_one([[1e-6, 2e-6], [3e-6, 0.0]], "joint") == (2, 1, 3e-6)

    def test_tie_breaks_to_lowest_indices(self):
        assert select_one(np.full((3, 4), 5e-6), "joint")[:2] == (1, 1)

    def test_matches_bruteforce_over_random_matrices(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            values = rng.uniform(0.0, 1e-5, size=(4, 15))
            assert select_one(values, "joint") == brute_force_argmax(values)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            check_powers(np.empty((0, 0)))
        with pytest.raises(ValidationError):
            CandidateMatrix.from_powers(np.empty((0, 0)))


class TestFrequencyOnly:
    def test_row_example(self):
        assert select_one([[5e-6, 1e-6, 9e-6]], "frequency_only", 1)[1:] == (3, 9e-6)

    def test_single_frequency_degenerate(self):
        assert select_one([[7e-6]], "frequency_only", 1) == (1, 1, 7e-6)

    def test_reduces_to_joint_on_single_row(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            values = rng.uniform(0.0, 1e-5, size=(1, 15))
            assert select_one(values, "frequency_only", 1) == select_one(values, "joint")

    def test_antenna_bound_checked(self):
        with pytest.raises(ValidationError):
            select_one([[1e-6]], "frequency_only", 2)


class TestAntennaOnly:
    def test_column_tie_break(self):
        d = select_one([[2e-6], [7e-6], [7e-6], [1e-6]], "antenna_only", fixed_frequency=1)
        assert (d[0], d[2]) == (2, 7e-6)

    def test_single_antenna_degenerate(self):
        assert select_one([[4e-6]], "antenna_only", fixed_frequency=1) == (1, 1, 4e-6)

    def test_reduces_to_joint_on_single_column(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            values = rng.uniform(0.0, 1e-5, size=(4, 1))
            assert (select_one(values, "antenna_only", fixed_frequency=1)
                    == select_one(values, "joint"))

    def test_default_fixed_frequency_is_middle(self):
        values = np.zeros((4, 15))
        values[2, 7] = 1e-6  # middle column (f8, 0-based 7)
        assert select_one(values, "antenna_only")[:2] == (3, 8)
        assert middle_index(15) == 8


class TestNoSelection:
    def test_fixed_entry(self):
        values = np.arange(60, dtype=float).reshape(4, 15) * 1e-7
        assert select_one(values, "none", 1, 8) == (1, 8, values[0, 7])

    def test_equals_joint_on_scalar_matrix(self):
        assert select_one([[3e-6]], "none", 1, 1) == select_one([[3e-6]], "joint")

    def test_dominated_by_joint(self):
        rng = np.random.default_rng(9)
        for _ in range(1000):
            values = rng.uniform(0.0, 1e-5, size=(4, 15))
            assert select_one(values, "none", 1, 8)[2] <= select_one(values, "joint")[2]


class TestProperties:
    def test_dominance_chain(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            values = rng.uniform(0.0, 1e-5, size=(4, 15))
            joint = select_one(values, "joint")[2]
            ant = select_one(values, "antenna_only", fixed_frequency=8)[2]
            frq = select_one(values, "frequency_only", 1)[2]
            none = select_one(values, "none", 1, 8)[2]
            assert joint >= ant >= none
            assert joint >= frq >= none

    def test_set_monotonicity(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            values = rng.uniform(0.0, 1e-5, size=(4, 15))
            full = select_one(values, "joint")[2]
            assert select_one(values[:3], "joint")[2] <= full
            assert select_one(values[:, :10], "joint")[2] <= full

    def test_scale_invariance_of_argmax(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            values = rng.uniform(0.0, 1e-5, size=(3, 7))
            base = select_one(values, "joint")
            scaled = select_one(values * 37.5, "joint")
            assert base[:2] == scaled[:2]
            assert scaled[2] == pytest.approx(base[2] * 37.5, rel=1e-12)

    def test_strategy_defaults(self):
        values = np.arange(8, dtype=float).reshape(2, 4) * 1e-7
        mid = middle_index(4)
        assert select_one(values, "joint") == (2, 4, values[1, 3])
        assert select_one(values, "frequency_only") == select_one(values, "frequency_only", 1)
        assert (select_one(values, "antenna_only")
                == select_one(values, "antenna_only", fixed_frequency=mid))
        assert (select_one(values, "none") == select_one(values, "none", 1, mid)
                == (1, mid, values[0, 1]))
        with pytest.raises(ValidationError):
            select_one(values, "beamforming")

    def test_matrix_validation(self):
        for check in (check_powers, CandidateMatrix.from_powers):
            with pytest.raises(ValidationError):
                check([[1e-6, -1e-6]])
            with pytest.raises(ValidationError):
                check([[np.inf]])


@st.composite
def power_stacks(draw):
    """(B, M, N) candidate powers; half the draws use 2-3 values, so ties are common."""
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 4)), draw(st.integers(1, 7)))
    if draw(st.booleans()):
        levels = draw(st.lists(st.floats(0.0, 1e-5), min_size=2, max_size=3, unique=True))
        elements = st.sampled_from(levels)
    else:
        elements = st.floats(0.0, 1e-5)
    return draw(arrays(np.float64, shape, elements=elements))


class TestSelectPairs:
    @settings(max_examples=200, deadline=None)
    @given(power_stacks(), st.sampled_from(STRATEGIES))
    def test_batched_equals_scalar(self, stack, strategy):
        a, f = select_pairs(check_powers(stack), strategy)
        assert a.shape == f.shape == stack.shape[:1]
        for b, values in enumerate(stack):
            assert (a[b] + 1, f[b] + 1, values[a[b], f[b]]) == select_one(values, strategy)

    @settings(max_examples=200, deadline=None)
    @given(power_stacks())
    def test_ties_go_to_lowest_antenna_then_frequency(self, stack):
        n_total = stack.shape[2]
        fixed_f = middle_index(n_total) - 1
        ja, jf = select_pairs(stack, "joint")
        fa, ff = select_pairs(stack, "frequency_only")
        aa, af = select_pairs(stack, "antenna_only")
        for b, values in enumerate(stack):
            flat = values.ravel()
            j = ja[b] * n_total + jf[b]
            assert flat[j] == flat.max() and np.all(flat[:j] < flat[j])
            row = values[0]
            assert (fa[b], row[ff[b]]) == (0, row.max()) and np.all(row[:ff[b]] < row[ff[b]])
            col = values[:, fixed_f]
            assert (af[b], col[aa[b]]) == (fixed_f, col.max()) and np.all(col[:aa[b]] < col[aa[b]])

    def test_none_is_the_fixed_pair(self):
        a, f = select_pairs(np.zeros((3, 2, 5)), "none", fixed_antenna=2, fixed_frequency=4)
        assert a.tolist() == [1, 1, 1] and f.tolist() == [3, 3, 3]

    def test_fixed_index_and_strategy_checked(self):
        stack = np.zeros((2, 2, 3))
        with pytest.raises(ValidationError):
            select_pairs(stack, "frequency_only", fixed_antenna=3)
        with pytest.raises(ValidationError):
            select_pairs(stack, "antenna_only", fixed_frequency=4)
        with pytest.raises(ValidationError):
            select_pairs(stack, "beamforming")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-9])
    def test_check_powers_rejects_bad_batched_entries(self, bad):
        stack = np.full((5, 4, 15), 1e-6)
        stack[3, 2, 9] = bad
        with pytest.raises(ValidationError):
            check_powers(stack)

    def test_check_powers_rejects_empty_and_1d(self):
        with pytest.raises(ValidationError):
            check_powers(np.empty((3, 0, 2)))
        with pytest.raises(ValidationError):
            check_powers(np.ones(4))
