import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wptdas.errors import ValidationError
from wptdas.selection import (
    STRATEGIES,
    CandidateMatrix,
    apply_strategy,
    check_powers,
    middle_index,
    no_selection,
    select_antenna_only,
    select_frequency_only,
    select_joint,
    select_pairs,
)


def mat(values):
    return CandidateMatrix.from_powers(np.asarray(values, dtype=float))


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
        d = select_joint(mat([[1e-6, 2e-6], [3e-6, 0.0]]))
        assert (d.antenna, d.frequency, d.value) == (2, 1, 3e-6)

    def test_tie_breaks_to_lowest_indices(self):
        d = select_joint(mat(np.full((3, 4), 5e-6)))
        assert (d.antenna, d.frequency) == (1, 1)

    def test_matches_bruteforce_over_random_matrices(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            values = rng.uniform(0.0, 1e-5, size=(4, 15))
            d = select_joint(mat(values))
            m, n, v = brute_force_argmax(values)
            assert (d.antenna, d.frequency) == (m, n)
            assert d.value == v

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            CandidateMatrix.from_powers(np.empty((0, 0)))


class TestFrequencyOnly:
    def test_row_example(self):
        d = select_frequency_only(mat([[5e-6, 1e-6, 9e-6]]), 1)
        assert (d.frequency, d.value) == (3, 9e-6)

    def test_single_frequency_degenerate(self):
        d = select_frequency_only(mat([[7e-6]]), 1)
        assert (d.antenna, d.frequency, d.value) == (1, 1, 7e-6)

    def test_reduces_to_joint_on_single_row(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            values = rng.uniform(0.0, 1e-5, size=(1, 15))
            a = select_frequency_only(mat(values), 1)
            b = select_joint(mat(values))
            assert (a.antenna, a.frequency, a.value) == (b.antenna, b.frequency, b.value)

    def test_antenna_bound_checked(self):
        with pytest.raises(ValidationError):
            select_frequency_only(mat([[1e-6]]), 2)


class TestAntennaOnly:
    def test_column_tie_break(self):
        d = select_antenna_only(mat([[2e-6], [7e-6], [7e-6], [1e-6]]), 1)
        assert (d.antenna, d.value) == (2, 7e-6)

    def test_single_antenna_degenerate(self):
        d = select_antenna_only(mat([[4e-6]]), 1)
        assert (d.antenna, d.frequency, d.value) == (1, 1, 4e-6)

    def test_reduces_to_joint_on_single_column(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            values = rng.uniform(0.0, 1e-5, size=(4, 1))
            a = select_antenna_only(mat(values), 1)
            b = select_joint(mat(values))
            assert (a.antenna, a.frequency, a.value) == (b.antenna, b.frequency, b.value)

    def test_default_fixed_frequency_is_middle(self):
        values = np.zeros((4, 15))
        values[2, 7] = 1e-6  # middle column (f8, 0-based 7)
        d = select_antenna_only(mat(values))
        assert (d.antenna, d.frequency) == (3, 8)
        assert middle_index(15) == 8


class TestNoSelection:
    def test_fixed_entry(self):
        values = np.arange(60, dtype=float).reshape(4, 15) * 1e-7
        d = no_selection(mat(values), 1, 8)
        assert (d.antenna, d.frequency, d.value) == (1, 8, values[0, 7])

    def test_equals_joint_on_scalar_matrix(self):
        a = no_selection(mat([[3e-6]]), 1, 1)
        b = select_joint(mat([[3e-6]]))
        assert (a.antenna, a.frequency, a.value) == (b.antenna, b.frequency, b.value)

    def test_dominated_by_joint(self):
        rng = np.random.default_rng(9)
        for _ in range(1000):
            values = rng.uniform(0.0, 1e-5, size=(4, 15))
            assert no_selection(mat(values), 1, 8).value <= select_joint(mat(values)).value


class TestProperties:
    def test_dominance_chain(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            values = rng.uniform(0.0, 1e-5, size=(4, 15))
            c = mat(values)
            joint = select_joint(c).value
            ant = select_antenna_only(c, 8).value
            frq = select_frequency_only(c, 1).value
            none = no_selection(c, 1, 8).value
            assert joint >= ant >= none
            assert joint >= frq >= none

    def test_set_monotonicity(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            values = rng.uniform(0.0, 1e-5, size=(4, 15))
            full = select_joint(mat(values)).value
            assert select_joint(mat(values[:3])).value <= full
            assert select_joint(mat(values[:, :10])).value <= full

    def test_scale_invariance_of_argmax(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            values = rng.uniform(0.0, 1e-5, size=(3, 7))
            base = select_joint(mat(values))
            scaled = select_joint(mat(values * 37.5))
            assert (base.antenna, base.frequency) == (scaled.antenna, scaled.frequency)
            assert scaled.value == pytest.approx(base.value * 37.5, rel=1e-12)

    def test_apply_strategy_dispatch(self):
        values = np.arange(8, dtype=float).reshape(2, 4) * 1e-7
        c = mat(values)
        assert apply_strategy(c, "joint") == select_joint(c)
        assert apply_strategy(c, "frequency_only") == select_frequency_only(c, 1)
        assert apply_strategy(c, "antenna_only") == select_antenna_only(c)
        assert apply_strategy(c, "none") == no_selection(c)
        with pytest.raises(ValidationError):
            apply_strategy(c, "beamforming")

    def test_matrix_validation(self):
        with pytest.raises(ValidationError):
            mat([[1e-6, -1e-6]])
        with pytest.raises(ValidationError):
            mat([[np.inf]])


SCALAR = {
    "joint": select_joint,
    "frequency_only": select_frequency_only,
    "antenna_only": select_antenna_only,
    "none": no_selection,
}


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
            c = mat(values)
            d = SCALAR[strategy](c)
            assert apply_strategy(c, strategy) == d
            assert (a[b] + 1, f[b] + 1, values[a[b], f[b]]) == (d.antenna, d.frequency, d.value)

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
