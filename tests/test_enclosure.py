import numpy as np
import pytest

from monomap.enclosure import refine

# the points a synthetic cell must hold to stay undecided; neither is
# dyadic, so each lies in one cell of every level
_POINTS = np.array([0.3, 0.71])


def _holds_a_point(cells, depth):
    """The synthetic test: an interval [lo, hi] (one per column) is
    undecided while it holds a point of _POINTS."""
    lo, hi = cells
    inside = (lo[:, None] <= _POINTS) & (_POINTS <= hi[:, None])
    return inside.any(axis=1), None


def _halves(cells):
    lo, hi = cells
    mid = 0.5 * (lo + hi)
    return np.concatenate([[lo, mid], [mid, hi]], axis=1)


def _narrow_left_half(cells, depth):
    """A cell left of 1/2 is a leaf below width 1/4, any other below
    width 1/16: the cell at 0.3 stops at level 3, the one at 0.71 goes
    on to level 5."""
    lo, hi = cells
    return hi - lo < np.where(lo < 0.5, 0.25, 0.0625)


def _first_true(evidence, first):
    """The scan of tests whose evidence is True at the witness's level."""
    for level, found in enumerate(evidence, first):
        if found:
            return level, ("here", level)
    return None


_ROOT = np.array([[0.0], [1.0]])
_NEVER = lambda cells, depth: None  # noqa: E731


class TestRefine:
    """`refine` on intervals of [0, 1] halved at each level: levels 0 and
    1 hold 1 and 2 cells, every later one 4, of which the two that hold
    a point stay undecided."""

    def test_every_cell_decided(self):
        run = refine(_ROOT, lambda c, d: (np.zeros(c.shape[1], bool), None),
                     _halves, _NEVER, 1 << 10)
        assert run.stop is None and run.witness is None
        assert (run.cells, run.depth, run.widest) == (1, 0, 0)
        assert run.leaves.shape == (2, 0)

    def test_witness_stops_at_its_level(self):
        # the witness of level 2 is scanned after level 5, where the
        # leaf rule ends the run; the record is that of levels 0 to 2,
        # and the leaves of level 5 leave it
        def test(cells, depth):
            undecided, _ = _holds_a_point(cells, depth)
            return undecided, depth == 2

        run = refine(_ROOT, test, _halves,
                     lambda cells, depth: np.full(cells.shape[1], depth == 5),
                     1 << 10, _first_true)
        assert run.stop == "witness" and run.witness == ("here", 2)
        assert (run.cells, run.depth, run.widest) == (1 + 2 + 4, 2, 2)
        assert run.leaves.shape == (2, 0)

    def test_widest_leaves_out_the_witness_level(self):
        # level 1 leaves 2 cells undecided, twice level 0's 1, so it is
        # scanned at once; its own count is not part of the record
        def test(cells, depth):
            undecided, _ = _holds_a_point(cells, depth)
            return undecided, depth == 1

        run = refine(_ROOT, test, _halves, _NEVER, 1 << 10, _first_true)
        assert run.stop == "witness" and run.witness == ("here", 1)
        assert (run.cells, run.depth, run.widest) == (1 + 2, 1, 1)

    def test_leaves_set_aside_before_the_witness_stay(self):
        # the leaf rule of the next test sets the cell at 0.3 aside at
        # level 3 and the one at 0.71 at level 5; a witness at level 4
        # keeps the first leaf only
        def test(cells, depth):
            undecided, _ = _holds_a_point(cells, depth)
            return undecided, depth == 4

        run = refine(_ROOT, test, _halves, _narrow_left_half, 1 << 10,
                     _first_true)
        assert run.stop == "witness" and run.witness == ("here", 4)
        np.testing.assert_array_equal(run.leaves, [[0.25], [0.375]])
        assert (run.cells, run.depth, run.widest) == (1 + 2 + 4 + 4 + 2,
                                                     4, 2)

    def test_a_proved_run_makes_few_scans(self):
        # cells narrower than 1/20 are decided, so level 5 decides all;
        # of the levels before, which leave 1, 2, 2, 2, 2 cells
        # undecided, only level 1 doubles its predecessor's count
        scanned = []

        def scan(evidence, first):
            scanned.append((first, len(evidence)))
            return None

        run = refine(_ROOT, lambda c, d: (_holds_a_point(c, d)[0]
                                          & (c[1] - c[0] > 0.05), None),
                     _halves, _NEVER, 1 << 10, scan)
        assert run.stop is None and run.witness is None
        assert run.depth == 5
        # one scan after level 1, and one at the end for levels 2 to 5
        assert scanned == [(0, 2), (2, 4)]

    def test_narrow_leaves_are_set_aside_while_the_others_go_on(self):
        calls = []

        def split(cells):
            calls.append(cells.shape[1])
            return _halves(cells)

        run = refine(_ROOT, _holds_a_point, split, _narrow_left_half, 1 << 10)
        assert run.stop == "min_width" and run.witness is None
        np.testing.assert_array_equal(
            run.leaves, [[0.25, 22 / 32], [0.375, 23 / 32]])
        assert (run.cells, run.depth, run.widest) == (1 + 2 + 4 + 4 + 2 + 2,
                                                     5, 2)
        # the leaf of level 3 was not split
        assert calls == [1, 2, 2, 1, 1]

    def test_budget_sets_every_undecided_cell_aside(self):
        # level 1 leaves two cells undecided, whose split (counted as
        # four children each) would exceed 7
        run = refine(_ROOT, _holds_a_point, _halves, _NEVER, 7)
        assert run.stop == "cell_budget"
        np.testing.assert_array_equal(run.leaves, [[0.0, 0.5], [0.5, 1.0]])
        assert (run.cells, run.depth, run.widest) == (3, 1, 2)

    @pytest.mark.parametrize("budget, stop", [(8, "min_width"),
                                              (7, "cell_budget")])
    def test_budget_takes_precedence(self, budget, stop):
        run = refine(_ROOT, _holds_a_point, _halves,
                     lambda cells, depth: np.full(cells.shape[1], depth >= 1),
                     budget)
        assert run.stop == stop
        assert (run.cells, run.depth) == (3, 1)
        assert run.leaves.shape == (2, 2)

    def test_integer_cells_keep_their_type(self):
        # the pair search refines lattice indices; an empty leaf set
        # keeps them integers
        run = refine(np.zeros((2, 1), dtype=np.int64),
                     lambda c, d: (np.zeros(c.shape[1], bool), None),
                     lambda c: c, _NEVER, 1 << 10)
        assert run.leaves.dtype == np.int64 and run.leaves.shape == (2, 0)

    def test_each_level_is_tested_once_with_its_depth(self):
        depths = []

        def test(cells, depth):
            depths.append(depth)
            return _holds_a_point(cells, depth)

        run = refine(_ROOT, test, _halves,
                     lambda cells, depth: np.full(cells.shape[1], depth == 4),
                     1 << 10)
        assert depths == [0, 1, 2, 3, 4]
        assert run.stop == "min_width" and run.depth == 4
