import itertools

import numpy as np
import pytest

from slrc.designs import (Design, affine_design, complete_graph_design,
                          load_design, validate_design)
from slrc.errors import DesignError, ParameterError
from slrc.field import FieldError
from slrc.reference import golden


def test_k4_design_matches_reference_matrix():
    d = complete_graph_design(3)
    assert (d.incidence == golden("design")).all()
    assert d.k == 6 and d.b == 4 and d.t_i == 2


def test_triangle_design():
    d = complete_graph_design(2)
    assert d.lines == ((0, 1), (0, 2), (1, 2))


def test_k5_design_validates():
    d = complete_graph_design(4)
    assert d.incidence.shape == (5, 10)
    assert validate_design(d) is None


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_complete_graph_counts_and_girth(r):
    d = complete_graph_design(r)
    assert d.b * d.r == d.k * d.t_i
    for i, j in itertools.combinations(range(d.b), 2):
        assert len(set(d.lines[i]) & set(d.lines[j])) <= 1


def test_complete_graph_lines_are_each_vertex_s_edges():
    # line v: the lexicographic indices of the edges at v, found by a scan
    # of every edge per vertex
    for r in range(2, 30):
        edges = list(itertools.combinations(range(r + 1), 2))
        lines = tuple(tuple(i for i, e in enumerate(edges) if v in e)
                      for v in range(r + 1))
        assert complete_graph_design(r) == Design(k=len(edges), r=r, t_i=2,
                                                  lines=lines)


def test_complete_graph_rejects_small_r():
    with pytest.raises(ParameterError):
        complete_graph_design(1)


def test_affine_2x2_grid():
    d = affine_design(2, 2)
    assert d.k == 4
    assert [sorted(p + 1 for p in line) for line in d.lines] == [
        [1, 2], [3, 4], [1, 3], [2, 4]]
    assert validate_design(d) is None


def test_affine_r3_two_classes():
    d = affine_design(3, 2)
    assert d.b == 6 and d.k == 9
    assert validate_design(d) is None


def test_affine_r3_all_classes_pairwise_meet_once():
    d = affine_design(3, 4)
    assert d.b == 12
    pencils = [d.lines[c * d.r:(c + 1) * d.r] for c in range(4)]
    for pi, pj in itertools.combinations(pencils, 2):
        for li in pi:
            for lj in pj:
                assert len(set(li) & set(lj)) == 1


def test_affine_r4_validates():
    d = affine_design(4, 3)
    assert validate_design(d) is None


def test_affine_every_point_pair_at_most_one_line():
    d = affine_design(3, 4)
    for p, q in itertools.combinations(range(d.k), 2):
        common = [line for line in d.lines if p in line and q in line]
        assert len(common) <= 1


def test_affine_rejects_bad_args():
    with pytest.raises(ParameterError):
        affine_design(3, 1)
    with pytest.raises(ParameterError):
        affine_design(3, 5)
    with pytest.raises(FieldError):
        affine_design(6, 2)


def test_validate_rejects_shared_pair():
    d = Design(k=6, r=3, t_i=2,
               lines=((0, 1, 2), (0, 1, 3), (2, 4, 5), (3, 4, 5)))
    assert "share points [1, 2]" in validate_design(d)


@pytest.mark.parametrize("lines,violation", [
    # the K4 lines cover points 1..6 of k = 10^12, so point 7 is on none
    (complete_graph_design(3).lines, "point 7 lies on 0 lines, expected 2"),
    (((0, 1, 2),), "point 1 lies on 1 lines, expected 2"),
])
def test_validate_counts_points_by_the_lines(lines, violation):
    # counts sized by k = 10^12 would not fit in memory
    d = Design(k=10 ** 12, r=3, t_i=2, lines=lines)
    assert validate_design(d) == violation


@pytest.mark.parametrize("k,r,t_i", [(0, 3, 2), (6, 0, 2), (6, 3, 0)])
def test_validate_rejects_sizes_below_one(k, r, t_i):
    # k = 0 with no lines satisfied every other check
    d = Design(k=k, r=r, t_i=t_i, lines=())
    assert validate_design(d) == (
        f"k, r and t_i must be >= 1, got k={k}, r={r}, t_i={t_i}")


def test_validate_rejects_bad_row_weight():
    d = Design(k=4, r=3, t_i=2, lines=((0, 1), (0, 1, 3)))
    assert "line 1" in validate_design(d)


def test_load_reference_matrix():
    d = load_design(golden("design"))
    assert (d.k, d.b, d.r, d.t_i) == (6, 4, 3, 2)


def test_load_identity():
    d = load_design(np.eye(3, dtype=int))
    assert d.r == 1 and d.t_i == 1


def test_load_rejects_girth_violation():
    with pytest.raises(DesignError):
        load_design(np.ones((2, 4), dtype=int))


def test_load_rejects_nonuniform():
    m = np.array([[1, 1, 0], [1, 0, 0]])
    with pytest.raises(DesignError, match="line 2"):
        load_design(m)
    m = np.array([[1, 1, 0], [1, 1, 0]])
    with pytest.raises(DesignError, match="point 3"):
        load_design(m)


def test_design_dict_round_trip():
    d = affine_design(3, 3)
    again = Design.from_dict(d.to_dict())
    assert again == d
