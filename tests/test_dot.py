"""DOT emission shape checks."""

import numpy as np

from dqra import BinRel, FiniteDqRA, RelStructure
from dqra.dot import algebra_dot, structure_dot


def test_one_point_structure_has_self_loops():
    S = RelStructure(1, BinRel.identity(1), BinRel.identity(1), (0,), (0,))
    out = structure_dot("pt", S)
    assert out.count("n0 -> n0") == 2          # alpha and beta loops
    assert "style=dashed" in out and "style=dotted" in out
    assert out.count("subgraph cluster_") == 1


def test_example_structure_picture(example_structure):
    out = structure_dot("model", example_structure)
    # antichain: no cover edges, four alpha and four beta arrows, one block
    assert "arrowhead=none" not in out
    assert out.count("style=dashed") == 4
    assert out.count("style=dotted") == 4
    assert out.count("subgraph cluster_") == 1


def test_blocks_follow_the_equivalence():
    leq = BinRel.identity(3)
    E = BinRel.from_pairs(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 0)])
    S = RelStructure(3, leq, E, (0, 1, 2), (0, 1, 2))
    out = structure_dot("split", S)
    assert out.count("subgraph cluster_") == 2


def test_hasse_diagram_of_the_six_element_algebra(six):
    out = algebra_dot("six", six)
    assert out.count("->") == 6                # bot-1, 1-a, 1-b, a-0, b-0, 0-top
    assert out.count("arrowhead=none") == 6
    for lbl in six.labels:
        assert f'"{lbl}"' in out


def test_labels_are_quoted(six):
    out = algebra_dot('we"ird', six)
    assert '"we\\"ird"' in out


def test_hasse_diagram_of_a_258_element_chain():
    # 256 paths of length two run from the bottom to the top, which wraps a
    # uint8 path count to 0 and would draw a cover (0, 257)
    n = 258
    idx = np.arange(n)
    A = FiniteDqRA(n, idx[:, None] <= idx[None, :], np.minimum.outer(idx, idx),
                   idx[::-1], idx[::-1], idx[::-1], n - 1)
    out = algebra_dot("chain", A)
    assert out.count("arrowhead=none") == n - 1
    for i in range(n - 1):
        assert f"n{i} -> n{i + 1} [arrowhead=none];" in out
