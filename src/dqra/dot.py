"""Graphviz DOT output: Hasse diagrams for algebras, full pictures for
structures (order covers solid, alpha dashed, beta dotted, equivalence
blocks as clusters)."""

from __future__ import annotations

import numpy as np

from .algebra import FiniteDqRA
from .relations import RelStructure


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _covers(leq: np.ndarray) -> list[tuple[int, int]]:
    n = leq.shape[0]
    strict = leq & ~np.eye(n, dtype=bool)
    via = strict @ strict       # a boolean product: path counts cannot wrap
    return [(int(i), int(j)) for i, j in np.argwhere(strict & ~via)]


def algebra_dot(name: str, A: FiniteDqRA) -> str:
    """Hasse diagram of the lattice order, drawn upwards."""
    out = [f"digraph {_quote(name)} {{", "  rankdir=BT;",
           "  node [shape=circle, fontsize=11];"]
    for i in range(A.size):
        out.append(f"  n{i} [label={_quote(A.labels[i])}];")
    for i, j in _covers(A.leq):
        out.append(f"  n{i} -> n{j} [arrowhead=none];")
    out.append("}")
    return "\n".join(out) + "\n"


def structure_dot(name: str, S: RelStructure) -> str:
    """Carrier points in equivalence-block clusters; order covers solid,
    alpha edges dashed, beta edges dotted (self-loops included)."""
    out = [f"digraph {_quote(name)} {{", "  rankdir=BT;",
           "  node [shape=circle, fontsize=11];"]
    seen: set[int] = set()
    blocks = []
    for x in range(S.n):
        if x in seen:
            continue
        block = [y for y in range(S.n) if (x, y) in S.E]
        seen.update(block)
        blocks.append(block)
    for k, block in enumerate(blocks):
        out.append(f"  subgraph cluster_{k} {{")
        out.append("    style=rounded;")
        for x in block:
            out.append(f"    n{x} [label={_quote(S.labels[x])}];")
        out.append("  }")
    for i, j in _covers(S.leq.mat):
        out.append(f"  n{i} -> n{j} [arrowhead=none];")
    for x in range(S.n):
        out.append(f"  n{x} -> n{S.alpha[x]} [style=dashed];")
    for x in range(S.n):
        out.append(f"  n{x} -> n{S.beta[x]} [style=dotted];")
    out.append("}")
    return "\n".join(out) + "\n"
