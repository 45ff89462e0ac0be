"""Regenerate reference.json: ball sizes and top eigenvalues for kesten-shift.

Usage: python3 perfbench/make_reference.py [MAX_RADIUS]   (default 13)

The orbit of Coset(0, e) under {t, x0}^+-1 is enumerated here with its own
model, sharing no code with cosetlab: a coset (n, w) is kept as its level n
and the tail w re-indexed relative to n, so t^+-1 moves the level and keeps
the tail, and x0^e at level n prepends the relative letter (-n, e) when
-n >= 1 (and fixes the coset otherwise).  The Markov operator of each
radius-r prefix gets its top eigenvalue from Lanczos (scipy eigsh, tol=0),
with the residual norm recorded as a bound on its error; no power
iteration is involved.  Every offset s gives the same graph, so the table
serves every seed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as sla

OUT = Path(__file__).with_name("reference.json")


def _x0(e: int, level: int, tail: tuple) -> tuple:
    j = -level
    if j < 1:
        return tail
    if tail and tail[0] == (j, -e):
        return tail[1:]
    return ((j, e),) + tail


def shift_ball(radius: int):
    """Breadth-first ball: per-node distances and the edge list (i, j) of
    generator images that stay inside the ball."""
    moves = (
        lambda n, u: (n + 1, u),
        lambda n, u: (n - 1, u),
        lambda n, u: (n, _x0(1, n, u)),
        lambda n, u: (n, _x0(-1, n, u)),
    )
    nodes = [(0, ())]
    index = {nodes[0]: 0}
    dist = [0]
    frontier = [0]
    for d in range(1, radius + 1):
        nxt = []
        for i in frontier:
            for move in moves:
                c = move(*nodes[i])
                if c not in index:
                    index[c] = len(nodes)
                    nodes.append(c)
                    dist.append(d)
                    nxt.append(index[c])
        frontier = nxt
    rows, cols = [], []
    for i, c in enumerate(nodes):
        for move in moves:
            j = index.get(move(*c))
            if j is not None:
                rows.append(i)
                cols.append(j)
    return np.array(dist), np.array(rows), np.array(cols)


def top_eigenvalue(m: sp.csr_matrix):
    """(eigenvalue, residual norm) of the largest eigenvalue of symmetric m."""
    if m.shape[0] <= 500:
        w, v = np.linalg.eigh(m.toarray())
        lam, vec = float(w[-1]), v[:, -1]
    else:
        w, v = sla.eigsh(m, k=1, which="LA", tol=0)
        lam, vec = float(w[0]), v[:, 0]
    return lam, float(np.linalg.norm(m @ vec - lam * vec))


def build(radius: int) -> dict:
    dist, rows, cols = shift_ball(radius)
    n = len(dist)
    m = sp.csr_matrix((np.full(len(rows), 0.25), (rows, cols)), shape=(n, n))
    if (m != m.T).nnz:
        raise RuntimeError("operator is not symmetric")
    order = np.argsort(dist, kind="stable")  # BFS order already, but be sure
    m = m[order][:, order]
    nodes, eigenvalues, residual = [], [], 0.0
    for r in range(1, radius + 1):
        k = int(np.count_nonzero(dist <= r))
        lam, res = top_eigenvalue(m[:k, :k])
        nodes.append(k)
        eigenvalues.append(lam)
        residual = max(residual, res)
    return {
        "kesten_shift": {
            "generators": "t, x_s and inverses, base Coset(s, e)",
            "nodes": nodes,
            "eigenvalues": eigenvalues,
            "max_residual": residual,
        }
    }


if __name__ == "__main__":
    radius = int(sys.argv[1]) if len(sys.argv) > 1 else 13
    OUT.write_text(json.dumps(build(radius), indent=1) + "\n")
    print(f"wrote {OUT}")
