"""Seeded space files for the ``spaces-cli`` workload, and the checks on them.

Nothing here imports the package: the inputs, the expected answers and the
output checks come from this file alone, so a change to the package's own
generators, validation or metrics cannot change what the benchmark feeds in
or accepts.  Matrices are lists of ``Fraction`` rows; files hold scales as
exact ``"p/q"`` strings.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from pathlib import Path

ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# generators


def spread(count: int, lo: float, hi: float, phase: float = 0.5) -> list[int]:
    """``count`` sizes in [lo, hi), one per stratum of a geometric grid.

    Sizes do not depend on the seed: the seed draws each input's content and
    the op order.  Per-op cost grows steeply with size (n^3 for validation,
    trials^2 for a chain), so drawing sizes too would move the median and
    tail ops from seed to seed by more than any content change does.  A
    geometric grid spreads op costs evenly on a log scale, and giving each
    request kind its own ``phase`` in [0, 1) interleaves the kinds' sizes,
    so no gap between size classes sits at the median or the tail op.
    """
    ratio = hi / lo
    return [int(lo * ratio ** ((i + phase) / count)) for i in range(count)]


def phase(k: int) -> float:
    """The k-th point of the golden-ratio sequence: well spread for any k."""
    return (0.5 + 0.6180339887 * k) % 1.0


def dendrogram_rows(rng: random.Random, n: int) -> list[list[Fraction]]:
    """A shallow random ultrametric: 3 to 5 distinct scales, 2 to 4 blocks per split."""
    pool = set()
    while len(pool) < rng.randint(3, 5):
        pool.add(Fraction(rng.randint(1, 60), rng.randint(1, 12)))
    scales = sorted(pool, reverse=True)
    rows = [[ZERO] * n for _ in range(n)]

    def split(idx: list[int], level: int) -> None:
        if len(idx) < 2:
            return
        if level == len(scales) - 1:
            blocks = [[i] for i in idx]
        else:
            rng.shuffle(idx)
            nblocks = rng.randint(2, min(4, len(idx)))
            cuts = sorted(rng.sample(range(1, len(idx)), nblocks - 1))
            blocks = [idx[a:b] for a, b in zip([0] + cuts, cuts + [len(idx)])]
        s = scales[level]
        for bi, left in enumerate(blocks):
            for right in blocks[bi + 1:]:
                for a in left:
                    for b in right:
                        rows[a][b] = rows[b][a] = s
        for block in blocks:
            split(block, level + 1)

    split(list(range(n)), 0)
    return rows


def chain_rows(rng: random.Random, n: int) -> list[list[Fraction]]:
    """The deepest n-point ultrametric: d(p_i, p_j) = s_max(i,j), n - 1 scales."""
    scales = [ZERO]
    for _ in range(n - 1):
        scales.append(scales[-1] + Fraction(rng.randint(1, 9), rng.randint(1, 5)))
    order = list(range(n))
    rng.shuffle(order)
    depth = {p: k for k, p in enumerate(order)}
    return [
        [ZERO if a == b else scales[max(depth[a], depth[b])] for b in range(n)]
        for a in range(n)
    ]


def permuted(rng: random.Random, labels: list[str], rows, prefix: str):
    """Relabelled, reordered copy of a space: isometric to the original."""
    order = list(range(len(labels)))
    rng.shuffle(order)
    return [f"{prefix}{i}" for i in range(len(order))], [
        [rows[a][b] for b in order] for a in order
    ]


def spectrum(rows) -> list[Fraction]:
    """Sorted distinct off-diagonal values."""
    n = len(rows)
    return sorted({rows[i][j] for i in range(n) for j in range(i + 1, n)})


def shrink_smallest(rows):
    """Halve the smallest scale everywhere.

    An order-preserving change of values keeps the strong triangle
    inequality, and the new spectrum makes the result non-isometric.
    """
    low = spectrum(rows)[0]
    return [[v / 2 if v == low else v for v in row] for row in rows]


def break_entry(rng: random.Random, rows):
    """Raise one symmetric pair above the diameter: breaks every triple through it."""
    n = len(rows)
    i, j = rng.sample(range(n), 2)
    out = [row[:] for row in rows]
    out[i][j] = out[j][i] = 2 * spectrum(rows)[-1] + 1
    return out


def closed_balls(rows, eps: Fraction) -> list[list[int]]:
    """Classes of the relation d <= eps, by first representative."""
    classes: list[list[int]] = []
    for i in range(len(rows)):
        for cls in classes:
            if rows[cls[0]][i] <= eps:
                cls.append(i)
                break
        else:
            classes.append([i])
    return classes


def quotient_rows(labels, rows, eps: Fraction):
    classes = closed_balls(rows, eps)
    return [f"c{k}" for k in range(len(classes))], [
        [rows[a[0]][b[0]] for b in classes] for a in classes
    ]


def space_json(labels, rows) -> dict:
    return {"points": list(labels), "dist": [[str(v) for v in row] for row in rows]}


def write_json(path: Path, data) -> str:
    path.write_text(json.dumps(data) + "\n", encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# independent checks


def ultrametric_violation(rows):
    """First (i, j, k) with d(i,j) > max(d(i,k), d(k,j)), by a plain triple loop."""
    n = len(rows)
    for i in range(n):
        if rows[i][i] != ZERO:
            return (i, i, i)
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i] or rows[i][j] <= ZERO:
                return (i, j, i)
    # integer ranks keep the cubic loop cheap without changing any comparison
    rank = {v: r for r, v in enumerate(sorted({v for row in rows for v in row}))}
    m = [[rank[v] for v in row] for row in rows]
    for i in range(n):
        mi = m[i]
        for j in range(i + 1, n):
            dij = mi[j]
            for k in range(n):
                if dij > mi[k] and dij > m[k][j]:
                    return (i, j, k)
    return None


_PAIR = re.compile(r"d\(([^,()]+),([^,()]+)\)=")


def named_triple_violates(message: str, labels, rows) -> bool:
    """True when the message names d(a,b), d(a,c), d(c,b) and d(a,b) really is too big."""
    found = _PAIR.findall(message)
    if len(found) < 3:
        return False
    (a, b), (a2, c), (c2, b2) = found[:3]
    if (a, b, c) != (a2, b2, c2):
        return False
    index = {lab: i for i, lab in enumerate(labels)}
    if not {a, b, c} <= index.keys():
        return False
    ia, ib, ic = index[a], index[b], index[c]
    return rows[ia][ib] > max(rows[ia][ic], rows[ic][ib])


def top_disagreement(f: list, g: list) -> Fraction:
    """Largest key where two ``[[key, count], ...]`` supports differ; 0 if equal."""
    fm = {Fraction(k): v for k, v in f}
    gm = {Fraction(k): v for k, v in g}
    keys = [k for k in fm.keys() | gm.keys() if fm.get(k, 0) != gm.get(k, 0)]
    return max(keys, default=ZERO)


def top_cell_disagreement(f: list, g: list) -> Fraction:
    """Largest value involved where two ``[[prefix, value], ...]`` functions differ.

    Two cells of complete prefix-free partitions overlap exactly when one
    prefix extends the other, so every pair is checked on its overlap.
    """
    worst = ZERO
    for p, a in f:
        for q, b in g:
            if (p.startswith(q) or q.startswith(p)) and Fraction(a) != Fraction(b):
                worst = max(worst, Fraction(a), Fraction(b))
    return worst
