"""Complete prefix-free binary cell partitions of the Cantor set.

A partition is a finite set of binary strings such that no string is a
prefix of another and every infinite binary sequence extends exactly one
of them.  The empty string is the one-cell partition.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence, TypeVar

V = TypeVar("V")


def check_prefixes(prefixes: Iterable[str]) -> tuple[str, ...]:
    """Validate and sort a complete prefix-free set of binary strings.

    One pass over the sorted keys.  Extensions of a key sort contiguously
    right after it, so one adjacent check decides prefix-freeness.  The
    cells are then complete exactly when ``merge_equal_siblings``, with
    every value equal, folds them into the empty prefix.
    """
    keys = list(prefixes)
    if not keys:
        raise ValueError("cell partition must be nonempty")
    for k in keys:
        if not isinstance(k, str) or k.strip("01"):
            raise ValueError(f"cell prefix must be a binary string, got {k!r}")
    if len(set(keys)) != len(keys):
        raise ValueError("duplicate cell prefixes")
    keys.sort()
    for prev, key in zip(keys, keys[1:]):
        if key.startswith(prev):
            raise ValueError(f"cell {prev!r} is a prefix of cell {key!r}")
    if merge_equal_siblings(keys, dict.fromkeys(keys))[0] != ("",):
        total = sum(Fraction(1, 2 ** len(k)) for k in keys)
        raise ValueError(f"cells cover measure {total}, not the whole space")
    return tuple(keys)


def merge_equal_siblings(keys: Sequence[str], values: Mapping[str, V]) -> tuple[tuple[str, ...], tuple[V, ...]]:
    """Coarsest partition representing the same cell-wise assignment.

    Replaces sibling cells carrying equal values by their parent, up the
    tree as far as the values stay equal; the normal form is unique.
    ``keys`` must be sorted and prefix-free, so siblings are adjacent and
    a stack folds each right sibling ``p1`` with the ``p0`` just below it
    into ``p``.  Returns the merged keys, still sorted, and their values;
    ``check_prefixes`` calls it with every value equal to test
    completeness.
    """
    merged: list[str] = []
    held: list[V] = []
    for key in keys:
        value = values[key]
        while merged and key.endswith("1") and held[-1] == value and merged[-1] == key[:-1] + "0":
            merged.pop()
            held.pop()
            key = key[:-1]
        merged.append(key)
        held.append(value)
    return tuple(merged), tuple(held)


def right_ends(keys: Sequence[str]) -> tuple[str, ...]:
    """The right endpoint of each cell, as a string ordered like the number.

    ``keys`` must be sorted, complete and prefix-free.  Cell ``k`` ends at
    ``(int(k or "0", 2) + 1) / 2**len(k)``, where the next cell starts, so
    the end is written as the next key's binary digits without trailing
    zeros; the last cell ends at 1, written as the sentinel ``"2"``.
    Digit strings ending in 1 compare as strings exactly as their numbers
    do, and ``"2"`` sorts after every one of them.
    """
    return (*[k.rstrip("0") for k in keys[1:]], "2")


def align(a: Sequence[str], b: Sequence[str]) -> tuple[list[int], list[int]]:
    """Owner indices in ``a`` and in ``b`` of each cell of their common refinement.

    Both sequences must be sorted, complete and prefix-free.  The refined
    cells come in sorted order, and each is listed by the index of the
    cell of ``a`` and of ``b`` containing it, in O(len(a) + len(b)) steps.
    The two current cells share their left endpoint, so one is a prefix
    of the other: the longer one is the refined cell and advances, and
    the shorter one advances once the next key no longer extends it.
    ``model_maps.nabla`` walks the same refinement by comparing the
    cells' stored ``right_ends`` instead.
    """
    oa: list[int] = []
    ob: list[int] = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na:
        ka, kb = a[i], b[j]
        oa.append(i)
        ob.append(j)
        if ka == kb:
            i += 1
            j += 1
        elif ka < kb:  # a proper prefix sorts first
            j += 1
            if j == nb or not b[j].startswith(ka):
                i += 1
        else:
            i += 1
            if i == na or not a[i].startswith(kb):
                j += 1
    return oa, ob
