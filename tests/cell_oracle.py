"""Sort-based common refinement of cell partitions: the tests' oracle for ``cells.align``."""

from bisect import bisect_right


def refinement(keysets):
    """Cells of the common refinement of complete prefix-free partitions, sorted.

    A key of the sorted union is a refined cell unless the next key
    extends it: every extension of a key sorts right after it.
    """
    keys = sorted(set().union(*keysets))
    return [k for k, nxt in zip(keys, keys[1:] + [None]) if nxt is None or not nxt.startswith(k)]


def cell_owners(refined, prefixes):
    """Index into the sorted ``prefixes`` of the cell containing each refined cell."""
    return [bisect_right(prefixes, cell) - 1 for cell in refined]
