"""Slow set-based reference for the budgeted merge, kept independent of
the production code. Everything here is plain Python loops over explicit
sets; only the keyed-stream convention (Philox keyed by seed/purpose/task)
and the draws made from it are shared, because both sides must draw
identical subsets and fills.
"""

from math import isqrt

import numpy as np


def keyed_stream(seed, purpose, task):
    key = np.empty(2, dtype=np.uint64)
    key[0] = np.uint64(seed)
    key[1] = np.uint64(((purpose & 0xFFFFFFFF) << 32) | (task & 0xFFFFFFFF))
    return np.random.Generator(np.random.Philox(key=key))


def argmax_later_wins(values):
    """Index of the maximum; on ties the *last* position wins."""
    best = 0
    for index in range(1, len(values)):
        if values[index] >= values[best]:
            best = index
    return best


def fill_slots(deficits, slack=6):
    """Slots of the 2**16-slot fill table per task: the deficit less its slack, as a share of the total."""
    total = sum(deficits)
    return [(max(c - slack * isqrt(c) - slack, 0) << 16) // total if total else 0 for c in deficits]


def reference_fill(deficits, seed, slack=6):
    """Task ids for the leftover elements in flat-index order.

    Each leftover draws one of 2**16 table slots with one uint16 draw per
    leftover, all in one call; slots past the tasks' shares are blank. The
    whole draw is repeated while any task is drawn more often than its
    deficit. The blanks then take the rest of each deficit, as an ascending
    list of task ids shuffled by the same stream. No slots, no draws.
    """
    total = sum(deficits)
    stream = keyed_stream(seed, 3, 0)
    slots = fill_slots(deficits, slack)
    table = [task for task, share in enumerate(slots, start=1) for _ in range(share)]
    table += [0] * (2**16 - len(table))
    labels = [0] * total
    while any(slots):
        draws = stream.integers(0, 2**16, size=total, dtype=np.uint16).tolist()
        labels = [table[u] for u in draws]
        if all(labels.count(task) <= c for task, c in enumerate(deficits, start=1)):
            break
    rest = [task for task, c in enumerate(deficits, start=1) for _ in range(c - labels.count(task))]
    rest = iter(stream.permutation(np.asarray(rest, dtype=np.int64)).tolist())
    return [label or next(rest) for label in labels]


def reference_tunable_merge(taus, budgets, seed, slack=6):
    """Literal execution of the budgeted merge: one claim sweep, then the fill.

    ``taus`` is a list of T equal-length lists. Returns (merged values,
    owners, provenance) with 1-based task ids, provenance 1 for claimed
    elements and 0 for the residual random fill. ``slack`` is the fill
    table's slack (see :func:`fill_slots`).
    """
    num_tasks = len(taus)
    dim = len(taus[0])
    assert sum(budgets) == dim

    unassigned = set(range(dim))
    owner = [0] * dim
    provenance = [-1] * dim
    deficits = list(budgets)

    for task in range(num_tasks, 0, -1):
        if budgets[task - 1] == 0:
            continue
        claim = sorted(
            p
            for p in unassigned
            if argmax_later_wins([abs(taus[i][p]) for i in range(task)]) == task - 1
        )
        if len(claim) > budgets[task - 1]:
            kept = keyed_stream(seed, 1, task).choice(len(claim), budgets[task - 1], replace=False, shuffle=False)
            claim = [claim[k] for k in kept]
        for p in claim:
            owner[p] = task
            provenance[p] = 1
            unassigned.discard(p)
        deficits[task - 1] -= len(claim)

    labels = reference_fill(deficits, seed, slack)
    leftovers = sorted(unassigned)
    assert len(labels) == len(leftovers)
    for p, task in zip(leftovers, labels):
        owner[p] = task
        provenance[p] = 0

    merged = [taus[owner[p] - 1][p] for p in range(dim)]
    return merged, owner, provenance
