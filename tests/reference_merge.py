"""Slow set-based reference for the budgeted merge, kept independent of
the production code. Everything here is plain Python loops over explicit
sets; only the keyed-stream convention (Philox keyed by seed/purpose/task)
and the two draws made from it are shared, because both sides must draw
identical subsets and fills.
"""

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


def reference_tunable_merge(taus, budgets, seed):
    """Literal execution of the budgeted merge: one claim sweep, then the fill.

    ``taus`` is a list of T equal-length lists. Returns (merged values,
    owners, provenance) with 1-based task ids, provenance 1 for claimed
    elements and 0 for the residual random fill.
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

    labels = [task for task in range(1, num_tasks + 1) for _ in range(deficits[task - 1])]
    labels = keyed_stream(seed, 3, 0).permutation(np.asarray(labels, dtype=np.int64)).tolist()
    leftovers = sorted(unassigned)
    assert len(labels) == len(leftovers)
    for p, task in zip(leftovers, labels):
        owner[p] = task
        provenance[p] = 0

    merged = [taus[owner[p] - 1][p] for p in range(dim)]
    return merged, owner, provenance
