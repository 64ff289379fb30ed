"""Slow reference implementations that the tests compare the package with.

No production path of `hultman` calls these; each one computes by
definition what the package computes by a faster route.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np

from hultman.bruhat import BruhatGraph, element_rows, interval_distances, window_rank_grid
from hultman.groups import Element, absolute_length, compose, inverse


def bruhat_leq_full(u: Element, w: Element) -> bool:
    """u <= w by the entrywise tableau criterion over the whole rank grid."""
    if u.degree != w.degree:
        raise ValueError(f"degree mismatch: {u.degree} vs {w.degree}")
    gu = window_rank_grid(u.window)
    gw = window_rank_grid(w.window)
    return all(a <= b for ru, rw in zip(gu, gw) for a, b in zip(ru, rw))


def undirected_distance(u: Element, w: Element) -> int:
    """l_T(u, w) = l_T(w^{-1} u), by the cycle formula for one element."""
    return absolute_length(compose(inverse(w), u))


def distance_witnesses(
    w: Element, graph: BruhatGraph
) -> Iterator[tuple[Element, int, int]]:
    """Each u <= w with l_D(u,w) != l_T(u,w), as (u, l_D, l_T), in graded
    order: the first one has minimal length."""
    if w.ctx != graph.ctx:
        raise ValueError(f"{w} is not an element of the graph's group")
    rows, l_d, l_t = interval_distances(graph, int(element_rows(w.ctx, w.window)[0]))
    return (
        (graph.ctx.elements[rows[k]], int(l_d[k]), int(l_t[k]))
        for k in np.flatnonzero(l_d != l_t).tolist()
    )
