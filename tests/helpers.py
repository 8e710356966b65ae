"""Builders shared by several test modules."""

import numpy as np

from spcarec.graph import ObservationGraph, random_graph_bucketed
from spcarec.harness import DEFAULT_MAX_TRIES, _child_seed, gen_instance
from spcarec.numerics import SymMatrix


def _complete_with_loops(n):
    return ObservationGraph(n, [(i, j) for i in range(n) for j in range(i, n)])


def _random_sym(rng, d):
    a = rng.standard_normal((d, d))
    return SymMatrix(a + a.T)


def _simple_top(rng, d, min_gap=0.5):
    """Random symmetric matrix whose top eigenvalue is simple by at least min_gap."""
    m = _random_sym(rng, d)
    vals, vecs = np.linalg.eigh(m.a)
    gap = vals[-1] - vals[-2]
    if gap < min_gap:
        m = SymMatrix(m.a + (min_gap - gap) * np.outer(vecs[:, -1], vecs[:, -1]))
    return m


def _experiment_matrix(d, s, gap, budget, bucket, seed, b, rep):
    """The observed matrix of repetition `rep` of bucket `b` (sigma = 0),
    built the way the experiment harness builds it."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, b, rep, 0)))
    support = np.sort(rng.choice(d, size=s, replace=False))
    g = random_graph_bucketed(
        d, budget, support, *bucket, DEFAULT_MAX_TRIES, _child_seed(seed, b, rep, 1)
    )
    inst = gen_instance(d, s, gap, 0.0, g, _child_seed(seed, b, rep, 2), support=support)
    return inst.m
