"""One band layout: every view of the band against its loop oracle.

:meth:`PathRepresentation.directed_band` is the only place the band is
sorted.  The attention plan, the dense slot plan and the batched
:class:`MegaRuntime` order are all derived from it.  The oracles below
are the per-edge loops and the global sort those views used to be, kept
here so the derived views must stay bit-identical to them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import MegaConfig
from repro.core.diagonal import make_attention_plan, make_dense_band_plan
from repro.core.path import PathRepresentation
from repro.errors import GraphError
from repro.graph.batch import GraphBatch
from repro.graph.graph import Graph
from repro.models.runtime import MegaRuntime
from tests.strategies import batches, graphs

PLAN_ARRAYS = ("src_pos", "dst_pos", "edge_ids", "unique_edge_rows",
               "mirror_index")


def unsorted_directed_band(rep):
    """Both message directions of the band, in band-record order."""
    i, j, e = rep.band.pos_src, rep.band.pos_dst, rep.band.edge_ids
    loops = rep.graph.src[e] == rep.graph.dst[e]
    return (np.concatenate([i, j[~loops]]), np.concatenate([j, i[~loops]]),
            np.concatenate([e, e[~loops]]))


def oracle_attention_plan(rep, symmetric_reuse):
    """Lexsort the band, then number edges in a per-row dict loop."""
    src, dst, eids = unsorted_directed_band(rep)
    order = np.lexsort((src, dst))
    src, dst, eids = src[order], dst[order], eids[order]
    if symmetric_reuse:
        seen = {}
        rep_rows = np.zeros(len(eids), dtype=bool)
        mirror = np.zeros(len(eids), dtype=np.int64)
        for row, e in enumerate(eids.tolist()):
            if e not in seen:
                seen[e] = len(seen)
                rep_rows[row] = True
            mirror[row] = seen[e]
    else:
        rep_rows = np.ones(len(eids), dtype=bool)
        mirror = np.arange(len(eids), dtype=np.int64)
    return {"src_pos": src, "dst_pos": dst, "edge_ids": eids,
            "unique_edge_rows": rep_rows, "mirror_index": mirror}


def oracle_edge_slot(rep):
    """The per-edge loop over undirected band records."""
    omega = rep.window
    edge_slot = np.full((rep.length, 2 * omega + 1), -1, dtype=np.int64)
    for i, j, e in zip(rep.band.pos_src.tolist(), rep.band.pos_dst.tolist(),
                       rep.band.edge_ids.tolist()):
        if i == j:
            edge_slot[i, omega] = e
            continue
        edge_slot[j, omega - (j - i)] = e
        edge_slot[i, omega + (j - i)] = e
    return edge_slot


def oracle_runtime_order(reps):
    """Concatenate the unsorted bands with offsets, then sort globally."""
    empty = np.array([], np.int64)
    src, dst, eids = [empty], [empty], [empty]
    pos_offset = edge_offset = 0
    for rep in reps:
        s, d, e = unsorted_directed_band(rep)
        src.append(s + pos_offset)
        dst.append(d + pos_offset)
        eids.append(e + edge_offset)
        pos_offset += rep.length
        edge_offset += rep.graph.num_edges
    src, dst, eids = (np.concatenate(x) for x in (src, dst, eids))
    order = np.lexsort((src, dst))
    return src[order], dst[order], eids[order]


def rep_of(graph, window=None):
    return PathRepresentation.from_graph(graph, MegaConfig(window=window))


window_or_adaptive = st.one_of(st.none(), st.integers(1, 4))


@settings(max_examples=60, deadline=None)
@given(graph=graphs(), window=window_or_adaptive,
       symmetric_reuse=st.booleans())
def test_attention_plan_matches_sort_and_dict_loop(graph, window,
                                                   symmetric_reuse):
    rep = rep_of(graph, window)
    plan = make_attention_plan(rep, symmetric_reuse)
    want = oracle_attention_plan(rep, symmetric_reuse)
    for name in PLAN_ARRAYS:
        got = getattr(plan, name)
        assert got.dtype == want[name].dtype, name
        assert np.array_equal(got, want[name]), name
    assert (plan.num_positions, plan.window) == (rep.length, rep.window)


@settings(max_examples=60, deadline=None)
@given(graph=graphs(), window=window_or_adaptive)
def test_dense_band_plan_matches_per_edge_loop(graph, window):
    rep = rep_of(graph, window)
    dense = make_dense_band_plan(rep)
    want = oracle_edge_slot(rep)
    assert np.array_equal(dense.edge_slot, want)
    assert np.array_equal(dense.mask, want >= 0)
    assert np.array_equal(dense.offsets,
                          np.arange(-rep.window, rep.window + 1))


@settings(max_examples=40, deadline=None)
@given(members=batches(), window=window_or_adaptive)
def test_runtime_order_matches_global_lexsort(members, window):
    reps = [rep_of(g, window) for g in members]
    runtime = MegaRuntime(GraphBatch(members), reps)
    pos_src, pos_dst, eids = oracle_runtime_order(reps)
    assert np.array_equal(runtime.pos_src, pos_src)
    assert np.array_equal(runtime.pos_dst, pos_dst)
    assert np.array_equal(runtime.msg_edge, eids)
    assert np.array_equal(runtime.msg_src, runtime.path[pos_src])
    assert np.array_equal(runtime.msg_dst, runtime.path[pos_dst])


@settings(max_examples=30, deadline=None)
@given(graph=graphs())
def test_directed_band_is_sorted_once_and_read_only(graph):
    rep = rep_of(graph)
    src, dst, eids = band = rep.directed_band()
    assert all(a is b for a, b in zip(band, rep.directed_band()))
    keys = dst * max(rep.length, 1) + src
    assert np.all(np.diff(keys) > 0)
    for arr in band:
        with pytest.raises(ValueError):
            arr[:0] = 0
    assert sorted(eids.tolist()) == sorted(
        unsorted_directed_band(rep)[2].tolist())


@settings(max_examples=30, deadline=None)
@given(graph=graphs(shapes=("star", "path", "random", "disconnected")),
       data=st.data())
def test_repeated_node_pair_is_rejected(graph, data):
    """Any edge record repeated, in either orientation, is a GraphError."""
    if graph.num_edges == 0:
        return
    k = data.draw(st.integers(0, graph.num_edges - 1))
    u, v = int(graph.src[k]), int(graph.dst[k])
    if data.draw(st.booleans()):
        u, v = v, u
    twin = Graph(graph.num_nodes, np.append(graph.src, u),
                 np.append(graph.dst, v))
    with pytest.raises(GraphError, match=f"edges {k} and {graph.num_edges}"):
        rep_of(twin)
