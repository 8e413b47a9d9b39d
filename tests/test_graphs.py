"""Graph container, exact pair counting, generators, file format."""

import hashlib
import math
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kurasync import (
    GenerationError,
    Graph,
    InputError,
    check_mixing_bounds,
    daido,
    degree_extrema,
    edges_between,
    er_prediction,
    expander_profile,
    gen_erdos_renyi,
    gen_named,
    gen_random_regular,
    read_edge_list,
    write_edge_list,
)
from kurasync import graphs

from _oracles import (
    bf_edges_between,
    canonical_graph_arrays,
    edge_list_text,
    er_degree_sequence,
    er_edges_reference,
    pairing_reference,
)


def test_complete_graph_counts():
    for n in (1, 2, 5, 9):
        g = gen_named("complete", n)
        assert g.n == n
        assert g.m == n * (n - 1) // 2
        assert np.all(g.degrees == n - 1)


def test_named_family_shapes():
    g = gen_named("cycle", 7)
    assert g.m == 7 and np.all(g.degrees == 2)

    g = gen_named("path", 7)
    assert g.m == 6
    assert sorted(g.degrees.tolist()) == [1, 1, 2, 2, 2, 2, 2]

    g = gen_named("star", 7)
    assert g.m == 6
    assert g.degrees[0] == 6  # hub first

    # two K_5 blocks plus the single bridge edge
    g = gen_named("two_cliques_bridged", 10)
    assert g.m == 2 * 10 + 1
    assert degree_extrema(g) == (4, 5)
    assert edges_between(g, range(5), range(5, 10)) == 1


def test_named_family_errors():
    with pytest.raises(InputError):
        gen_named("cycle", 2)
    with pytest.raises(InputError):
        gen_named("two_cliques_bridged", 9)
    with pytest.raises(InputError):
        gen_named("hypercube", 8)


# every source of a graph takes its vertex count through one check
_N_SOURCES = {
    "Graph": lambda n: Graph(n, []),
    **{f"gen_named-{family}": (lambda n, family=family: gen_named(family, n))
       for family in ("cycle", "path", "complete", "star", "two_cliques_bridged")},
    "gen_erdos_renyi": lambda n: gen_erdos_renyi(n, 0.5, 0),
    "gen_random_regular": lambda n: gen_random_regular(n, 2, 0),
}
_NOT_COUNTS = (10.0, np.float64(6.0), True, False, "6", None, -3)


@pytest.mark.parametrize("source, bad", [
    *((source, bad) for source in _N_SOURCES for bad in _NOT_COUNTS + (0,)),
    *(("gen_random_regular-d", bad) for bad in _NOT_COUNTS + (1.5,)),
])
def test_graph_sources_reject_a_count_that_is_not_an_integer(source, bad):
    # a float, a bool, a string or None is never truncated or coerced:
    # gen_random_regular(4, 1.5, 0) once built a 1-regular graph and
    # gen_named("complete", True) a K_1
    if source == "gen_random_regular-d":
        with pytest.raises(InputError, match="degree must be a non-negative integer"):
            gen_random_regular(4, bad, 0)
    else:
        with pytest.raises(InputError, match="vertex count must be a positive integer"):
            _N_SOURCES[source](bad)


def test_graph_sources_accept_numpy_integer_counts():
    assert Graph(np.int64(3), []).n == 3
    assert gen_named("path", np.int32(4)).m == 3
    assert gen_erdos_renyi(np.int64(5), 1.0, 0).m == 10
    assert gen_random_regular(np.int64(6), np.int64(2), 0).m == 6


# the other counts of the library take the same integer check: (call, a valid count)
_C8 = gen_named("cycle", 8)
_COUNTS = {
    "check_mixing_bounds-trials": (
        lambda k: check_mixing_bounds(_C8, expander_profile(_C8), trials=k, seed=0), 3),
    "er_prediction-n": (lambda k: er_prediction(k, 3.0, 0.25), 100_000),
    "daido-k": (lambda k: daido(np.linspace(0.0, 1.0, 5), k), 2),
}


@pytest.mark.parametrize("count", _COUNTS)
def test_library_counts_are_integers(count):
    # check_mixing_bounds(trials=2.5) raised TypeError and took trials=True,
    # er_prediction rejected np.int64(100000), and daido took True as k = 1
    call, good = _COUNTS[count]
    for bad in (2.5, np.float64(3.0), True):
        with pytest.raises(InputError, match="integer"):
            call(bad)
    assert call(np.int64(good)) == call(good)


def test_constructor_normalizes_edges():
    # duplicates in either orientation collapse to one edge
    g = Graph(4, [(0, 1), (1, 0), (0, 1), (2, 3)])
    assert g.m == 2
    eu, ev = g.edge_arrays()
    assert eu.tolist() == [0, 2] and ev.tolist() == [1, 3]
    assert np.all(eu < ev)


def graph_arrays(g):
    eu, ev = g.edge_arrays()
    A = g.adjacency()
    return eu, ev, A.indptr, A.indices


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_constructor_matches_set_oracle(data):
    n = data.draw(st.integers(2, 30), label="n")
    pair = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)).map(
        lambda t: (t[0], (t[0] + t[1]) % n))
    pairs = data.draw(st.lists(pair, max_size=60), label="pairs")
    # repeats in both orientations
    pairs += pairs[::2] + [(v, u) for u, v in pairs[::3]]
    form = data.draw(st.sampled_from(
        ["list", "tuple", "generator", "lists", "np_scalars", "int8", "uint16", "int64"]))
    if form == "list":
        edges = pairs
    elif form == "tuple":
        edges = tuple(pairs)
    elif form == "generator":
        edges = (p for p in pairs)
    elif form == "lists":
        edges = [list(p) for p in pairs]
    elif form == "np_scalars":
        edges = [(np.int32(u), np.uint8(v)) for u, v in pairs]
    else:
        edges = np.array(pairs, dtype=form).reshape(-1, 2)
    g = Graph(n, edges)
    want = canonical_graph_arrays(n, pairs)
    assert g.n == n and g.m == len(want[0])
    for got, ref in zip(graph_arrays(g), want):
        assert got.tolist() == ref
    # the edge arrays are int64; the CSR keeps scipy's index dtype
    assert all(a.dtype == np.int64 for a in g.edge_arrays())


@pytest.mark.parametrize("kind", ["presorted", "shuffled", "flipped", "repeats"])
@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), keys=st.sets(st.integers(0, 779), max_size=60),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=1, keys=set(), seed=0)  # m = 0
@example(n=2, keys={0}, seed=0)  # m = 1
def test_constructor_input_order_matches_set_oracle(kind, n, keys, seed):
    # canonical pairs in order take the constructor's no-sort path; any
    # other order, or a repeat, is sorted and deduplicated
    rng = np.random.default_rng(seed)
    iu, iv = np.triu_indices(n, 1)
    keep = sorted(k for k in keys if k < len(iu))
    pairs = np.column_stack((iu[keep], iv[keep])).astype(np.int64).reshape(-1, 2)
    m = len(pairs)
    if kind == "shuffled":
        pairs = pairs[rng.permutation(m)]
    elif kind == "flipped":
        pairs = np.where(rng.random((m, 1)) < 0.5, pairs[:, ::-1], pairs)
    elif kind == "repeats":
        counts = rng.integers(1, 4, size=m)
        counts[:1] = 2
        pairs = np.repeat(pairs, counts, axis=0)
        if seed % 2:
            pairs = pairs[rng.permutation(len(pairs))]
    g = Graph(n, pairs)
    want = canonical_graph_arrays(n, pairs.tolist())
    assert g.n == n and g.m == m == len(want[0])
    for got, ref in zip(graph_arrays(g), want):
        assert got.tolist() == ref


def test_erdos_renyi_rebuilt_through_constructor():
    # the generator's presorted fast path and the validating constructor agree
    rng = np.random.default_rng(3)
    for n, p, seed in [(1, 0.5, 0), (40, 0.0, 1), (120, 0.1, 2), (60, 1.0, 3)]:
        g = gen_erdos_renyi(n, p, seed)
        eu, ev = g.edge_arrays()
        shuffled = np.column_stack((ev, eu))[rng.permutation(g.m)]
        h = Graph(n, shuffled)
        for a, b in zip(graph_arrays(g), graph_arrays(h)):
            assert np.array_equal(a, b)


def test_constructor_rejects_bad_input():
    bad = [
        [(0, 0)],
        [(0, 1), (2, 2)],
        np.array([[0, 1], [1, 1]]),
        [(0, 3)],
        [(0, -1)],
        np.array([[0, 1], [1, 5]]),
        [(0, 1), (2,)],
        [("0", "x")],
        [(0, 1, 2)],
        np.zeros((2, 3), dtype=np.int64),
        [()],
        [0, 1],
        [(None, 1)],
        [(2 ** 70, 1)],
    ]
    for edges in bad:
        with pytest.raises(InputError):
            Graph(3, edges)
    with pytest.raises(InputError):
        Graph(0, [])


def test_neighbor_structure():
    g = Graph(5, [(0, 1), (0, 3), (1, 3), (2, 3)])
    assert g.neighbors(3).tolist() == [0, 1, 2]
    assert g.neighbors(4).tolist() == []
    assert g.degrees.tolist() == [2, 2, 1, 3, 0]
    assert int(g.degrees.sum()) == 2 * g.m
    A = g.adjacency()
    assert (A != A.T).nnz == 0
    assert A.diagonal().sum() == 0.0
    with pytest.raises(InputError):
        g.neighbors(5)


def test_neighbors_view_is_read_only():
    g = gen_named("cycle", 6)
    with pytest.raises(ValueError):
        g.neighbors(0)[0] = 3
    assert g.neighbors(0).tolist() == [1, 5]
    assert edges_between(g, [0], [1, 5]) == 2
    assert g.adjacency().indices.tolist() == [1, 5, 0, 2, 1, 3, 2, 4, 3, 5, 0, 4]


def test_adjacency_arrays_are_read_only():
    # every flow, eigensolve and edge count of the graph reads this CSR
    g = gen_named("cycle", 6)
    A = g.adjacency()
    for arr, value in ((A.indices, 3), (A.data, 2.0), (A.indptr, 0)):
        with pytest.raises(ValueError):
            arr[0] = value
    assert g.adjacency().indices.tolist() == [1, 5, 0, 2, 1, 3, 2, 4, 3, 5, 0, 4]
    assert g.adjacency().data.tolist() == [1.0] * 12
    assert edges_between(g, [0], [1, 5]) == 2


def test_edges_between_matches_brute_force():
    rng = np.random.default_rng(42)
    graphs = [
        gen_erdos_renyi(30, 0.2, 1),
        gen_erdos_renyi(30, 0.8, 2),
        gen_named("star", 17),
        gen_named("two_cliques_bridged", 12),
        gen_named("complete", 9),
        Graph(10, []),
    ]
    for g in graphs:
        for _ in range(25):
            xs = rng.choice(g.n, size=rng.integers(1, g.n), replace=False)
            ys = rng.choice(g.n, size=rng.integers(1, g.n), replace=False)
            assert edges_between(g, xs, ys) == bf_edges_between(g, xs, ys)
            assert edges_between(g, xs, xs) == bf_edges_between(g, xs, xs)


def test_edges_between_identities():
    rng = np.random.default_rng(7)
    g = gen_erdos_renyi(40, 0.3, 3)
    everything = np.arange(g.n)
    for _ in range(20):
        xs = rng.choice(g.n, size=rng.integers(1, g.n // 2), replace=False)
        comp = np.setdiff1d(everything, xs)
        exx = edges_between(g, xs, xs)
        # double-sum convention: internal edges count twice
        assert exx % 2 == 0
        assert edges_between(g, xs, everything) == int(g.degrees[xs].sum())
        assert exx + edges_between(g, xs, comp) == int(g.degrees[xs].sum())
        assert edges_between(g, xs, comp) == edges_between(g, comp, xs)
    assert edges_between(g, everything, everything) == 2 * g.m


def test_edges_between_rejects_bad_sets():
    g = gen_named("cycle", 6)
    with pytest.raises(InputError):
        edges_between(g, [0, 0, 1], [2])
    with pytest.raises(InputError):
        edges_between(g, [0], [6])
    with pytest.raises(InputError):
        edges_between(g, np.array([3, -1]), [2])
    assert edges_between(g, [], [0, 1]) == 0
    assert edges_between(g, np.empty(0), [0, 1]) == 0
    # members must be integers: no silent truncation of 0.5 or 2.0
    for bad in ([0.5], np.array([1.0, 2.0]), [[0], [1]], ["a"], [True, False],
                [1, [2]], 3, [2 ** 70]):
        with pytest.raises(InputError):
            edges_between(g, bad, [0, 1, 2])


def test_edges_between_accepts_integer_containers():
    g = gen_erdos_renyi(200, 0.1, 4)
    xs = [199, 5, 127, 0, 64]
    ys = list(range(100, 200))
    want = bf_edges_between(g, xs, ys)
    for form in (list, tuple, set, iter, np.array, lambda v: np.array(v, np.uint8),
                 lambda v: [np.int16(x) for x in v]):
        assert edges_between(g, form(xs), ys) == want
    # vertex 127 at the top of int8: no wrap-around when indexing its row end
    assert edges_between(g, np.array([127, 3], np.int8), ys) == \
        bf_edges_between(g, [127, 3], ys)
    assert edges_between(g, range(120, 130), np.array(ys, np.uint16)) == \
        bf_edges_between(g, range(120, 130), ys)


def test_erdos_renyi_reproducible_and_simple():
    a = gen_erdos_renyi(200, 0.1, 11)
    b = gen_erdos_renyi(200, 0.1, 11)
    assert np.array_equal(a.edge_arrays()[0], b.edge_arrays()[0])
    assert np.array_equal(a.edge_arrays()[1], b.edge_arrays()[1])
    c = gen_erdos_renyi(200, 0.1, 12)  # seed matters
    assert (c.m, c.edge_arrays()[0].tolist()) != (a.m, a.edge_arrays()[0].tolist())

    eu, ev = a.edge_arrays()
    assert np.all(eu < ev)
    pairs = set(zip(eu.tolist(), ev.tolist()))
    assert len(pairs) == a.m  # no duplicates


def test_erdos_renyi_extremes():
    assert gen_erdos_renyi(50, 0.0, 0).m == 0
    g = gen_erdos_renyi(50, 1.0, 0)
    assert g.m == 50 * 49 // 2
    assert gen_erdos_renyi(1, 0.5, 0).m == 0
    with pytest.raises(InputError):
        gen_erdos_renyi(10, 1.5, 0)


def test_erdos_renyi_edge_count_concentrates():
    # 4 sigma window around the binomial mean
    n, p = 300, 0.25
    pairs = n * (n - 1) // 2
    sigma = np.sqrt(pairs * p * (1 - p))
    for seed in range(5):
        m = gen_erdos_renyi(n, p, seed).m
        assert abs(m - pairs * p) < 4 * sigma


def test_erdos_renyi_degree_stream_oracle():
    # degree-only resampling must reproduce the generator exactly
    for n, p, seed in [(400, 0.07, 5), (150, 0.5, 9), (60, 0.01, 3)]:
        g = gen_erdos_renyi(n, p, seed)
        assert np.array_equal(er_degree_sequence(n, p, seed), g.degrees)


def assert_er_matches_reference(n, p, seed):
    eu, ev = gen_erdos_renyi(n, p, seed).edge_arrays()
    want_u, want_v = er_edges_reference(n, p, seed)
    assert np.array_equal(eu, want_u) and np.array_equal(ev, want_v)
    return len(want_u)


@pytest.mark.parametrize("n,p,seed,block", [
    (12, 0.3, 0, 100),  # 66 pairs: one partial block
    (12, 0.3, 1, 66),  # exactly one block
    (40, 0.2, 2, 64),  # 780 pairs: twelve blocks and a partial one
    (1500, 0.01, 3, None),  # 1,124,250 pairs: sixty-eight real blocks and a partial one
])
def test_erdos_renyi_blocks_match_one_draw(monkeypatch, n, p, seed, block):
    if block is None:
        assert n * (n - 1) // 2 > 4 * graphs._ER_BLOCK
    else:
        monkeypatch.setattr(graphs, "_ER_BLOCK", block)
    assert assert_er_matches_reference(n, p, seed) > 0


# (n, p, seed, what the case covers), in blocks of 64 pairs: the 780 pairs
# of n = 40 fill twelve blocks and the 12 pairs of a last one
EDGE_CASES = [
    (40, 0.003, 14, "no edge in the first block"),
    (40, 0.003, 0, "no edge in the last block"),
    (40, 0.0, 0, "p = 0"),
    (40, 1.0, 0, "p = 1"),
    (2, 1.0, 0, "n = 2: one pair"),
    (1, 0.5, 0, "n = 1: no pair"),
]


@pytest.mark.parametrize("n,p,seed,case", EDGE_CASES, ids=[c[3] for c in EDGE_CASES])
def test_erdos_renyi_matches_one_draw(monkeypatch, n, p, seed, case):
    monkeypatch.setattr(graphs, "_ER_BLOCK", 64)
    assert_er_matches_reference(n, p, seed)
    if "no edge" in case:
        # the case's block is empty, and the block at the other end is not
        hits = np.flatnonzero(np.random.default_rng(seed).random(780) < p)
        first, last = (hits < 64).any(), (hits >= 768).any()
        assert (first, last) == ((False, True) if "first" in case else (True, False))


def test_erdos_renyi_at_scale_is_pinned():
    # near the connectivity threshold at n = 10^4, where the reference draw
    # would hold 1.2 GB: the edge count and a digest of the edge arrays
    n, p = 10_000, 3 * math.log(10_000) / 10_000
    eu, ev = gen_erdos_renyi(n, p, 5).edge_arrays()
    assert len(eu) == 138_421
    digest = hashlib.sha256(eu.astype(np.int64).tobytes() + ev.astype(np.int64).tobytes())
    assert digest.hexdigest() == "188d11d01768c0c1a8f5755710c878e83cd9d1d9604c49f294b17235ab6c7f3b"


def test_erdos_renyi_starts_no_thread(monkeypatch):
    def refuse(self):
        raise AssertionError(f"gen_erdos_renyi started thread {self.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert gen_erdos_renyi(10_000, 3 * math.log(10_000) / 10_000, 0).m > 0


def test_erdos_renyi_seed_kinds_agree(monkeypatch):
    # an int and its SeedSequence seed one stream, a caller's generator is
    # left where the pair-at-a-time loop leaves it, and a generator of
    # another bit generator draws its own stream the same way
    n, p = 120, 0.1
    monkeypatch.setattr(graphs, "_ER_BLOCK", 256)
    want = er_edges_reference(n, p, 7)
    for seed in (7, np.random.SeedSequence(7), np.random.default_rng(7)):
        got = gen_erdos_renyi(n, p, seed).edge_arrays()
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    rng = np.random.default_rng(7)
    gen_erdos_renyi(n, p, rng)
    after = np.random.default_rng(7)
    after.random(n * (n - 1) // 2)
    assert rng.random() == after.random()

    def mt():
        return np.random.Generator(np.random.MT19937(7))

    iu, iv = np.triu_indices(n, 1)
    keep = mt().random(len(iu)) < p
    got = gen_erdos_renyi(n, p, mt()).edge_arrays()
    assert np.array_equal(got[0], iu[keep]) and np.array_equal(got[1], iv[keep])


def test_erdos_renyi_edge_buffer_grows(monkeypatch):
    # an edge buffer that starts at 16 entries has to grow many times over
    n, p, seed = 300, 0.05, 4
    monkeypatch.setattr(graphs, "_ER_SIGMAS", -math.sqrt(n * (n - 1) // 2 * p))
    eu, ev = gen_erdos_renyi(n, p, seed).edge_arrays()
    want_u, want_v = er_edges_reference(n, p, seed)
    assert len(want_u) > 16 * 2 ** 6
    assert np.array_equal(eu, want_u) and np.array_equal(ev, want_v)


def traced_peak(call):
    """(result, peak bytes that tracemalloc saw allocated during call)."""
    tracemalloc.start()
    try:
        out = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_built_graph_keeps_one_neighbor_store():
    gen_named("complete", 10)  # first-call imports and caches stay out of the count
    tracemalloc.start()
    try:
        g = gen_named("complete", 800)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.m == 319_600
    # 40 bytes per edge: the int64 edge arrays (16) and the CSR's float64
    # data (16) and int32 indices (8); a second, int64 copy of the neighbor
    # indices would add 16
    assert kept <= 41 * g.m


def test_erdos_renyi_memory_stays_small():
    n = 10_000
    g, peak = traced_peak(lambda: gen_erdos_renyi(n, 3 * math.log(n) / n, 0))
    assert g.m == 137_931
    # about 41 bytes per edge: one block of 2^14 uniforms and its mask,
    # then the graph build; one block of 2^21 uniforms alone would break
    # the bound
    assert peak < 100 * g.m


def test_read_edge_list_memory_stays_small(tmp_path):
    path = tmp_path / "k800.txt"
    write_edge_list(gen_named("complete", 800), path)
    g, peak = traced_peak(lambda: read_edge_list(path))
    assert g.m == 319_600
    # about 40 bytes per edge, the built graph: the parsed (m, 2) pairs are
    # split into two columns and freed, and the written, already canonical
    # columns become the graph's edge arrays with no copy or re-sort; keeping
    # the pairs through the build took 56, and a str or StringIO copy of the
    # file's text, or a sorted copy of the keys, would break the bound too
    assert peak < 42 * g.m


def test_write_edge_list_memory_stays_small(tmp_path):
    g = gen_named("complete", 800)
    write_edge_list(g, tmp_path / "warm.txt")
    _, peak = traced_peak(lambda: write_edge_list(g, tmp_path / "k800.txt"))
    # about 1.4 bytes per edge: one block of 2^14 lines of 8 bytes, its
    # compacted copy and mask, and the digit buffers; blocks of 2^16 lines
    # took 5.6, and formatting Python ints per edge took 24
    assert peak < 2 * g.m


def test_random_regular_is_regular_and_simple():
    for n, d, seed in [(20, 3, 0), (50, 7, 1), (16, 15, 2)]:
        g = gen_random_regular(n, d, seed)
        assert np.all(g.degrees == d)
        assert g.m == n * d // 2
        eu, ev = g.edge_arrays()
        assert np.all(eu < ev)
        assert len(set(zip(eu.tolist(), ev.tolist()))) == g.m

    a = gen_random_regular(30, 4, 5)
    b = gen_random_regular(30, 4, 5)
    assert np.array_equal(a.edge_arrays()[0], b.edge_arrays()[0])
    assert np.array_equal(a.edge_arrays()[1], b.edge_arrays()[1])


def regular_arrays(n, d, seed):
    try:
        g = gen_random_regular(n, d, seed)
    except GenerationError as exc:
        return str(exc)
    return tuple(a.tolist() for a in graph_arrays(g))


def reference_arrays(n, d, seed, max_restarts=10000):
    try:
        return tuple(pairing_reference(n, d, seed, max_restarts))
    except GenerationError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_random_regular_matches_sequential_pairing(data):
    n = data.draw(st.integers(1, 60), label="n")
    d = data.draw(st.integers(0, n - 1).filter(lambda d: n * d % 2 == 0), label="d")
    seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
    # few restarts, so dense pairings also reach the GenerationError path
    restarts = data.draw(st.integers(1, 3), label="max_restarts")
    want = reference_arrays(n, d, seed, restarts)
    if d == n - 1 and isinstance(want, str):
        # K_n, the only (n-1)-regular graph, is returned without a pairing
        want = tuple(a.tolist() for a in graph_arrays(gen_named("complete", n)))
    # hypothesis rejects function-scoped fixtures, so no monkeypatch here
    with mock.patch.object(graphs, "_MAX_RESTARTS", restarts):
        assert regular_arrays(n, d, seed) == want


@pytest.mark.parametrize("n,d,seed", [(2000, 200, 0), (2500, 20, 0), (2500, 20, 1)])
def test_random_regular_matches_sequential_pairing_at_scale(n, d, seed):
    got = regular_arrays(n, d, seed)
    assert isinstance(got, tuple)
    assert got == reference_arrays(n, d, seed)


def test_random_regular_runs_out_of_restarts(monkeypatch):
    # 10-regular on 12 vertices: seeds 0-2 get stuck in their one restart,
    # seed 17 completes it (both read off the sequential oracle)
    for seed in (0, 1, 2):
        assert gen_random_regular(12, 10, seed).m == 60
    monkeypatch.setattr(graphs, "_MAX_RESTARTS", 1)
    for seed in (0, 1, 2):
        with pytest.raises(GenerationError, match="in 1 restarts"):
            gen_random_regular(12, 10, seed)
        with pytest.raises(GenerationError):
            pairing_reference(12, 10, seed, 1)
    assert gen_random_regular(12, 10, 17).m == 60


def test_random_regular_of_degree_n_minus_1_is_complete(monkeypatch):
    # the pairing spent 26 s on 10,000 restarts of (60, 59, 4) before failing
    want = graph_arrays(gen_named("complete", 60))
    with monkeypatch.context() as patched:
        patched.setattr(graphs, "_MAX_RESTARTS", 1)
        for seed in (0, 4, 7):
            start = time.perf_counter()
            g = gen_random_regular(60, 59, seed)
            assert time.perf_counter() - start < 0.5
            assert all(np.array_equal(a, b) for a, b in zip(graph_arrays(g), want))
    want = graph_arrays(gen_named("complete", 4))
    for seed in range(8):
        got = graph_arrays(gen_random_regular(4, 3, seed))
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        # the pairing, which succeeds at these seeds, finds the same graph
        assert reference_arrays(4, 3, seed) == tuple(a.tolist() for a in want)


def test_random_regular_memory_stays_linear():
    n, d = 2000, 200
    g, peak = traced_peak(lambda: gen_random_regular(n, d, 0))
    assert g.m == n * d // 2
    # about 49 bytes per edge (9.4 MiB for these 200,000 edges): a round's
    # keys are formed in one of its endpoint buffers and each temporary is
    # dropped once used; rounds that kept both endpoint arrays and an int64
    # diff of the sorted keys took 73
    assert peak < 60 * g.m


def test_random_regular_rejects_impossible():
    with pytest.raises(InputError):
        gen_random_regular(5, 3, 0)  # odd n*d
    with pytest.raises(InputError):
        gen_random_regular(5, 5, 0)  # d >= n
    assert gen_random_regular(5, 0, 0).m == 0


def test_edge_list_round_trip(tmp_path):
    # K_400 has 79,800 edges, more than one formatting block of the writer
    for g in (gen_erdos_renyi(35, 0.3, 21), gen_erdos_renyi(5, 0.0, 0),
              gen_named("complete", 400)):
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        assert path.read_text(encoding="utf-8") == edge_list_text(g)
        h = read_edge_list(path)
        assert h.n == g.n and h.m == g.m
        for a, b in zip(graph_arrays(g), graph_arrays(h)):
            assert np.array_equal(a, b)


def digit_width_graphs():
    """Graphs whose vertex numbers cross each decimal width, with and
    without edges at the crossing."""
    crossings = [(0, 1), (9, 10), (99, 100), (999, 1000), (8, 9), (0, 999), (10, 99)]
    for n in (1, 2, 10, 11, 100, 101, 1001):
        yield Graph(n, [(u, v) for u, v in crossings if v < n] + [(0, n - 1)] * (n > 1))
    yield Graph(1001, [])
    yield gen_named("complete", 64)


@pytest.mark.parametrize("block", [3, 4, 1 << 16])
def test_edge_list_bytes_match_oracle(tmp_path, monkeypatch, block):
    # with blocks of 3 and 4 lines some lists end inside a block and some
    # at its end (K_64's 2,016 edges fill 672 blocks of 3 and 504 of 4)
    monkeypatch.setattr(graphs, "_WRITE_BLOCK", block)
    path = tmp_path / "g.txt"
    for g in digit_width_graphs():
        write_edge_list(g, path)
        assert path.read_bytes() == edge_list_text(g).encode("utf-8")
        h = read_edge_list(path)
        assert h.n == g.n and h.m == g.m
        for a, b in zip(graph_arrays(g), graph_arrays(h)):
            assert np.array_equal(a, b)


MALFORMED_EDGE_LISTS = {
    "empty": "",
    "bad_header": "3\n",
    "count_mismatch": "3 2\n0 1\n",
    "orientation": "3 1\n1 0\n",
    "duplicate": "3 2\n0 1\n0 1\n",
    "loop": "3 1\n1 1\n",
    "tokens": "3 1\n0 1 2\n",
    "ragged": "3 2\n0 1\n2\n",
    "non_integer": "3 1\n0 x\n",
    "float": "3 1\n0 1.0\n",
    "out_of_range": "3 1\n0 3\n",
    # the header follows the body's integer grammar: int() would read
    # these as n = 10 and n = 3, np.loadtxt rejects both in an edge line
    "header_underscore": "1_0 1\n0 1\n",
    "header_non_ascii_digit": "\u0663 1\n0 1\n",
    "header_float": "3.0 1\n0 1\n",
    "no_vertices": "0 0\n",
    "negative_vertices": "-3 0\n",
}


def test_edge_list_rejects_malformed(tmp_path):
    for name, text in MALFORMED_EDGE_LISTS.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(InputError) as info:
            read_edge_list(path)
        # every error names the file, also those of the graph's own checks
        assert str(info.value).startswith(f"{path}: "), (name, str(info.value))
    # a sign is part of the grammar, in the header as in the body
    path = tmp_path / "signed.txt"
    path.write_text("+3 1\n0 +1\n", encoding="utf-8")
    g = read_edge_list(path)
    assert (g.n, g.m) == (3, 1)
    # the one canonicalization finds the repeat and the error names it
    path = tmp_path / "repeat.txt"
    path.write_text("4 3\n0 1\n2 3\n0 1\n", encoding="utf-8")
    with pytest.raises(InputError, match="duplicate edge '0 1'"):
        read_edge_list(path)
    # bytes that are not UTF-8, in the header's read and deep in the body
    body = "".join(f"{i} {i + 1}\n" for i in range(2000)).encode()
    for data in (b"3 1\n0 \xff1\n", b"3000 2001\n" + body + b"5 \xff7\n"):
        path.write_bytes(data)
        with pytest.raises(InputError, match="not UTF-8 text"):
            read_edge_list(path)


def test_vertex_count_beyond_the_edge_key_range_is_an_input_error(tmp_path):
    # edges are keyed u * n + v in int64, so n^2 may not exceed 2^63 - 1;
    # every n here is refused before anything of size n is allocated
    assert graphs._MAX_VERTICES == 3_037_000_499
    huge = 10 ** 20
    for build in (lambda: Graph(huge, []),
                  lambda: Graph(huge, [(0, 1)]),
                  lambda: gen_named("cycle", huge),
                  lambda: gen_named("complete", huge),
                  lambda: gen_erdos_renyi(huge, 0.1, 1),
                  lambda: gen_random_regular(huge, 3, 1),
                  lambda: Graph(3_037_000_500, [])):
        with pytest.raises(InputError, match="exceeds the largest supported, 3037000499"):
            build()
    path = tmp_path / "huge.txt"
    path.write_text(f"{huge} 0\n", encoding="utf-8")
    with pytest.raises(InputError, match=f"^{path}: vertex count {huge} exceeds"):
        read_edge_list(path)


@pytest.mark.parametrize("sep", ["\t", "\f", "\v", "\x1c", "\x1d", "\x1e", "\x1f",
                                 "\u00a0", "\u2003", " \t\u00a0 "])
def test_edge_list_field_separators(tmp_path, sep):
    # np.loadtxt on a text handle splits fields on any run of whitespace
    # that str.split() knows, not only on spaces and tabs; the header's
    # str.split() agrees with it
    path = tmp_path / "g.txt"
    path.write_text(f"3{sep}2\n0{sep}1\n1{sep}2{sep}\n", encoding="utf-8", newline="")
    g = read_edge_list(path)
    assert (g.n, g.m) == (3, 2)
    assert [a.tolist() for a in g.edge_arrays()] == [[0, 1], [1, 2]]


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_edge_list_line_ends(tmp_path, end):
    # the file is opened with universal newlines: LF, CRLF and a lone CR
    # each end a line
    path = tmp_path / "g.txt"
    path.write_text(f"3 2{end}0 1{end}1 2{end}", encoding="utf-8", newline="")
    g = read_edge_list(path)
    assert [a.tolist() for a in g.edge_arrays()] == [[0, 1], [1, 2]]
    # so a CR inside an edge line splits it in two, which the count rejects
    path.write_text(f"3 1{end}0\r1{end}", encoding="utf-8", newline="")
    with pytest.raises(InputError, match="header claims 1 edges, found 2"):
        read_edge_list(path)


def test_degree_extrema():
    g = gen_named("star", 9)
    assert degree_extrema(g) == (1, 8)
    g = gen_named("cycle", 9)
    assert degree_extrema(g) == (2, 2)
