"""Undirected simple graphs, deterministic generators, and exact edge counting.

The edge-count convention follows the double sum e(X, Y) = sum over x in X,
y in Y of A[x, y]. In particular an edge with both endpoints in X contributes
2 to e(X, X). This differs from the common "number of edges" convention and
is documented wherever counts surface.
"""

from __future__ import annotations

import itertools
import math
import re

import numpy as np
from scipy.sparse import csr_matrix

from .errors import GenerationError, InputError

__all__ = [
    "Graph",
    "gen_named",
    "gen_erdos_renyi",
    "gen_random_regular",
    "edges_between",
    "degree_extrema",
    "read_edge_list",
    "write_edge_list",
]


# the most vertices a graph may have: its edges are keyed u * n + v < n^2
# in int64, so n^2 may not exceed 2^63 - 1
_MAX_VERTICES = math.isqrt(2**63 - 1)


def _is_integer(x):
    """A Python or numpy integer; a bool is not one."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _check_vertex_count(n):
    """Raise InputError for an n that is not a positive integer or is too
    large to key its edges in int64, before anything of size n is
    allocated."""
    if not _is_integer(n) or n < 1:
        raise InputError(f"vertex count must be a positive integer, got {n!r}")
    if n > _MAX_VERTICES:
        raise InputError(f"vertex count {n} exceeds the largest supported, {_MAX_VERTICES}")


class Graph:
    """Immutable undirected simple graph on vertices 0..n-1.

    Stores the m edges as lexsorted int64 arrays (u, v) with u < v, and the
    scipy CSR adjacency (both orientations, sorted rows, unit weights, in
    scipy's index dtype), which is the only neighbor store. Safe to share
    across threads after construction.
    """

    __slots__ = ("n", "m", "_eu", "_ev", "_csr")

    def __init__(self, n, edges):
        _check_vertex_count(n)
        n = int(n)
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        try:
            pairs = np.asarray(edges, dtype=np.int64)
        except (TypeError, ValueError, OverflowError):
            raise InputError("edges must be pairs of integer vertices")
        if pairs.shape == (0,):
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise InputError(f"edges must be vertex pairs, got shape {pairs.shape}")
        eu, ev, _ = _canonical_edges(n, np.minimum(pairs[:, 0], pairs[:, 1]),
                                     np.maximum(pairs[:, 0], pairs[:, 1]))
        self._build(n, eu, ev)

    @classmethod
    def _from_sorted_pairs(cls, n, eu, ev):
        # fast path for the generators, and for read_edge_list after
        # _canonical_edges: the caller guarantees canonical pair arrays
        # (u < v, unique, lexsorted), so validation is skipped
        self = cls.__new__(cls)
        self._build(int(n), np.asarray(eu, dtype=np.int64), np.asarray(ev, dtype=np.int64))
        return self

    def _build(self, n, eu, ev):
        self.n = n
        self.m = m = len(eu)
        self._eu, self._ev = eu, ev
        # both orientations keyed row-major: sorted keys are the CSR order;
        # filled and reduced in place, so no 2m-entry temporary is made
        key = np.empty(2 * m, dtype=np.int64)
        np.multiply(eu, n, out=key[:m])
        key[:m] += ev
        np.multiply(ev, n, out=key[m:])
        key[m:] += eu
        key.sort()
        indptr = np.searchsorted(key, np.arange(n + 1, dtype=np.int64) * n)
        np.remainder(key, n, out=key)
        # scipy keeps int32 indices when they fit; cast before the data is
        # made, so the int64 keys and the data are never alive together
        if max(n, 2 * m) <= np.iinfo(np.int32).max:
            key = key.astype(np.int32)
        data = np.ones(2 * m, dtype=np.float64)
        self._csr = csr_matrix((data, key, indptr), shape=(n, n))
        # the CSR is shared by every caller, so nobody may write to it
        for arr in (self._csr.data, self._csr.indices, self._csr.indptr):
            arr.flags.writeable = False

    @property
    def degrees(self):
        return np.diff(self._csr.indptr)

    def neighbors(self, x):
        """Sorted neighbor array of vertex x (a read-only view)."""
        if not (0 <= x < self.n):
            raise InputError(f"vertex {x} out of range")
        return self._csr.indices[self._csr.indptr[x]:self._csr.indptr[x + 1]]

    def edge_arrays(self):
        """The m edges as parallel arrays (u, v) with u < v, lexsorted."""
        return self._eu, self._ev

    def adjacency(self):
        """Adjacency matrix as scipy CSR, with read-only arrays."""
        return self._csr

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def _canonical_edges(n, lo, hi):
    """(eu, ev, repeat): the edges {lo[i], hi[i]} as canonical pair arrays,
    and the smallest edge given more than once as (u, v), or None.

    Raises InputError on a pair with lo >= hi (a self-loop when equal) and
    on a vertex outside 0..n-1. When the keys lo * n + hi already increase
    strictly, as the pairs of every written edge list do, lo and hi are
    returned as they are; otherwise the keys are sorted and repeats dropped
    (np.unique's hashing path is far slower on int64 keys of this size).
    """
    bad = np.flatnonzero(lo >= hi)
    if len(bad):
        u, v = lo[bad[0]], hi[bad[0]]
        if u == v:
            raise InputError(f"self-loop at vertex {u}")
        raise InputError(f"edges must satisfy u < v, got '{u} {v}'")
    outside = np.flatnonzero((lo < 0) | (hi >= n))
    if len(outside):
        i = outside[0]
        raise InputError(f"edge ({lo[i]}, {hi[i]}) out of range for n={n}")
    key = lo * n
    key += hi
    if (key[1:] > key[:-1]).all():
        return lo, hi, None
    key.sort()
    kept = np.empty(len(key), dtype=bool)
    kept[0] = True
    np.not_equal(key[1:], key[:-1], out=kept[1:])
    repeat = None
    if not kept.all():
        dup = key[np.argmin(kept)]
        repeat = (dup // n, dup % n)
    key = key[kept]
    return key // n, np.remainder(key, n, out=key), repeat


def gen_named(family, n):
    """Deterministic canonical graphs: cycle, path, complete, star,
    two_cliques_bridged.

    two_cliques_bridged puts cliques on [0, n/2) and [n/2, n) joined by the
    single edge (n/2 - 1, n/2); it requires even n >= 4. Cycles require
    n >= 3; the rest accept any n >= 1.
    """
    _check_vertex_count(n)
    if family == "cycle":
        if n < 3:
            raise InputError(f"cycle needs n >= 3, got {n}")
        i = np.arange(n)
        return Graph(n, np.column_stack((i, (i + 1) % n)))
    if family == "path":
        i = np.arange(n - 1)
        return Graph(n, np.column_stack((i, i + 1)))
    if family == "complete":
        # triu_indices lists the pairs u < v in lexicographic order
        return Graph._from_sorted_pairs(n, *np.triu_indices(n, 1))
    if family == "star":
        i = np.arange(1, n)
        return Graph(n, np.column_stack((np.zeros_like(i), i)))
    if family == "two_cliques_bridged":
        if n < 4 or n % 2:
            raise InputError(f"two_cliques_bridged needs even n >= 4, got {n}")
        half = n // 2
        clique = np.column_stack(np.triu_indices(half, 1))
        return Graph(n, np.concatenate((clique, clique + half, [(half - 1, half)])))
    raise InputError(f"unknown graph family {family!r}")


# uniforms per block in gen_erdos_renyi, 128 KiB plus a 16 KiB mask. The
# stream is the same at any block size; on a graph of few pairs the block
# is most of the sampler's memory
_ER_BLOCK = 1 << 14
# gen_erdos_renyi's edge buffer holds the expected edge count plus this
# many times its square root (at least that many standard deviations)
# before it has to grow
_ER_SIGMAS = 6.0
# full restarts of the pairing before gen_random_regular gives up
_MAX_RESTARTS = 10000


def gen_erdos_renyi(n, p, seed):
    """G(n, p): each of the C(n, 2) pairs present independently with
    probability p. Bit-reproducible given (n, p, seed).

    Pairs are drawn in row-major order over the upper triangle, one
    uniform each, from the single generator ``default_rng(seed)``. The
    uniforms come out in fixed-size blocks, which leaves the stream (and
    so the sampled graph) identical to a pair-at-a-time loop while keeping
    memory linear in the block size. A caller's generator is left where
    that loop leaves it.
    """
    if not (0.0 <= p <= 1.0):
        raise InputError(f"edge probability must lie in [0, 1], got {p}")
    _check_vertex_count(n)
    rng = np.random.default_rng(seed)
    offsets = np.zeros(n, dtype=np.int64)
    np.cumsum(np.arange(n - 1, 0, -1, dtype=np.int64), out=offsets[1:])
    hits = _er_hits(rng, p, int(offsets[-1]))
    eu = np.searchsorted(offsets, hits, side="right")
    eu -= 1
    # ev = hits - offsets[eu] + eu + 1, formed in hits' buffer
    ev = np.subtract(hits, offsets[eu], out=hits)
    ev += eu
    ev += 1
    return Graph._from_sorted_pairs(n, eu, ev)


def _er_hits(rng, p, total):
    """Indices of the pairs in [0, total) whose uniform from rng is below
    p. The uniforms are drawn _ER_BLOCK at a time into one block and
    compared into one mask, both freed on return, before the graph is
    built. The indices collect in one buffer, replaced by a larger copy
    when full: a list of one small array per block fragments the heap
    (with 2^16 blocks it raised the peak RSS of a process sampling a few
    n = 10^4 graphs by 0.3 MB)."""
    hits = np.empty(int(total * p + _ER_SIGMAS * math.sqrt(total * p)) + 16, dtype=np.int64)
    u = np.empty(min(_ER_BLOCK, total))
    mask = np.empty(len(u), dtype=bool)
    count = 0
    for lo in range(0, total, _ER_BLOCK):
        k = min(_ER_BLOCK, total - lo)
        rng.random(out=u[:k])
        found = np.flatnonzero(np.less(u[:k], p, out=mask[:k]))
        if count + len(found) > len(hits):
            hits = np.concatenate((hits[:count], np.empty(count + len(found), dtype=np.int64)))
        np.add(found, lo, out=hits[count:count + len(found)])
        count += len(found)
    return hits[:count]


def gen_random_regular(n, d, seed):
    """Random d-regular simple graph via the pairing (configuration) model.

    Stubs are shuffled and matched in rounds: the pending stubs pair up as
    (pending[0], pending[1]), (pending[2], pending[3]), ... and the stubs of
    rejected pairs (self-loops or repeats), kept in order, are reshuffled and
    re-matched in the next round rather than restarting the whole pairing,
    because the probability that a raw pairing is simple decays like
    exp(-(d^2-1)/4) and is negligible already at d = 20. A full restart
    happens only when a round accepts no pair. Deterministic given seed.
    K_n is the only (n-1)-regular graph, so it is returned without a draw:
    a near-complete pairing is almost never simple.

    A round is matched with array operations. A pair {a, b} is accepted if
    and only if a != b, its key min*n + max is not among the pairs accepted
    in earlier rounds, and no earlier pair of this round has the same key.
    This is exactly what accepting the pairs one at a time in order, against
    the set of pairs accepted so far, would do: a pair is rejected there
    precisely when it is a loop or its key was accepted before it, in an
    earlier round or earlier in this one, and a key is accepted at its first
    non-rejected occurrence. So the random stream, and the graph, are the
    same as for that sequential loop.
    """
    _check_vertex_count(n)
    if not _is_integer(d) or d < 0:
        raise InputError(f"degree must be a non-negative integer, got {d!r}")
    if (n * d) % 2:
        raise InputError(f"n*d must be even, got n={n}, d={d}")
    if d >= n:
        raise InputError(f"degree {d} impossible on {n} vertices")
    if d == 0:
        return Graph(n, [])
    if d == n - 1:
        return gen_named("complete", n)
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_RESTARTS):
        pending = np.repeat(np.arange(n, dtype=np.int64), d)
        rng.shuffle(pending)
        # sorted keys of the accepted pairs; the stub count stays even, as
        # n*d is even and every accepted pair takes two stubs
        present = np.empty(0, dtype=np.int64)
        while len(pending):
            a, b = pending[0::2], pending[1::2]
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            ok = lo != hi
            # key min*n + max, formed in lo's buffer
            key = np.multiply(lo, n, out=lo)
            key += hi
            del hi
            if len(present):
                at = np.searchsorted(present, key)
                np.minimum(at, len(present) - 1, out=at)
                ok &= present[at] != key
                del at
            # first occurrence in this round: the smallest pair index in each
            # run of equal keys (a stable argsort is about 5x slower here)
            order = np.argsort(key)
            sk = key[order]
            starts = np.empty(len(sk), dtype=bool)
            starts[0] = True
            np.not_equal(sk[1:], sk[:-1], out=starts[1:])
            del sk
            starts = np.flatnonzero(starts)
            first = np.zeros(len(key), dtype=bool)
            first[np.minimum.reduceat(order, starts)] = True
            del order, starts
            ok &= first
            if not ok.any():
                break  # stuck: remaining stubs admit no legal pair
            # merged by sorting a concatenation: np.union1d and np.unique
            # take numpy's hashing path, which is far slower on these keys
            present = np.concatenate((present, key[ok]))
            present.sort()
            del key
            pending = pending[np.repeat(~ok, 2)]
            rng.shuffle(pending)
        else:
            eu = present // n
            return Graph._from_sorted_pairs(n, eu, np.remainder(present, n, out=present))
    raise GenerationError(
        f"no simple {d}-regular pairing on {n} vertices in {_MAX_RESTARTS} restarts"
    )


def _as_vertex_array(g, X):
    try:
        arr = X if isinstance(X, np.ndarray) else np.asarray(list(X))
    except (TypeError, ValueError):
        raise InputError("vertex set must be a flat sequence of integers")
    if arr.size == 0:
        return np.empty(0, dtype=np.int64)
    if arr.ndim != 1 or arr.dtype.kind not in "iu":
        raise InputError("vertex set must be a flat sequence of integers")
    arr = np.sort(arr)
    if np.any(arr[1:] == arr[:-1]):
        raise InputError("vertex set contains duplicate members")
    if arr[0] < 0 or arr[-1] >= g.n:
        raise InputError(f"vertex set contains out-of-range members for n={g.n}")
    return arr.astype(np.int64, copy=False)


def edges_between(g, X, Y):
    """e(X, Y) = sum_{x in X} sum_{y in Y} A[x, y] = 1_X^T A 1_Y, exactly.

    Double-sum convention: an edge with both endpoints in X contributes 2
    to e(X, X). X and Y may overlap. Members must be integers, distinct
    within each set and in 0..n-1; anything else raises InputError.

    The bilinear form is one float64 product A @ 1_Y, then an integer sum
    of its X entries. Every entry and partial sum is an integer at most
    2m < 2^53, so the float arithmetic is exact.
    """
    xs = _as_vertex_array(g, X)
    ys = _as_vertex_array(g, Y)
    in_y = np.zeros(g.n)
    in_y[ys] = 1.0
    return int((g.adjacency() @ in_y)[xs].astype(np.int64).sum())


def degree_extrema(g):
    """(d_min, d_max) of the degree sequence."""
    degs = g.degrees
    return int(degs.min()), int(degs.max())


_WRITE_BLOCK = 1 << 14  # edge lines per write in write_edge_list


def write_edge_list(g, path):
    """Write the text format: first line "n m", then m lines "u v", u < v."""
    eu, ev = g.edge_arrays()
    # a block of lines is one uint8 row per edge: u right-aligned in width
    # bytes, a space, v the same, LF; the NULs that pad short numbers are
    # dropped as the block is written
    width = len(str(g.n - 1))
    lines = np.empty((min(_WRITE_BLOCK, g.m), 2 * width + 2), dtype=np.uint8)
    lines[:, width] = ord(" ")
    lines[:, -1] = ord("\n")
    with open(path, "wb") as fh:
        fh.write(f"{g.n} {g.m}\n".encode())
        for i in range(0, g.m, _WRITE_BLOCK):
            j = min(i + _WRITE_BLOCK, g.m)
            rows = lines[: j - i]
            for x, end in ((eu[i:j], width), (ev[i:j], 2 * width + 1)):
                r = x.astype(np.min_scalar_type(g.n - 1))
                for place in range(width):
                    # digits from the right; a place the number has run
                    # out of keeps its digit 0, which is NUL (the units
                    # digit is always shown)
                    col = rows[:, end - 1 - place]
                    shown = r != 0 if place else True
                    np.divmod(r, 10, out=(r, col), casting="unsafe")
                    np.add(col, ord("0"), out=col, where=shown)
            fh.write(rows[rows != 0])


# a header field: an optional sign and ASCII digits, as np.loadtxt reads
# the body's fields (int() would also take "1_0" and non-ASCII digits)
_DECIMAL = re.compile(r"[+-]?[0-9]+")


def _next_nonblank(lines):
    """The next line that holds more than whitespace, or "" at the end."""
    return next((line for line in lines if not line.isspace()), "")


def read_edge_list(path):
    """Read the edge-list text format, rejecting any format violation with
    an InputError that names the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # the body is parsed straight from the file, line by line, so no
            # copy of the whole text is held
            header = _next_nonblank(fh).strip()
            if not header:
                raise InputError("empty edge-list file")
            head = header.split()
            if len(head) != 2:
                raise InputError(f"header must be 'n m', got {header!r}")
            if not all(map(_DECIMAL.fullmatch, head)):
                raise InputError(f"non-integer header {header!r}")
            n, m = int(head[0]), int(head[1])
            _check_vertex_count(n)
            pairs = np.empty((0, 2), dtype=np.int64)
            first = _next_nonblank(fh)
            if first:
                try:
                    pairs = np.loadtxt(itertools.chain((first,), fh), dtype=np.int64,
                                       comments=None, ndmin=2)
                except UnicodeDecodeError:
                    raise
                except ValueError as exc:
                    raise InputError(f"bad edge line: {exc}")
        if len(pairs) != m:
            raise InputError(f"header claims {m} edges, found {len(pairs)}")
        if pairs.shape[1] != 2:
            raise InputError(f"edge lines must hold two vertices, found {pairs.shape[1]}")
        # a column each, so the (m, 2) array is freed before the build
        u, v = pairs[:, 0].copy(), pairs[:, 1].copy()
        del pairs
        eu, ev, repeat = _canonical_edges(n, u, v)
        del u, v
        if repeat is not None:
            raise InputError(f"duplicate edge '{repeat[0]} {repeat[1]}'")
        return Graph._from_sorted_pairs(n, eu, ev)
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: edge-list file is not UTF-8 text ({exc.reason})") from None
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None
