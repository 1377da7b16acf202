"""Finite level-n quotients of symbolic graphs and the odd-closed-walk
decision procedure.

The level-n quotient relates two length-n prefixes when some edge of the
family joins their cylinders.  A quotient with an odd closed walk (a self-loop
counts, with length one) admits no proper 2-coloring pulled back from that
level; a bipartite quotient yields a clopen 2-coloring of the whole graph.
For compact point sets, odd walks at every level certify that no continuous
2-coloring exists at all; without compactness only the level-by-level
statement survives, and reports say so.

A quotient is a `families.QuotientGraph`, the one finite graph type, and the
walk machinery reads only its integer index, so it serves any finite graph.
"""

from __future__ import annotations

import time
from typing import Optional

from .families import QuotientGraph, SymbolicGraph, edges_at_level


def quotient(g: SymbolicGraph, n: int, bound: int | None = None) -> QuotientGraph:
    """The level-n quotient of the family, as its saturating enumeration
    `edges_at_level` builds it.  Self-loops are kept."""
    return edges_at_level(g, n, bound=bound)


def _bfs_two_color(adj):
    """One BFS 2-coloring pass over the integer index `adj` of an undirected
    graph, neighbour lists ascending.  Returns ``(colors, odd)``:
    ``colors[i]`` is i's BFS color (0 at the first vertex of each component)
    and ``odd[i]`` says whether its component is not bipartite."""
    colors = [-1] * len(adj)
    odd = [False] * len(adj)
    for seed in range(len(adj)):
        if colors[seed] >= 0:
            continue
        colors[seed] = 0
        component = [seed]
        bipartite = True
        for u in component:  # appended to while walked: a FIFO queue
            c = 1 - colors[u]
            for v in adj[u]:
                if colors[v] < 0:
                    colors[v] = c
                    component.append(v)
                elif colors[v] != c:
                    bipartite = False
        if not bipartite:
            for u in component:
                odd[u] = True
    return colors, odd


def _odd_walk_from(adj, root: int, limit: int):
    """Vertex ids of the shortest odd closed walk at `root` if it is shorter
    than `limit`, else None.

    BFS in the bipartite double cover, node ``2 * vertex + side``, from
    (root, 0) depth by depth; each node keeps the parent that discovered it
    first, and the search stops on discovering (root, 1) or before depth
    `limit`."""
    start, target = 2 * root, 2 * root + 1
    par = {start: None}
    frontier = [start]
    depth = 1
    while frontier and depth < limit:
        nxt = []
        for x in frontier:
            side = (x & 1) ^ 1
            for v in adj[x >> 1]:
                y = 2 * v + side
                if y not in par:
                    par[y] = x
                    if y == target:
                        path = []
                        while y is not None:
                            path.append(y >> 1)
                            y = par[y]
                        return path[::-1]
                    nxt.append(y)
        frontier = nxt
        depth += 1
    return None


def _odd_length_from(adj, core, root: int, limit: int):
    """Length of the shortest odd closed walk at `root` if it is shorter than
    `limit`, else None, by an ordinary BFS over the `core` vertices: 2d + 1
    for the first depth d with an edge between two vertices at depth d."""
    depth = {root: 0}
    frontier = [root]
    d = 0
    while frontier and 2 * d + 1 < limit:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                dv = depth.get(v)
                if dv is None:
                    if core[v]:
                        depth[v] = d + 1
                        nxt.append(v)
                elif dv == d:
                    return 2 * d + 1
        frontier = nxt
        d += 1
    return None


def odd_girth_root(adj, colors=None):
    """``(length, root)`` of a shortest odd closed walk of the undirected
    graph with integer index `adj` (neighbour lists ascending; a self-loop
    has length one), root the least id attaining that length, or None when
    the graph is bipartite.  A list passed as `colors` receives the coloring
    pass's BFS colors, the 2-coloring of a bipartite graph; a self-loop
    leaves it empty.

    A self-loop at the least looped id comes first, before any coloring
    pass.  Otherwise ``_bfs_two_color`` marks the non-bipartite components,
    and the root and the length come from three exact steps, with no search
    from every root:

    1. Peel vertices of degree <= 1 off the non-bipartite components.  A walk
       of the minimum length g is a simple cycle (a repeated vertex would
       split it into two shorter closed walks, one of them odd), so every
       root attaining g lies on a cycle, in this 2-core; a vertex outside it
       lies on no cycle, so its odd walks are not simple and longer than g.
    2. A core component whose core degrees are all 2 is one odd cycle: every
       closed walk in its component winds round it, so each of its vertices
       has the cycle's length, and its candidate is its least id.  O(V).
    3. Every other core root gets its length from an ordinary BFS, cut off
       at the best length so far (Itai and Rodeh, SIAM J. Comput. 1978): an
       edge joining two vertices at depth d closes an odd walk of length
       2d + 1, and an odd closed walk must take a step that keeps the depth,
       so none is shorter.  A shortest one never enters the peeled trees,
       since an excursion into a tree returns along itself, so the BFS stays
       in the core."""
    for v, nbrs in enumerate(adj):
        if v in nbrs:
            return 1, v
    bfs_colors, odd = _bfs_two_color(adj)
    if colors is not None:
        colors[:] = bfs_colors
    deg = [len(a) if o else 0 for a, o in zip(adj, odd)]
    leaves = [v for v, d in enumerate(deg) if d == 1]
    for v in leaves:  # appended to while walked
        deg[v] = 0
        for u in adj[v]:
            if deg[u] > 0:  # not peeled yet
                deg[u] -= 1
                if deg[u] == 1:
                    leaves.append(u)
    core = [d >= 2 for d in deg]
    best, root = 2 * len(adj), None  # above every odd closed walk
    roots = []  # core vertices outside the cycle components
    seen = [False] * len(adj)
    for seed in range(len(adj)):
        if not core[seed] or seen[seed]:
            continue
        seen[seed] = True
        component = [seed]
        for u in component:  # appended to while walked
            for v in adj[u]:
                if core[v] and not seen[v]:
                    seen[v] = True
                    component.append(v)
        if any(deg[u] != 2 for u in component):
            roots += component
        elif len(component) < best:  # seeds ascend: ties keep the first
            best, root = len(component), seed
    for v in sorted(roots):
        # a later root must be strictly shorter, an earlier one may tie
        length = _odd_length_from(adj, core, v, best + (root is not None and v < root))
        if length is not None:
            best, root = length, v
    return None if root is None else (best, root)


def odd_closed_walk(q: QuotientGraph, colors=None) -> Optional[OddWalk]:
    """A shortest odd closed walk if one exists (a self-loop has length one),
    else None; `colors` is passed on to ``odd_girth_root``.

    Ties are broken by the alphabet order: the root and the length are
    ``odd_girth_root``'s, the first vertex in alphabet order whose shortest
    odd closed walk has the minimum length (the first looped vertex when
    there is a self-loop).  The path is the chain of first-discovery BFS
    parents from (root, 0) to (root, 1) in the bipartite double cover,
    neighbours expanded in alphabet order: ``_odd_walk_from`` at that root,
    the only double-cover search, which gives the same path the search from
    every root found."""
    q = q.undirected()
    adj = q.index()
    found = odd_girth_root(adj, colors)
    if found is None:
        return None
    length, root = found
    return OddWalk([q.vertex(i) for i in _odd_walk_from(adj, root, length + 1)], q)


class Bipartite:
    """Verdict: the quotient is 2-colorable; carries the pulled-back clopen
    coloring at this level and the undirected quotient it colors."""

    def __init__(self, coloring, quotient: QuotientGraph):
        self.coloring = coloring
        self.quotient = quotient

    verdict = "bipartite"


class OddWalk:
    """Verdict: an odd closed walk v_0, ..., v_k with v_0 == v_k, so no clopen
    2-coloring exists at this level; carries the undirected quotient that
    labels it."""

    def __init__(self, vertices, quotient: QuotientGraph):
        self.vertices = list(vertices)
        self.quotient = quotient

    verdict = "odd-walk"

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    def as_json(self) -> dict:
        return {"length": self.length,
                "vertices": [self.quotient.label(v) for v in self.vertices]}


def decide_level(g: SymbolicGraph, n: int):
    """Bipartite(level-n clopen 2-coloring) or a shortest OddWalk."""
    from .colorings import ClopenColoring

    q = quotient(g, n).undirected()
    colors = []  # the walk search's coloring pass, reused when bipartite
    walk = odd_closed_walk(q, colors)
    if walk is not None:
        return walk
    mapping = dict(zip(q.vertices, colors))
    return Bipartite(ClopenColoring(level=n, colors=2, mapping=mapping,
                                    alphabet=q.alphabet, two_sided=q.two_sided), q)


def scan(g: SymbolicGraph, n_max: int, budget_ms: float | None = None) -> dict:
    """Per-level verdicts 1..n_max with witnesses, odd girths and timing; the
    headline distinguishes the clopen-level statement from the full
    compactness-backed claim.  A time budget yields a partial, flagged
    report."""
    levels = []
    headline = None
    partial = False
    started = time.perf_counter()
    for n in range(1, n_max + 1):
        if budget_ms is not None and (time.perf_counter() - started) * 1000.0 > budget_ms:
            partial = True
            break
        t0 = time.perf_counter()
        result = decide_level(g, n)
        ms = (time.perf_counter() - t0) * 1000.0
        q = result.quotient
        entry = {
            "family": g.spec,
            "level": n,
            "edgeCount": q.edge_count(),
            "millis": round(ms, 3),
            "verdict": result.verdict,
        }
        levels.append(entry)
        if isinstance(result, Bipartite):
            entry["coloring"] = {q.label(v): c for v, c in result.coloring.mapping.items()}
            entry["oddGirth"] = None
            headline = "chi_c <= 2 (certified by the level-%d coloring)" % n
            break
        entry["witness"] = result.as_json()
        entry["oddGirth"] = result.length
        del result, q  # free this level's quotient before the next is built
    reached = levels[-1]["level"] if levels else 0
    if headline is None:
        if partial:
            headline = "partial report: time budget exhausted after level %d" % reached
        elif g.compact:
            headline = (
                "chi_c >= 3 evidence through level %d (compact point set: odd "
                "closed walks at every level rule out continuous 2-colorings)"
                % reached
            )
        else:
            headline = (
                "no clopen 2-coloring at levels <= %d (point set not compact: "
                "this does not bound the continuous chromatic number)" % reached
            )
    return {
        "family": g.spec,
        "compact": g.compact,
        "partial": partial,
        "headline": headline,
        "levels": levels,
    }


def to_dot(q: QuotientGraph) -> str:
    """Graphviz export with vertices labeled by prefix strings."""
    kind = "digraph" if q.directed else "graph"
    arrow = "->" if q.directed else "--"
    lines = ['%s "%s level %d" {' % (kind, q.source or "quotient", q.level)]
    for v in q.vertices:
        lines.append('  "%s";' % q.label(v))
    for (u, v) in q.distinct_edges():
        lines.append('  "%s" %s "%s";' % (q.label(u), arrow, q.label(v)))
    lines.append("}")
    return "\n".join(lines)
