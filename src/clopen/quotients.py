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
`ClopenColoring`, the color map a bipartite level yields, is defined here
beside the decision that builds it; `colorings` builds, searches and
verifies the others.
"""

from __future__ import annotations

import time
from operator import sub

from .families import QuotientGraph, SymbolicGraph, edges_at_level, flat_buffer
from .words import Alphabet, Word, format_word


def quotient(g: SymbolicGraph, n: int, bound: int | None = None) -> QuotientGraph:
    """The level-n quotient of the family, as its saturating enumeration
    `edges_at_level` builds it.  Self-loops are kept."""
    return edges_at_level(g, n, bound=bound)


def _bfs_two_color(adj):
    """One BFS 2-coloring pass over the flat `Index` `adj` of an undirected
    graph.  Returns ``(colors, odd)``, two bytearrays: ``colors[i]`` is i's
    BFS color (0 at the first vertex of each component) and ``odd[i]`` is 1
    when its component is not bipartite."""
    off, nbr = adj.off, adj.nbr
    colors = bytearray(b"\x02") * len(adj)  # 2: not reached yet
    odd = bytearray(len(adj))
    for seed in range(len(adj)):
        if colors[seed] < 2:
            continue
        colors[seed] = 0
        component = [seed]
        bipartite = True
        for u in component:  # appended to while walked: a FIFO queue
            c = 1 - colors[u]
            for v in nbr[off[u]:off[u + 1]]:
                if colors[v] == 2:
                    colors[v] = c
                    component.append(v)
                elif colors[v] != c:
                    bipartite = False
        if not bipartite:
            for u in component:
                odd[u] = 1
    return colors, odd


def _double_cover_bfs(adj, root: int, limit: int, depth, parent) -> list:
    """A BFS in the bipartite double cover, node ``2 * vertex + side``, from
    (root, 0), depth by depth; each node keeps the parent that discovered it
    first, neighbours in index order, and the search stops on discovering
    (root, 1) or before depth `limit`.  It writes into two flat buffers of
    2V entries, zero at every node it will reach, which the caller
    allocates once per search: ``depth[y]`` is 1 + y's depth and
    ``parent[y]`` its parent.  Returns the reached nodes, (root, 0) first,
    through which the caller zeroes `depth` again."""
    off, nbr = adj.off, adj.nbr
    target = 2 * root + 1
    depth[2 * root] = 1
    reached = [2 * root]
    for x in reached:  # appended to while walked: a FIFO queue, depth by depth
        d = depth[x] + 1
        if d > limit:
            break
        u, side = x >> 1, (x & 1) ^ 1
        for v in nbr[off[u]:off[u + 1]]:
            y = 2 * v + side
            if not depth[y]:
                depth[y], parent[y] = d, x
                reached.append(y)
                if y == target:
                    return reached
    return reached


def odd_girth_root(adj, colors=None):
    """``(length, root)`` of a shortest odd closed walk of the undirected
    graph with the flat `Index` `adj` (a self-loop has length one), root the
    least id attaining that length, or None when the graph is bipartite.  A
    list passed as `colors` receives the coloring pass's BFS colors, the
    2-coloring of a bipartite graph; a self-loop leaves it empty.

    A self-loop at the least looped id comes first, before any coloring
    pass.  Otherwise ``_bfs_two_color`` marks the non-bipartite components,
    and the answer is the least ``(length, root)`` among candidates from
    three exact steps, with no search from every root:

    1. Peel vertices of degree <= 1 off the non-bipartite components.  A walk
       of the minimum length g is a simple cycle (a repeated vertex would
       split it into two shorter closed walks, one of them odd), so g <= V
       and every root attaining g lies on a cycle, in this 2-core; a vertex
       outside it lies on no cycle, so its odd walks are not simple and
       longer than g.
    2. A core component whose core degrees are all 2 is one odd cycle: every
       closed walk in its component winds round it, so each of its vertices
       has the cycle's length, and its candidate is its least id.  O(V).
    3. Every other core vertex is a branch vertex a (core degree >= 3) or an
       inner vertex of a chain: a maximal path of core-degree-2 vertices,
       with L edges from a to a branch vertex b (b == a when it returns).
       The double-cover BFS that builds the witness, run from a, gives
       d_a(b, p), the least length of a walk from a to b of parity p (an
       odd closed walk at a when b == a and p == 1); it stops on discovering
       (a, 1), which offers ``(d_a(a, 1), a)``, and it is cut below the
       best length so far + 1, so that a tie is still found.  Each chain
       leaving a offers ``(L + d_a(b, (L + 1) % 2), least inner id)``, an
       odd closed walk through all its inner vertices.  This is exact: a
       shortest odd cycle through an inner vertex runs along the whole
       chain, so an inner vertex attains g iff its chain's candidate is g,
       all its inner vertices tie and the least one is the chain's root.
       That cycle also passes through a, so a attains g, and it returns
       from b in g - L <= g - 2 steps, which the BFS from a has discovered
       before it stops at depth g and below its cut.

    The BFSs share one pair of flat depth and parent buffers, allocated
    here and zeroed again through each BFS's reached nodes."""
    if adj.loops:
        return 1, adj.loops[0]
    off, nbr = adj.off, adj.nbr
    bfs_colors, odd = _bfs_two_color(adj)
    if colors is not None:
        colors[:] = bfs_colors
    deg = [d if o else 0 for d, o in zip(map(sub, off[1:], off), odd)]
    leaves = [v for v, d in enumerate(deg) if d == 1]
    for v in leaves:  # appended to while walked
        deg[v] = 0
        for u in nbr[off[v]:off[v + 1]]:
            if deg[u] > 0:  # not peeled yet
                deg[u] -= 1
                if deg[u] == 1:
                    leaves.append(u)
    core = bytearray(d >= 2 for d in deg)
    best = (len(adj) + 1, 0)  # above every shortest odd walk, a simple cycle
    seen = bytearray(len(adj))
    for seed in range(len(adj)):
        if not core[seed] or seen[seed]:
            continue
        seen[seed] = 1
        component = [seed]
        for u in component:  # appended to while walked
            for v in nbr[off[u]:off[u + 1]]:
                if core[v] and not seen[v]:
                    seen[v] = 1
                    component.append(v)
        if all(deg[u] == 2 for u in component):
            best = min(best, (len(component), seed))
    depth, parent = flat_buffer(2 * len(adj)), flat_buffer(2 * len(adj))
    for a in [v for v, d in enumerate(deg) if d > 2]:
        reached = _double_cover_bfs(adj, a, best[0] + 1, depth, parent)
        if depth[2 * a + 1]:
            best = min(best, (depth[2 * a + 1] - 1, a))
        for u in nbr[off[a]:off[a + 1]]:
            chain, prev = [], a
            while deg[u] == 2:
                chain.append(u)
                prev, u = u, next(w for w in nbr[off[u]:off[u + 1]] if w != prev and core[w])
            back = depth[2 * u + len(chain) % 2]  # parity (L + 1) % 2
            if chain and back:
                best = min(best, (len(chain) + back, min(chain)))
        for y in reached:
            depth[y] = 0
    return best if best[0] <= len(adj) else None


def odd_closed_walk(q: QuotientGraph, colors=None) -> OddWalk | None:
    """A shortest odd closed walk if one exists (a self-loop has length one),
    else None; `colors` is passed on to ``odd_girth_root``.

    Ties are broken by the alphabet order: the root and the length are
    ``odd_girth_root``'s, the first vertex in alphabet order whose shortest
    odd closed walk has the minimum length (the first looped vertex when
    there is a self-loop).  The path is the chain of first-discovery BFS
    parents from (root, 0) to (root, 1) in the bipartite double cover,
    neighbours expanded in alphabet order: ``_double_cover_bfs`` at that
    root over the whole graph, which gives the same path the search from
    every root found."""
    q = q.undirected()
    adj = q.index()
    found = odd_girth_root(adj, colors)
    if found is None:
        return None
    length, root = found
    depth, parent = flat_buffer(2 * len(adj)), flat_buffer(2 * len(adj))
    _double_cover_bfs(adj, root, length + 1, depth, parent)
    path = [2 * root + 1]
    while path[-1] != 2 * root:
        path.append(parent[path[-1]])
    return OddWalk([q.vertex(y >> 1) for y in reversed(path)], q)


class ColoringError(ValueError):
    pass


class TotalityError(ColoringError):
    """A prefix outside the declared color map was encountered."""


class ClopenColoring:
    """Color map constant on level-L cylinders: a total map from length-L
    prefixes (central 2L-letter windows for two-sided families) to colors
    0..k-1."""

    def __init__(self, level: int, colors: int, mapping: dict,
                 alphabet: Alphabet | None = None, two_sided: bool = False):
        if colors < 1:
            raise ColoringError("need at least one color")
        self.level = level
        self.colors = colors
        self.mapping = dict(mapping)
        self.alphabet = alphabet
        self.two_sided = two_sided
        for v, c in self.mapping.items():
            if not (0 <= c < colors):
                raise ColoringError("color %r out of range for %r" % (c, v))

    def color_of(self, v: Word) -> int:
        """The color of a vertex of any level >= L, read off its level-L
        cylinder: its first L letters, or the central 2L of a window."""
        mid = len(v) // 2
        key = v[mid - self.level : mid + self.level] if self.two_sided else v[: self.level]
        if key not in self.mapping:
            raise TotalityError("prefix %r not in the declared map" % (format_word(key),))
        return self.mapping[key]

    def as_json(self) -> dict:
        return {
            "level": self.level,
            "colors": self.colors,
            "map": {format_word(v): c for v, c in sorted(self.mapping.items())},
        }


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


def to_dot(q: QuotientGraph, name: str) -> str:
    """Graphviz export of a quotient of the family `name`, with vertices
    labeled by prefix strings."""
    kind = "digraph" if q.directed else "graph"
    arrow = "->" if q.directed else "--"
    lines = ['%s "%s level %d" {' % (kind, name, q.level)]
    for v in q.vertices:
        lines.append('  "%s";' % q.label(v))
    for (u, v) in q.distinct_edges():
        lines.append('  "%s" %s "%s";' % (q.label(u), arrow, q.label(v)))
    lines.append("}")
    return "\n".join(lines)
