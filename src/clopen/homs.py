"""Finite-graph homomorphism search, cycle spectra, and quotient-level
obstruction reports for comparability questions."""

from __future__ import annotations

from typing import Optional

from .families import FiniteGraph, SymbolicGraph
from .quotients import odd_girth, quotient
from .words import BudgetError


class HomWitness:
    """Vertex map sending every source edge to a target edge."""

    def __init__(self, mapping: dict, injective: bool):
        self.mapping = dict(mapping)
        self.injective = injective

    def check(self, G: FiniteGraph, H: FiniteGraph) -> bool:
        if set(self.mapping) != set(G.vertices):
            return False
        if self.injective and len(set(self.mapping.values())) != len(self.mapping):
            return False
        return all(
            (self.mapping[u], self.mapping[v]) in H.edges for (u, v) in G.edges
        )


def hom_exists(G: FiniteGraph, H: FiniteGraph, injective: bool = False
               ) -> Optional[HomWitness]:
    """Backtracking search with degree-descending vertex order and forward
    checking; returns a witness or None as an exhaustive-absence certificate.
    Deterministic: candidates are tried in vertex-list order.  The search
    keeps an explicit stack, one level per source vertex."""
    if len(G.vertices) * len(H.vertices) > 10**6:
        raise BudgetError("source x target size exceeds the search budget")
    hv = list(H.vertices)
    h_adj = {v: {w for (u, w) in H.edges if u == v} for v in H.vertices}
    g_adj: dict = {v: set() for v in G.vertices}
    for (u, v) in G.edges:
        g_adj[u].add(v)
    order = sorted(G.vertices, key=lambda v: (-len(g_adj[v]), G.vertices.index(v)))
    assign: dict = {}

    def propagate(v, img, domains):
        """Restrict the domains of later vertices; None when one empties."""
        new = dict(domains)
        for u in G.vertices:
            if u in assign or u == v:
                continue
            allowed = None
            if u in g_adj[v]:
                allowed = h_adj[img]
            dom = [
                w
                for w in new[u]
                if (allowed is None or w in allowed)
                and not (injective and w == img)
            ]
            if not dom:
                return None
            new[u] = dom
        return new

    # depth idx assigns order[idx] from domains[idx], resuming at tries[idx]
    domains = [{v: list(hv) for v in G.vertices}]
    tries = [0]
    idx = 0
    while 0 <= idx < len(order):
        v = order[idx]
        cands = domains[idx][v]
        nxt = None
        while nxt is None and tries[idx] < len(cands):
            img = cands[tries[idx]]
            tries[idx] += 1
            if injective and img in assign.values():
                continue
            assign[v] = img
            # every assigned neighbour, v itself on a loop included, must map
            # to a neighbour of img
            if all(assign[u] in h_adj[img] for u in g_adj[v] if u in assign):
                nxt = propagate(v, img, domains[idx])
            if nxt is None:
                del assign[v]
        if nxt is not None:
            domains.append(nxt)
            tries.append(0)
            idx += 1
        else:  # every candidate failed below: backtrack
            domains.pop()
            tries.pop()
            idx -= 1
            if idx >= 0:
                del assign[order[idx]]
    if idx < 0:
        return None
    return HomWitness(assign, injective)


def cycle_spectrum(G: FiniteGraph, max_len: int = 64) -> set:
    """Lengths of simple cycles of the underlying undirected graph, up to
    max_len, by DFS rooted at each minimal vertex."""
    if max_len > 64:
        raise BudgetError("cycle length cap exceeds the search budget")
    adj: dict = {v: set() for v in G.vertices}
    for (u, v) in G.edges:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    index = {v: i for i, v in enumerate(G.vertices)}
    lengths: set = set()

    def dfs(root, current, path_set, length, prev):
        for nxt in adj[current]:
            if nxt == root and length >= 2 and nxt != prev:
                lengths.add(length + 1)
            elif (
                nxt not in path_set
                and index[nxt] > index[root]
                and length + 1 < max_len
            ):
                path_set.add(nxt)
                dfs(root, nxt, path_set, length + 1, current)
                path_set.discard(nxt)

    for root in G.vertices:
        dfs(root, root, {root}, 0, None)
    return {l for l in lengths if 3 <= l <= max_len}


class ObstructionReport:
    def __init__(self, source: str, target: str, level: int, odd_girths,
                 obstructed: bool, reason: str, spectra=None):
        self.source = source
        self.target = target
        self.level = level
        self.odd_girths = odd_girths
        self.obstructed = obstructed
        self.reason = reason
        self.spectra = spectra

    def describe(self) -> str:
        head = "%s -> %s at level %d: " % (self.source, self.target, self.level)
        return head + self.reason

    def as_json(self) -> dict:
        out = {
            "source": self.source,
            "target": self.target,
            "level": self.level,
            "oddGirths": list(self.odd_girths),
            "obstructed": self.obstructed,
            "reason": self.reason,
        }
        if self.spectra is not None:
            out["cycleSpectra"] = [sorted(s) for s in self.spectra]
        return out


def quotient_hom_obstruction(g1: SymbolicGraph, g2: SymbolicGraph, n: int,
                             spectrum_cap: int = 40) -> ObstructionReport:
    """Compare the level-n quotients: odd closed walks must map to odd closed
    walks of at most equal length, so a larger target odd girth obstructs
    every reduction compatible with the level-n data.  When both families
    expose finite cores, simple cycles obstruct injective reductions via the
    cycle spectrum."""
    q1 = quotient(g1, n).undirected()
    q2 = quotient(g2, n).undirected()
    o1, o2 = odd_girth(q1), odd_girth(q2)
    girth_obstructed = o1 is not None and (o2 is None or o2 > o1)
    spectra = None
    spectrum_reason = ""
    spectrum_obstructed = False
    if g1.finite_core is not None and g2.finite_core is not None:
        s1 = cycle_spectrum(g1.finite_core(), spectrum_cap)
        s2 = cycle_spectrum(g2.finite_core(), spectrum_cap)
        spectra = (s1, s2)
        missing = sorted(s1 - s2)
        if missing:
            spectrum_obstructed = True
            spectrum_reason = (
                "; cycle length %d of the source core is missing from the "
                "target core, obstructing injective reductions" % missing[0]
            )
    if girth_obstructed:
        reason = (
            "no continuous reduction compatible with level-%d data: odd "
            "girths %s vs %s" % (n, o1, "none" if o2 is None else o2)
        )
    elif spectrum_obstructed:
        reason = "odd girths %s vs %s" % (o1, o2) + spectrum_reason
    else:
        reason = "no obstruction found at level %d (odd girths %s vs %s)" % (
            n,
            o1,
            o2,
        )
    return ObstructionReport(
        g1.spec,
        g2.spec,
        n,
        (o1, o2),
        girth_obstructed or spectrum_obstructed,
        reason + (spectrum_reason if girth_obstructed else ""),
        spectra,
    )


# ---------------------------------------------------------------------------
# finite graph exchange format


def finite_graph_from_text(text: str) -> FiniteGraph:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("directed="):
        raise ValueError("missing directed= header")
    directed = lines[0] == "directed=1"
    vertices = []
    edges = []
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) == 1:
            vertices.append(toks[0])
        elif len(toks) == 2:
            vertices.extend(toks)
            edges.append((toks[0], toks[1]))
        else:
            raise ValueError("bad edge line %r" % ln)
    return FiniteGraph(vertices, edges, directed=directed)
