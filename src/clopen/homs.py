"""Finite-graph homomorphism search, cycle spectra, and quotient-level
obstruction reports for comparability questions.  Every finite graph, a
level quotient or not, is a `families.QuotientGraph`, and the searches read
its integer index."""

from __future__ import annotations

from .families import QuotientGraph, SymbolicGraph, finite_graph
from .quotients import odd_girth_root, quotient
from .words import BudgetError


def hom_exists(G: QuotientGraph, H: QuotientGraph, injective: bool = False
               ) -> dict | None:
    """Backtracking search with forward checking over the integer indexes of
    G and H; returns the witness, a map from G's vertices to H's that sends
    every edge to an edge, or None as an absence certificate.

    Two checks decide absence before any search.  When G and H are both
    undirected, a hom maps every odd closed walk of G onto an odd closed
    walk of H of the same length, so it is absent when G has one shorter
    than every odd closed walk of H; ``odd_girth_root`` gives both odd
    girths.  A source loop needs a target loop, so G's odd girth is computed
    only when H's is above 3 or H is bipartite: below that only a loop in G
    could be shorter.  Only then does the size budget apply.

    Source vertices are assigned in depth-first preorder over the underlying
    undirected graph of G: seeds in the order (-out-degree, id), neighbours
    in ascending id.  So each vertex after its component's first has an
    assigned neighbour, and the walk closes each cycle before it opens the
    next; a breadth-first order would interleave the cycles through a
    vertex, and a failed closure would then retry every cycle opened since.
    Candidates are tried in ascending target id, so the witness is the first
    solution in that order.  Assigning a vertex restricts the domains of its
    unassigned out-neighbours, undone from a per-depth trail on backtrack,
    and a set of used images enforces injectivity.  Both only cut subtrees
    without a solution, so the first solution is the one plain backtracking
    in the same order finds.  The search keeps an explicit stack, one level
    per source vertex."""
    g_adj, h_adj = G.index(), H.index()
    if not (G.directed or H.directed):
        h_girth = odd_girth_root(h_adj)
        if h_girth is None or h_girth[0] > 3:
            g_girth = odd_girth_root(g_adj)
            if g_girth is not None and (h_girth is None or h_girth[0] > g_girth[0]):
                return None
    h_adj = [set(a) for a in h_adj]
    every = list(range(len(h_adj)))
    looped = [w for w in every if w in h_adj[w]]
    # a source loop maps onto a target loop; every other edge is checked when
    # its second end is assigned
    domains = [looped if v in g_adj[v] else every for v in range(len(g_adj))]
    if not all(domains):
        return None
    if len(g_adj) * len(h_adj) > 10**6:
        raise BudgetError("source x target size exceeds the search budget")
    und = G.undirected().index()
    order = []
    placed = [False] * len(g_adj)
    for seed in sorted(range(len(g_adj)), key=lambda v: (-len(g_adj[v]), v)):
        if not placed[seed]:
            placed[seed] = True
            order.append(seed)
            stack = [iter(und[seed])]  # per open vertex: its unscanned neighbours
            while stack:
                for v in stack[-1]:
                    if not placed[v]:
                        placed[v] = True
                        order.append(v)
                        stack.append(iter(und[v]))
                        break
                else:
                    stack.pop()
    assign = [-1] * len(g_adj)
    used = set()
    trail = [[] for _ in order]  # per depth: (vertex, domain before restriction)
    tries = [0] * len(order)

    def place(v, img, undo) -> bool:
        """Restrict v's unassigned out-neighbours to img's out-neighbours;
        False when an assigned one disagrees or a domain empties."""
        allowed = h_adj[img]
        for u in g_adj[v]:
            if assign[u] >= 0:
                if assign[u] not in allowed:
                    return False
            elif u != v:
                undo.append((u, domains[u]))
                domains[u] = [w for w in domains[u] if w in allowed]
                if not domains[u]:
                    return False
        return True

    depth = 0
    while 0 <= depth < len(order):
        v, undo = order[depth], trail[depth]
        # take back v's image and what it restricted before the next candidate
        for (u, dom) in undo:
            domains[u] = dom
        undo.clear()
        used.discard(assign[v])
        assign[v] = -1
        if tries[depth] == len(domains[v]):  # every candidate failed: backtrack
            tries[depth] = 0
            depth -= 1
            continue
        img = domains[v][tries[depth]]
        tries[depth] += 1
        if not (injective and img in used) and place(v, img, undo):
            assign[v] = img
            used.add(img)
            depth += 1
    if depth < 0:
        return None
    return dict(zip(G.vertices, (H.vertices[w] for w in assign)))


def cycle_spectrum(G: QuotientGraph, max_len: int = 64) -> set:
    """Lengths of simple cycles of the underlying undirected graph, up to
    max_len, by DFS rooted at each minimal vertex.  A self-loop closes no
    cycle: the DFS never steps onto a vertex of its path but the root, and
    back to the root only after two steps.  Refused once the DFS has
    scanned more than 10^7 neighbours: K_9 takes 1.0 M, K_10 10.0 M."""
    if max_len > 64:
        raise BudgetError("cycle length cap exceeds the search budget")
    adj = G.undirected().index()
    lengths: set = set()
    scans = 0

    def dfs(root, current, path_set, length):
        nonlocal scans
        scans += len(adj[current])
        if scans > 10**7:
            raise BudgetError("cycle search exceeds the budget of 10^7 neighbour scans")
        # paths grow to at most max_len - 1 edges, so cycles to max_len
        for nxt in adj[current]:
            if nxt == root and length >= 2:
                lengths.add(length + 1)
            elif nxt not in path_set and nxt > root and length + 1 < max_len:
                path_set.add(nxt)
                dfs(root, nxt, path_set, length + 1)
                path_set.discard(nxt)

    for root in range(len(adj)):
        dfs(root, root, {root}, 0)
    return lengths


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


def quotient_hom_obstruction(g1: SymbolicGraph, g2: SymbolicGraph, n: int) -> ObstructionReport:
    """Compare the level-n quotients: odd closed walks must map to odd closed
    walks of at most equal length, so a larger target odd girth, from
    ``odd_girth_root``, obstructs every reduction compatible with the
    level-n data.  When both families expose finite cores, simple cycles
    obstruct injective reductions via the cycle spectrum, of lengths up to
    40."""
    found = [odd_girth_root(quotient(g, n).undirected().index()) for g in (g1, g2)]
    o1, o2 = (None if f is None else f[0] for f in found)
    girth_obstructed = o1 is not None and (o2 is None or o2 > o1)
    spectra, spectrum_reason = None, ""
    if g1.finite_core is not None and g2.finite_core is not None:
        spectra = (cycle_spectrum(g1.finite_core(), 40), cycle_spectrum(g2.finite_core(), 40))
        missing = min(spectra[0] - spectra[1], default=None)
        if missing is not None:
            spectrum_reason = ("; cycle length %d of the source core is missing from the "
                               "target core, obstructing injective reductions" % missing)
    girths = "odd girths %s vs %s" % (o1, o2)
    if girth_obstructed:  # the one head that prints a missing girth as "none"
        head = ("no continuous reduction compatible with level-%d data: odd girths %s vs %s"
                % (n, o1, "none" if o2 is None else o2))
    elif spectrum_reason:
        head = girths
    else:
        head = "no obstruction found at level %d (%s)" % (n, girths)
    return ObstructionReport(g1.spec, g2.spec, n, (o1, o2),
                             girth_obstructed or bool(spectrum_reason),
                             head + spectrum_reason, spectra)


# ---------------------------------------------------------------------------
# finite graph exchange format


def finite_graph_from_text(text: str) -> QuotientGraph:
    """A graph file: the header ``directed=0`` or ``directed=1``, then one
    vertex ``V`` or edge ``U V`` per line; the vertices keep their
    first-seen order."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] not in ("directed=0", "directed=1"):
        raise ValueError("graph file must start with the header directed=0 or directed=1: %r"
                         % (lines[0] if lines else ""))
    vertices, edges = [], []
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) > 2:
            raise ValueError("graph line must be V or U V: %r" % ln)
        vertices += toks
        if len(toks) == 2:
            edges.append(tuple(toks))
    return finite_graph(vertices, edges, directed=lines[0] == "directed=1")
