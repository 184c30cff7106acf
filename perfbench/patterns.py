"""The benchmark's own pattern checker: a labelled subgraph-isomorphism
test, an isomorphism-invariant hash, and the checks run on every mined
result. It shares no code with the program under test.

A graph here is a pair (vertex labels, {(u, v): edge label} with u < v).
"""

import random
import re


class Host:
    """A database graph with the indexes the matcher needs."""

    __slots__ = ("vl", "adj", "by_label", "triples")

    def __init__(self, vlabels, edges):
        self.vl = vlabels
        self.adj = [dict() for _ in vlabels]
        self.by_label = {}
        self.triples = {}
        for v, lab in enumerate(vlabels):
            self.by_label.setdefault(lab, []).append(v)
        for (u, v), lab in edges.items():
            self.adj[u][v] = lab
            self.adj[v][u] = lab
            t = triple(vlabels[u], lab, vlabels[v])
            self.triples[t] = self.triples.get(t, 0) + 1


def triple(a, e, b):
    return (a, e, b) if a <= b else (b, e, a)


class Pattern:
    """A reported pattern, prepared for matching: vertices in a connected
    search order, each with the already-placed neighbour it extends from
    and the back edges to check."""

    __slots__ = ("vl", "edges", "support", "order", "parent", "back",
                 "triples", "key")

    def __init__(self, vlabels, edges, support=None):
        self.vl = vlabels
        self.edges = edges
        self.support = support
        adj = [dict() for _ in vlabels]
        self.triples = {}
        for (u, v), lab in edges.items():
            adj[u][v] = lab
            adj[v][u] = lab
            t = triple(vlabels[u], lab, vlabels[v])
            self.triples[t] = self.triples.get(t, 0) + 1
        # BFS from the vertex with the most constrained neighbourhood.
        start = max(range(len(vlabels)), key=lambda v: (len(adj[v]), -v))
        order = [start]
        seen = {start}
        parent = [None]
        i = 0
        while i < len(order):
            v = order[i]
            i += 1
            for w in sorted(adj[v]):
                if w not in seen:
                    seen.add(w)
                    order.append(w)
                    parent.append((order.index(v), adj[v][w]))
        pos = {v: k for k, v in enumerate(order)}
        back = []
        for k, v in enumerate(order):
            checks = []
            for w, lab in adj[v].items():
                if pos[w] < k and (parent[k] is None or pos[w] != parent[k][0]):
                    checks.append((pos[w], lab))
            back.append(checks)
        self.order = order
        self.parent = parent
        self.back = back
        self.key = invariant(vlabels, adj, len(edges))

    def connected(self):
        return len(self.order) == len(self.vl)


def invariant(vlabels, adj, edge_count, rounds=3):
    """Colour refinement (1-WL) over vertex and edge labels: equal for
    isomorphic graphs, and rarely equal otherwise."""
    colors = list(vlabels)
    for _ in range(rounds):
        colors = [hash((colors[v], tuple(sorted((lab, colors[w])
                                                for w, lab in adj[v].items()))))
                  for v in range(len(vlabels))]
    return (len(vlabels), edge_count, tuple(sorted(colors)))


def occurs(p, host):
    """True when pattern p has a label-preserving injective embedding
    (edges to edges) in host."""
    for t, n in p.triples.items():
        if host.triples.get(t, 0) < n:
            return False
    vl, order, parent, back = p.vl, p.order, p.parent, p.back
    size = len(order)
    mapped = [0] * size
    used = set()

    def extend(k):
        if k == size:
            return True
        want = vl[order[k]]
        if parent[k] is None:
            cands = host.by_label.get(want, ())
        else:
            anchor, elab = parent[k]
            nb = host.adj[mapped[anchor]]
            cands = [w for w, lab in nb.items()
                     if lab == elab and host.vl[w] == want]
        for c in cands:
            if c in used:
                continue
            ok = True
            for (j, lab) in back[k]:
                if host.adj[c].get(mapped[j]) != lab:
                    ok = False
                    break
            if not ok:
                continue
            mapped[k] = c
            used.add(c)
            if extend(k + 1):
                return True
            used.discard(c)
        return False

    return extend(0)


def isomorphic(a, b):
    if a.key != b.key:
        return False
    return occurs(a, Host(b.vl, b.edges))


def support(p, hosts):
    return sum(1 for h in hosts if occurs(p, h))


# ---------------------------------------------------------------- parsing

def read_database(path):
    """gSpan text file -> list of (vlabels, edges)."""
    return [(vl, edges) for vl, edges, _ in _read_graphs(path)]


def read_patterns(path):
    """`partminer mine --output` file -> list of Pattern."""
    return [Pattern(vl, edges, sup) for vl, edges, sup in _read_graphs(path)]


def _read_graphs(path):
    out = []
    vl = edges = None
    sup = None
    with open(path) as f:
        for line in f:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "t":
                if vl is not None:
                    out.append((vl, edges, sup))
                vl, edges, sup = [], {}, None
            elif parts[0] == "#" and len(parts) == 3 and parts[1] == "support":
                sup = int(parts[2])
            elif parts[0] == "v":
                vl.append(int(parts[2]))
            elif parts[0] == "e":
                u, v, lab = int(parts[1]), int(parts[2]), int(parts[3])
                edges[(min(u, v), max(u, v))] = lab
    if vl is not None:
        out.append((vl, edges, sup))
    return out


_CODE_EDGE = re.compile(r"\((\d+),(\d+),(-?\d+),(-?\d+),(-?\d+)\)")


def pattern_from_code(code, sup):
    """A DFS code string as the daemon's `query` returns it,
    "(from,to,from_label,edge_label,to_label)...", -> Pattern."""
    vl = {}
    edges = {}
    for m in _CODE_EDGE.finditer(code):
        a, b, la, le, lb = (int(x) for x in m.groups())
        vl[a] = la
        vl[b] = lb
        edges[(min(a, b), max(a, b))] = le
    return Pattern([vl[v] for v in range(len(vl))], edges, sup)


# ---------------------------------------------------------------- checks

def index_by_key(patterns):
    buckets = {}
    for p in patterns:
        buckets.setdefault(p.key, []).append(p)
    return buckets


def find_duplicates(buckets):
    errors = []
    for group in buckets.values():
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                if isomorphic(group[i], group[j]):
                    errors.append("two reported patterns are isomorphic "
                                  "(supports %s and %s, %d edges)" % (
                                      group[i].support, group[j].support,
                                      len(group[i].edges)))
    return errors


def lookup(buckets, p):
    for q in buckets.get(p.key, ()):
        if isomorphic(p, q):
            return q
    return None


def same_sets(got, want, what):
    """Pattern sets equal up to isomorphism, support by support."""
    errors = []
    if len(got) != len(want):
        errors.append("%s: %d patterns, expected %d" % (what, len(got),
                                                        len(want)))
    g_buckets = index_by_key(got)
    errors += ["%s: %s" % (what, e) for e in find_duplicates(g_buckets)]
    missing = 0
    wrong = 0
    for p in want:
        q = lookup(g_buckets, p)
        if q is None:
            missing += 1
        elif q.support != p.support:
            wrong += 1
    if missing:
        errors.append("%s: %d expected patterns missing" % (what, missing))
    if wrong:
        errors.append("%s: %d patterns with a wrong support" % (what, wrong))
    return errors


def check_mined(db, patterns, minsup, seed, sample=24):
    """Checks one mined result against the database it came from.

    * the complete set of frequent single-edge patterns, recounted;
    * the exact support of a seeded sample of larger patterns;
    * for each sampled pattern, every connected one-edge-smaller
      sub-pattern is reported with at least its support;
    * no two reported patterns are isomorphic.
    """
    errors = []
    hosts = [Host(vl, edges) for vl, edges in db]
    counts = {}
    for h in hosts:
        for t in h.triples:
            counts[t] = counts.get(t, 0) + 1
    frequent = {t: c for t, c in counts.items() if c >= minsup}
    reported = {}
    for p in patterns:
        if p.support is None or p.support < minsup:
            errors.append("pattern reported below the minimum support")
        if len(p.edges) == 1:
            (u, v), lab = next(iter(p.edges.items()))
            t = triple(p.vl[u], lab, p.vl[v])
            if t in reported:
                errors.append("single-edge pattern %s reported twice" % (t,))
            reported[t] = p.support
        if not p.connected():
            errors.append("disconnected pattern reported")
    if reported != frequent:
        bad = set(reported.items()) ^ set(frequent.items())
        errors.append("single-edge patterns differ from the recount in %d "
                      "entries" % len(bad))

    buckets = index_by_key(patterns)
    errors += find_duplicates(buckets)

    larger = [p for p in patterns if len(p.edges) > 1]
    rng = random.Random(seed)
    chosen = rng.sample(larger, min(sample, len(larger)))
    for p in chosen:
        exact = support(p, hosts)
        if exact != p.support:
            errors.append("pattern with %d edges reported at support %d, "
                          "recounted %d" % (len(p.edges), p.support, exact))
        for e in p.edges:
            sub = _drop_edge(p, e)
            if sub is None:
                continue
            q = lookup(buckets, sub)
            if q is None:
                errors.append("sub-pattern (%d edges) of a reported pattern "
                              "is missing" % len(sub.edges))
            elif q.support < p.support:
                errors.append("sub-pattern reported at support %d below its "
                              "super-pattern's %d" % (q.support, p.support))
    return errors


def _drop_edge(p, edge):
    """p without `edge` (and without an endpoint left isolated), or None
    when the rest is empty or disconnected."""
    if len(p.edges) < 2:
        return None
    edges = {e: lab for e, lab in p.edges.items() if e != edge}
    degree = [0] * len(p.vl)
    for (u, v) in edges:
        degree[u] += 1
        degree[v] += 1
    keep = [v for v in range(len(p.vl)) if degree[v] > 0]
    remap = {v: k for k, v in enumerate(keep)}
    sub = Pattern([p.vl[v] for v in keep],
                  {(remap[u], remap[v]): lab for (u, v), lab in edges.items()})
    return sub if sub.connected() else None
