"""Seeded inputs: synthetic graph databases of the D/T/N/L/I kind and
stationary relabel streams over them.

The generator is the benchmark's own, so a change to the program's datagen
cannot move the yardstick. It follows the shape of the paper's generator
(D graphs of about T edges over N labels, assembled from L potentially
frequent kernels of about I edges) with choices that keep one seed's
workload close in cost to another's:

* kernel shapes (degree-3 trees of I edges plus one chord) come from a
  fixed stream, so no seed draws a star with 2^I frequent sub-stars; the
  seed draws kernel labels and how graphs are assembled;
* with ``fixed_kernel_labels`` set, the kernel labels come from a fixed
  stream too, and the seed draws only how graphs are assembled and their
  noise. Which kernel labels coincide decides how many sub-patterns of
  different kernels merge, and the label values order the DFS codes and
  the partitioning, so the labels decide much of the mining cost and
  memory: with them fixed, every seed's database costs about the same;
* kernel popularity has two fixed tiers, far above and far below a few
  percent support, so the same kernels are frequent under every seed;
* with ``reserved_noise`` set, the noise that pads graphs to T edges
  (bridges between kernels, extra edges and vertices) takes its labels
  from a range of its own, [N, 2N), so no frequent pattern contains a
  noise label and relabelling noise never moves a frequent support. The
  static workload leaves it unset: noise shares the kernel labels, as in
  the paper's generator.
"""

import bisect
import itertools
import random

# Kernels per shape: a replant swaps a kernel instance for another kernel
# of the same shape, which keeps the stream stationary.
VARIANTS = 3
# Share of all kernel draws that goes to the popular quarter of the kernels.
HOT_SHARE = 0.6
# Labels of the vertices and edges EditStream.grow adds: above any label
# the generator draws (at most 2N).
GROW_BASE = 1000
GROW_LABELS = 1000


class Graph:
    __slots__ = ("vlabels", "edges")

    def __init__(self):
        self.vlabels = []
        self.edges = {}  # (u, v) with u < v -> label

    def add_vertex(self, label):
        self.vlabels.append(label)
        return len(self.vlabels) - 1

    def add_edge(self, u, v, label):
        self.edges[(min(u, v), max(u, v))] = label

    def has_edge(self, u, v):
        return (min(u, v), max(u, v)) in self.edges


class Slot:
    """One embedded kernel instance: its vertex ids in the host graph, the
    host edges it owns (kernel edge order) and the kernel it carries."""

    __slots__ = ("vertices", "edges", "kernel")

    def __init__(self, vertices, edges, kernel):
        self.vertices = vertices
        self.edges = edges
        self.kernel = kernel


class Database:
    def __init__(self, params):
        self.params = params
        self.graphs = []
        self.slots = []  # per graph: list of Slot
        self.noise = []  # per graph: list of ("v", id) / ("e", (u, v))
        self.kernels = []  # (vlabels, [(u, v, label)], shape id)
        self.weights = []
        self.by_shape = {}


def _shape(rng, edges):
    """A random connected shape with `edges` edges: a degree<=3 tree over
    edges vertices plus one chord (one cycle, as in most real kernels)."""
    n = edges
    degree = [0] * n
    tree = []
    for v in range(1, n):
        choices = [u for u in range(v) if degree[u] < 3]
        u = rng.choice(choices)
        degree[u] += 1
        degree[v] += 1
        tree.append((u, v))
    present = set(tree)
    chords = [(u, v) for u in range(n) for v in range(u + 2, n)
              if (u, v) not in present and degree[u] < 3 and degree[v] < 3]
    if chords:
        tree.append(rng.choice(chords))
    return n, tree


def generate(params, seed):
    """params: dict with d, t, n, l, i and optionally reserved_noise and
    fixed_kernel_labels. Returns a Database."""
    rng = random.Random(seed * 1000003 + 17)
    d, t, n, l, i = (params[k] for k in ("d", "t", "n", "l", "i"))
    db = Database(params)
    # Shapes come from a fixed stream, so every seed mines kernels of the
    # same structure; the seed draws their labels and the way graphs are
    # assembled from them.
    shape_rng = random.Random(i * 131 + l)
    shapes = [_shape(shape_rng, max(2, i)) for _ in range(max(1, l // VARIANTS))]
    if params.get("fixed_kernel_labels"):
        label_rng = random.Random(n * 7919 + i * 131 + l)

        def kernel_label():
            return label_rng.randrange(n)
    else:
        def kernel_label():
            return rng.randrange(n)
    for k in range(l):
        shape_id = k % len(shapes)
        nv, sedges = shapes[shape_id]
        vl = [kernel_label() for _ in range(nv)]
        el = [(u, v, kernel_label()) for (u, v) in sedges]
        db.kernels.append((vl, el, shape_id))
        db.by_shape.setdefault(shape_id, []).append(k)
    # Two popularity tiers in a fixed order: the first quarter of the
    # kernels share HOT_SHARE of all draws and land well above a few
    # percent support, the rest well below it. No kernel sits near the
    # threshold, where a seed would decide whether its hundreds of
    # sub-patterns are frequent.
    hot = max(1, l // 4)
    db.weights = [HOT_SHARE / hot if k < hot else
                  (1.0 - HOT_SHARE) / max(1, l - hot) for k in range(l)]
    cumulative = list(itertools.accumulate(db.weights))

    def sample_kernel():
        return bisect.bisect_left(cumulative, rng.random() * cumulative[-1])

    noise_base = n if params.get("reserved_noise") else 0

    def noise_label():
        return noise_base + rng.randrange(n)

    for _ in range(d):
        g = Graph()
        slots = []
        noise = []
        target = t
        while len(g.edges) < target * 0.7:
            k = sample_kernel()
            vl, el, _ = db.kernels[k]
            base = len(g.vlabels)
            verts = [g.add_vertex(lab) for lab in vl]
            owned = []
            for (u, v, lab) in el:
                g.add_edge(base + u, base + v, lab)
                owned.append((base + min(u, v), base + max(u, v)))
            slots.append(Slot(verts, owned, k))
            if base > 0:
                a = rng.randrange(base)
                b = base + rng.randrange(len(vl))
                g.add_edge(a, b, noise_label())
                noise.append(("e", (a, b)))
        attempts = 4 * target
        while len(g.edges) < target and attempts > 0:
            attempts -= 1
            if rng.random() < 0.5 and len(g.vlabels) >= 2:
                a = rng.randrange(len(g.vlabels))
                b = rng.randrange(len(g.vlabels))
                if a == b or g.has_edge(a, b):
                    continue
                g.add_edge(a, b, noise_label())
                noise.append(("e", (min(a, b), max(a, b))))
            else:
                v = g.add_vertex(noise_label())
                a = rng.randrange(v)
                g.add_edge(a, v, noise_label())
                noise.append(("v", v))
                noise.append(("e", (a, v)))
        db.graphs.append(g)
        db.slots.append(slots)
        db.noise.append(noise)
    return db


def write_gspan(graphs, path):
    out = []
    for gid, g in enumerate(graphs):
        out.append("t # %d" % gid)
        for v, lab in enumerate(g.vlabels):
            out.append("v %d %d" % (v, lab))
        for (u, v), lab in sorted(g.edges.items()):
            out.append("e %d %d %d" % (u, v, lab))
    with open(path, "w") as f:
        f.write("\n".join(out) + "\n")


class EditStream:
    """Stationary relabel edits over a generated database.

    Each method returns the edits for one graph and applies them to the
    stream's own copy of the database as it makes them; that copy is what
    the benchmark mines from scratch to check the daemon's result.

    * `renoise(g)` redraws the label of every noise vertex and edge of g
      from the noise range. Over a database with reserved noise labels,
      frequent patterns never contain noise labels, so the frequent set
      and every support stay fixed while the program does all of its
      incremental work on the touched graphs.
    * `replant(g)` also moves kernel instances: it redraws one kernel slot
      of g from the kernels of the same shape and relabels the slot. Both
      kinds redraw a component from its own distribution given the rest,
      so the database after any number of edits is distributed like a
      freshly generated one.

    * `grow(g)` adds one vertex to g, attached by one edge to a vertex g
      had at the start, with both labels drawn from GROW_LABELS labels of
      their own. No frequent pattern can contain such a label, so `grow`
      keeps every frequent support fixed on any database, reserved noise
      or not; the database only grows by an edge per call.

    Replants move supports across the threshold, which renoise and grow
    never do; the benchmark uses replant only for the fixed replay that
    shows IncPartMiner missing patterns that return above the threshold.
    """

    def __init__(self, db, seed):
        self.db = db
        self.rng = random.Random(seed * 7919 + 5)
        self.start_vertices = [len(g.vlabels) for g in db.graphs]

    def renoise(self, gid):
        g = self.db.graphs[gid]
        n = self.db.params["n"]
        base = n if self.db.params.get("reserved_noise") else 0
        edits = []
        for kind, what in self.db.noise[gid]:
            lab = base + self.rng.randrange(n)
            if kind == "v":
                g.vlabels[what] = lab
                edits.append({"kind": "relabel", "graph": gid, "vertex": what,
                              "label": lab})
            else:
                g.edges[what] = lab
                edits.append({"kind": "relabel_edge", "graph": gid,
                              "u": what[0], "v": what[1], "label": lab})
        return edits

    def grow(self, gid):
        g = self.db.graphs[gid]
        attach = self.rng.randrange(self.start_vertices[gid])
        vlabel = GROW_BASE + self.rng.randrange(GROW_LABELS)
        elabel = GROW_BASE + self.rng.randrange(GROW_LABELS)
        v = g.add_vertex(vlabel)
        g.add_edge(attach, v, elabel)
        return [{"kind": "add_vertex", "graph": gid, "attach": attach,
                 "vertex_label": vlabel, "edge_label": elabel}]

    def replant(self, gid):
        db, rng = self.db, self.rng
        g = db.graphs[gid]
        edits = []
        if db.slots[gid]:
            slot = db.slots[gid][rng.randrange(len(db.slots[gid]))]
            group = db.by_shape[db.kernels[slot.kernel][2]]
            x = rng.random() * sum(db.weights[k] for k in group)
            k = group[-1]
            for cand in group:
                x -= db.weights[cand]
                if x < 0:
                    k = cand
                    break
            slot.kernel = k
            vl, el, _ = db.kernels[k]
            for local, v in enumerate(slot.vertices):
                g.vlabels[v] = vl[local]
                edits.append({"kind": "relabel", "graph": gid, "vertex": v,
                              "label": vl[local]})
            for (u, v), (_, _, lab) in zip(slot.edges, el):
                g.edges[(u, v)] = lab
                edits.append({"kind": "relabel_edge", "graph": gid, "u": u,
                              "v": v, "label": lab})
        return edits
