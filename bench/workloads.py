"""Workload inputs.  Nothing here imports hfree.

``campaign`` and ``sweep`` are exhaustive: their inputs are suite names and
caps, the same for every seed.  ``solve`` draws its instances from the
seed, each with a certificate of its answer that ``checks`` verifies.
"""
from __future__ import annotations

import itertools
import random

# (suite, host_cap, k_cap): the acceptance caps, one step up where that
# still takes seconds.  case1 stays at its acceptance cap of 4: at host
# cap 5 it takes over a minute.
CAMPAIGN_SUITES = (
    ("degree", 5, 2),
    ("tdiamond", 5, 2),
    ("case1", 4, 1),
    ("sparse-vl", 5, 1),
    ("sparse-vh", 5, 1),
    ("complement", 6, 2),
)

SWEEP_SUITES = ("classify", "churn")
SWEEP_N_CAP = 7

# pattern name: (vertex count, edges, modification kind).  The classifier
# calls all four NP-complete.
PATTERNS = {
    "p3": (3, ((0, 1), (1, 2)), "deletion"),
    "p4": (4, ((0, 1), (1, 2), (2, 3)), "editing"),
    "diamond": (4, ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3)), "deletion"),
    "c4": (4, ((0, 1), (1, 2), (2, 3), (0, 3)), "completion"),
}
SOLVE_HOST_SIZES = range(16, 26)
SOLVE_BUDGETS = (3, 4)
# Instances per pattern, answer, host size and budget.  The median instance
# time lies where instance times are sparse (p40 to p60 span 2.6 to 4.8 ms),
# so its seed-to-seed spread falls only as one over the square root of the
# instance count: from that density, about 12 % of the median with 2 per
# cell and 6 % with 7.  bench/README.md has the measurements.
SOLVE_REPEATS = 7


# ---------------------------------------------------------------------------
# H-free host families, one per pattern

def _cluster(rng: random.Random, n: int) -> set:
    """Disjoint cliques: P3-free."""
    edges: set = set()
    v = 0
    while v < n:
        size = min(n - v, rng.randint(1, 6))
        edges.update(itertools.combinations(range(v, v + size), 2))
        v += size
    return edges


def _cograph(rng: random.Random, vs: list) -> set:
    if len(vs) == 1:
        return set()
    cut = rng.randint(1, len(vs) - 1)
    a, b = vs[:cut], vs[cut:]
    edges = _cograph(rng, a) | _cograph(rng, b)
    if rng.random() < 0.5:
        edges.update((x, y) for x in a for y in b)
    return edges


def _cographs(rng: random.Random, n: int) -> set:
    """Disjoint random cographs of 2 to 6 vertices: P4-free."""
    edges: set = set()
    v = 0
    while v < n:
        size = min(n - v, rng.randint(2, 6))
        edges |= _cograph(rng, list(range(v, v + size)))
        v += size
    return edges


def _bipartite(rng: random.Random, n: int) -> set:
    """Balanced bipartite graph with 30% of the cross pairs: triangle-free,
    hence diamond-free."""
    half = n // 2
    cross = [(x, y) for x in range(half) for y in range(half, n)]
    return set(rng.sample(cross, round(0.3 * len(cross))))


def _chordal(rng: random.Random, n: int) -> set:
    """Each new vertex joins a clique of at most three earlier vertices, so
    the reverse order is a perfect elimination order: chordal, hence
    C4-free."""
    adj: list[set] = [set() for _ in range(n)]
    for v in range(1, n):
        if rng.random() < 0.1:
            continue
        u = rng.randrange(v)
        clique = [u]
        for w in rng.sample(sorted(adj[u]), len(adj[u])):
            if len(clique) == 3:
                break
            if all(w in adj[x] for x in clique):
                clique.append(w)
        for x in clique:
            adj[x].add(v)
            adj[v].add(x)
    return {(u, v) for u in range(n) for v in adj[u] if u < v}


FREE_HOSTS = {"p3": _cluster, "p4": _cographs, "diamond": _bipartite, "c4": _chordal}


def _relabel(rng: random.Random, n: int, edges) -> set:
    perm = list(range(n))
    rng.shuffle(perm)
    return {tuple(sorted((perm[u], perm[v]))) for u, v in edges}


# ---------------------------------------------------------------------------
# planted instances

def _yes_instance(rng, name, n, k):
    """An H-free graph with k pairs toggled that the kind can toggle back:
    deletion undoes added edges, completion undoes removed ones."""
    _, _, kind = PATTERNS[name]
    free = _relabel(rng, n, FREE_HOSTS[name](rng, n))
    pairs = list(itertools.combinations(range(n), 2))
    if kind == "deletion":
        pool = [p for p in pairs if p not in free]
    elif kind == "completion":
        pool = sorted(free)
    else:
        pool = pairs
    pert = set(rng.sample(pool, k))
    cert = {"answer": True, "free_edges": sorted(free), "perturbation": sorted(pert)}
    return free ^ pert, cert


def _no_instance(rng, name, n, k):
    """An H-free graph with k+1 induced copies of H planted on vertex sets
    that pairwise share at most one vertex."""
    h_n, h_edges, _ = PATTERNS[name]
    edges = _relabel(rng, n, FREE_HOSTS[name](rng, n))
    h_adj = {frozenset(e) for e in h_edges}
    fresh = list(range(n))
    rng.shuffle(fresh)
    copies: list[list[int]] = []
    for _ in range(k + 1):
        # A later copy takes one vertex of an earlier copy half the time,
        # and always when fresh vertices run short.
        need_shared = len(fresh) < h_n + (h_n - 1) * (k - len(copies))
        if copies and (need_shared or rng.random() < 0.5):
            vs = [rng.choice(rng.choice(copies))] + [fresh.pop() for _ in range(h_n - 1)]
        else:
            vs = [fresh.pop() for _ in range(h_n)]
        rng.shuffle(vs)
        for a, b in itertools.combinations(range(h_n), 2):
            p = tuple(sorted((vs[a], vs[b])))
            if frozenset((a, b)) in h_adj:
                edges.add(p)
            else:
                edges.discard(p)
        copies.append(sorted(vs))
    return edges, {"answer": False, "copies": copies}


def _graph6(n: int, edges) -> str:
    """graph6 encoding (n <= 62): upper triangle column by column, six
    bits per byte."""
    bits = [1 if (i, j) in edges else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = [
        chr(63 + int("".join(map(str, bits[i:i + 6])), 2))
        for i in range(0, len(bits), 6)
    ]
    return chr(63 + n) + "".join(body)


def solve_instances(seed: int):
    """Per pattern and answer, SOLVE_REPEATS instances for every host size
    and budget: 1120 instances.  Graphs go to the program as graph6 strings
    or JSON edge lists, alternately.  Returns (instance objects for the program, plain
    copies for the checks, certificates), in a seeded shuffled order."""
    rng = random.Random(seed)
    cells = [
        (name, answer, n, k)
        for name in PATTERNS
        for answer in (True, False)
        for n in SOLVE_HOST_SIZES
        for k in SOLVE_BUDGETS
        for _ in range(SOLVE_REPEATS)
    ]
    rng.shuffle(cells)
    objs, plain, certs = [], [], []
    for i, (name, answer, n, k) in enumerate(cells):
        h_n, h_edges, kind = PATTERNS[name]
        make = _yes_instance if answer else _no_instance
        edges, cert = make(rng, name, n, k)
        graph = {"n": n, "edges": [list(e) for e in sorted(edges)]}
        h = {"n": h_n, "edges": [list(e) for e in h_edges]}
        plain.append({"graph": graph, "k": k, "h": h, "kind": kind})
        if i % 2:
            graph, h = _graph6(n, edges), _graph6(h_n, set(h_edges))
        objs.append({"graph": graph, "k": k, "h": h, "kind": kind})
        certs.append(dict(cert, pattern=name))
    return objs, plain, certs
