"""Independent checks of the benchmark's outputs.

Nothing here imports hfree.  Graphs are plain ``(n, edge set)`` pairs with
edges as sorted int tuples, isomorphism is decided by trying every
relabelling, and the expected sweep figures come from networkx's graph
atlas and the paper's dichotomy rule.  Each ``check_*`` function returns a
list of error strings; an empty list means the output passed.
"""
from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache

# Graphs on n unlabelled vertices, n = 0..8 (OEIS A000088).
A000088 = (1, 1, 2, 4, 11, 34, 156, 1044, 12346)


def norm(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def edge_set(pairs) -> frozenset:
    return frozenset(norm(u, v) for u, v in pairs)


# ---------------------------------------------------------------------------
# isomorphism by brute force

@lru_cache(maxsize=None)
def _iso_masks(n: int, edges: frozenset) -> frozenset:
    """Every adjacency mask, over the pairs of range(n) in lexicographic
    order, of a relabelling of the graph (n, edges)."""
    pairs = list(itertools.combinations(range(n), 2))
    masks = set()
    for perm in itertools.permutations(range(n)):
        moved = {norm(perm[u], perm[v]) for u, v in edges}
        masks.add(sum(1 << i for i, p in enumerate(pairs) if p in moved))
    return frozenset(masks)


def induced_mask(edges: frozenset, vs) -> int:
    return sum(
        1 << i
        for i, (a, b) in enumerate(itertools.combinations(vs, 2))
        if norm(a, b) in edges
    )


def induces(edges: frozenset, vs, h_n: int, h_edges: frozenset) -> bool:
    """True iff the vertex set vs induces a copy of the pattern."""
    vs = sorted(vs)
    return len(vs) == h_n and induced_mask(edges, vs) in _iso_masks(h_n, h_edges)


def is_h_free(n: int, edges: frozenset, h_n: int, h_edges: frozenset) -> bool:
    """Brute force over every h_n-subset of the vertices."""
    masks = _iso_masks(h_n, h_edges)
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    for vs in itertools.combinations(range(n), h_n):
        # induced_mask, inlined: this loop runs for millions of subsets
        mask = 0
        bit = 1
        for i, a in enumerate(vs):
            nbrs = adj[a]
            for b in vs[i + 1:]:
                if b in nbrs:
                    mask |= bit
                bit <<= 1
        if mask in masks:
            return False
    return True


# ---------------------------------------------------------------------------
# solve: certificates and witnesses

def check_yes_certificate(inst: dict, cert: dict) -> list[str]:
    """A yes-certificate is an H-free graph plus at most k perturbation
    pairs, each of a sort the instance's kind may undo, whose toggling
    gives the instance's host."""
    errors = []
    n, g, k, h_n, h_e, kind = _unpack(inst)
    free = edge_set(cert["free_edges"])
    pert = edge_set(cert["perturbation"])
    if len(pert) > k:
        errors.append(f"perturbation of {len(pert)} pairs exceeds k={k}")
    if free ^ pert != g:
        errors.append("host is not the H-free graph with the perturbation toggled")
    if kind == "deletion" and not pert <= g:
        errors.append("deletion cannot undo a perturbation that removed an edge")
    if kind == "completion" and pert & g:
        errors.append("completion cannot undo a perturbation that added an edge")
    if not is_h_free(n, free, h_n, h_e):
        errors.append("the certificate's graph contains H")
    return errors


def check_no_certificate(inst: dict, cert: dict) -> list[str]:
    """A no-certificate is k+1 induced copies of H, pairwise sharing at
    most one vertex, so no pair lies in two of them and each copy needs an
    edit of its own."""
    errors = []
    n, g, k, h_n, h_e, _ = _unpack(inst)
    copies = [tuple(c) for c in cert["copies"]]
    if len(copies) != k + 1:
        errors.append(f"{len(copies)} copies packed, need k+1={k + 1}")
    for c in copies:
        if not all(0 <= v < n for v in c) or not induces(g, c, h_n, h_e):
            errors.append(f"vertex set {list(c)} does not induce H")
    for a, b in itertools.combinations(copies, 2):
        if len(set(a) & set(b)) > 1:
            errors.append(f"copies {list(a)} and {list(b)} share a vertex pair")
    return errors


def check_solve_output(inst: dict, cert: dict, out: dict) -> list[str]:
    """The answer must match the certificate, and a yes-witness must be a
    set of at most k allowed edits after which the host is H-free."""
    expected = cert["answer"]
    if out["answer"] != expected:
        return [f"answer {out['answer']}, certificate says {expected}"]
    if not expected:
        return []
    errors = []
    n, g, k, h_n, h_e, kind = _unpack(inst)
    dels = edge_set(out["deletions"])
    comps = edge_set(out["completions"])
    if len(dels) + len(comps) > k:
        errors.append(f"witness of {len(dels) + len(comps)} edits exceeds k={k}")
    if kind == "deletion" and comps:
        errors.append("deletion witness adds edges")
    if kind == "completion" and dels:
        errors.append("completion witness deletes edges")
    if not dels <= g:
        errors.append("witness deletes a non-edge")
    if comps & g:
        errors.append("witness adds an existing edge")
    if not errors and not is_h_free(n, (g - dels) | comps, h_n, h_e):
        errors.append("edited graph still contains H")
    return errors


def _unpack(inst: dict):
    graph, h = inst["graph"], inst["h"]
    return (
        graph["n"],
        edge_set(graph["edges"]),
        inst["k"],
        h["n"],
        edge_set(h["edges"]),
        inst["kind"],
    )


# ---------------------------------------------------------------------------
# campaign reports

def check_campaign_suite(report: dict, host_cap: int, k_cap: int) -> list[str]:
    """Every campaign of one equivalence suite: no problems, k kept, the
    yes/no agreement adds up, and it covered k_cap budgets for every graph
    up to host_cap vertices."""
    errors = []
    suite = report.get("suite")
    if report.get("problems") != 0:
        errors.append(f"{suite}: problems = {report.get('problems')}")
    if not report.get("campaigns"):
        errors.append(f"{suite}: no campaigns")
    want = k_cap * sum(A000088[1:host_cap + 1])
    for i, c in enumerate(report.get("campaigns", [])):
        tag = f"{suite}[{i}]"
        for key in ("disagreements", "oracle_mismatches", "witness_failures"):
            if c[key]:
                errors.append(f"{tag}: {len(c[key])} {key}")
        if c["k_preserved"] is not True:
            errors.append(f"{tag}: k not preserved")
        if c["agree_yes"] + c["agree_no"] != c["instances"]:
            errors.append(
                f"{tag}: agree_yes {c['agree_yes']} + agree_no {c['agree_no']}"
                f" != instances {c['instances']}"
            )
        if c["instances"] != want:
            errors.append(f"{tag}: {c['instances']} instances, expected {want}")
    return errors


# ---------------------------------------------------------------------------
# sweep reports

def atlas_expectations(n_cap: int) -> dict:
    """Counts the sweep must reproduce, from networkx's graph atlas (all
    graphs up to 7 vertices) and the paper's rule: editing is hard iff
    n >= 3, deletion iff m >= 2, completion iff there are >= 2 non-edges."""
    import networkx as nx

    if n_cap > 7:
        raise ValueError("the graph atlas stops at 7 vertices")
    counts: Counter = Counter()
    hard = {"editing": 0, "deletion": 0, "completion": 0}
    for g in nx.graph_atlas_g():
        n, m = g.number_of_nodes(), g.number_of_edges()
        if not 1 <= n <= n_cap:
            continue
        counts[n] += 1
        hard["editing"] += n >= 3
        hard["deletion"] += m >= 2
        hard["completion"] += n * (n - 1) // 2 - m >= 2
    total = sum(counts.values())
    npcomplete = sum(hard.values())
    return {
        "counts": {n: counts[n] for n in range(1, n_cap + 1)},
        "polynomial": 3 * total - npcomplete,
        "npcomplete": npcomplete,
        "editing_checked": hard["editing"],
        "deletion_checked": hard["deletion"],
    }


def check_sweep(counts: dict, classify: dict, churn: dict, expect: dict) -> list[str]:
    errors = []
    got = {int(n): c for n, c in counts.items()}
    if got != expect["counts"]:
        errors.append(f"enumeration counts {got}, atlas has {expect['counts']}")
    for report, keys in (
        (classify, ("polynomial", "npcomplete")),
        (churn, ("editing_checked", "deletion_checked")),
    ):
        if report.get("problems") != 0:
            errors.append(f"{report.get('suite')}: problems = {report.get('problems')}")
        for key in keys:
            if report.get(key) != expect[key]:
                errors.append(f"{key} = {report.get(key)}, expected {expect[key]}")
    return errors
