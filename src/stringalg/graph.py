"""Directed-graph traversals shared by the whole package.

Every function takes its start nodes and a successor callable
`succ(node) -> iterable of nodes`; nodes need only be hashable, so the
same code walks string automata, plain quivers, a quiver's product
with a prefix table, the (state, label set) pairs of the side-part
passes and the (path, vertex) pairs of a projective's basis.  Only the
part reachable from the start nodes is visited.  All loops are
iterative, so depth is bounded by memory and not by the recursion
limit.  Strongly connected components are Tarjan's (1972) single pass;
simple cycles are Johnson's (1975) circuit search, run on one strongly
connected component at a time, except that a component that is a
single simple cycle is read off directly.
"""


def reach(sources, succ):
    """Set of nodes reachable from sources, the sources included."""
    seen = set(sources)
    stack = list(seen)
    while stack:
        for m in succ(stack.pop()):
            if m not in seen:
                seen.add(m)
                stack.append(m)
    return seen


def sccs(nodes, succ):
    """Strongly connected components as node lists, each one listed
    after every component it can reach (Tarjan)."""
    index = {}
    low = {}
    stack = []
    on_stack = set()
    out = []
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succ(root)))]
        while work:
            v, children = work[-1]
            for w in children:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ(w))))
                    break
                if w in on_stack and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    comp = []
                    while not comp or comp[-1] != v:
                        comp.append(stack.pop())
                        on_stack.discard(comp[-1])
                    out.append(comp)
    return out


def is_cyclic(comp, succ):
    """Whether a strongly connected component carries a cycle: more than
    one node, or a single node with a loop."""
    return len(comp) > 1 or comp[0] in succ(comp[0])


def topological_order(nodes, succ):
    """Reachable nodes, each before its successors; None on a cycle."""
    order, entry = _depth_first(nodes, succ)
    return None if entry is not None else order[::-1]


def cycle_entry(nodes, succ):
    """The node at which a depth-first search from nodes, children in
    succ order, first re-enters its own path; None when acyclic."""
    return _depth_first(nodes, succ)[1]


def _depth_first(nodes, succ):
    """(postorder, cycle entry or None); stops at the first cycle."""
    order = []
    done = set()
    active = set()
    for root in nodes:
        if root in done:
            continue
        active.add(root)
        work = [(root, iter(succ(root)))]
        while work:
            v, children = work[-1]
            for w in children:
                if w in active:
                    return order, w
                if w not in done:
                    active.add(w)
                    work.append((w, iter(succ(w))))
                    break
            else:
                work.pop()
                active.discard(v)
                done.add(v)
                order.append(v)
    return order, None


def component_cycles(comps, succ):
    """Every simple cycle of the given strongly connected components
    (as `sccs` lists them) once, as the node list of a closed path.

    A component in which every node has one successor inside it is one
    simple cycle, read off by following those successors from its first
    node: the list Johnson's search would yield there.  On any other
    component, Johnson: the circuits through its first node are listed
    with blocking, then that node is removed and the rest of the
    component split again.
    """
    todo = list(comps)
    while todo:
        comp = todo.pop()
        members = set(comp)
        adj = {v: [w for w in succ(v) if w in members] for v in comp}
        start = comp[0]
        if all(len(ws) == 1 for ws in adj.values()):
            cycle = [start]
            while (v := adj[cycle[-1]][0]) != start:
                cycle.append(v)
            yield cycle
            continue
        yield from _circuits(start, adj)
        rest = [v for v in comp if v != start]
        todo.extend(sccs(rest, lambda v: [w for w in adj[v] if w != start]))


def _circuits(start, adj):
    """Each simple cycle through start in the adjacency lists adj, once.

    A node stays blocked while every path from it back to start runs
    through the current path; blockers[w] holds the nodes to unblock
    along with w."""
    path = [start]
    closed = [False]
    blocked = {start}
    blockers = {}
    work = [iter(adj[start])]
    while work:
        for w in work[-1]:
            if w == start:
                yield list(path)
                closed[-1] = True
            elif w not in blocked:
                path.append(w)
                closed.append(False)
                blocked.add(w)
                work.append(iter(adj[w]))
                break
        else:
            work.pop()
            v = path.pop()
            if closed.pop():
                if closed:
                    closed[-1] = True
                unblock = [v]
                while unblock:
                    u = unblock.pop()
                    if u in blocked:
                        blocked.discard(u)
                        unblock.extend(blockers.pop(u, ()))
            else:
                for w in adj[v]:
                    blockers.setdefault(w, set()).add(v)
