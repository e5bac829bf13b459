"""Finite posets as finite topological spaces (Alexandrov: opens are up-sets).

Elements carry stable string identifiers; derived structure is indexed by
position.  Monotone maps are the continuous maps between these spaces.
"""

from __future__ import annotations

import heapq


class UnknownElement(Exception):
    pass


class NotMonotone(Exception):
    pass


class Poset:
    """Finite poset given by elements and covering pairs x < y (x covered by y)."""

    def __init__(self, elements, covers):
        self.elements = list(elements)
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("duplicate element identifiers")
        self.index = {e: i for i, e in enumerate(self.elements)}
        self.covers = []
        for x, y in covers:
            if x not in self.index or y not in self.index:
                raise UnknownElement("cover (%r, %r) uses unknown element" % (x, y))
            self.covers.append((self.index[x], self.index[y]))
        n = len(self.elements)
        self.succ = [set() for _ in range(n)]   # succ[i] = {j : i covered by j}
        for i, j in self.covers:
            self.succ[i].add(j)
        # reflexive-transitive closure of the cover relation
        leq = [set([i]) for i in range(n)]
        for i in reversed(self.linear_extension()):
            for j in self.succ[i]:
                leq[i] |= leq[j]
        self.up = leq  # up[i] = {j : i <= j}
        self.down = [set() for _ in range(n)]
        for i in range(n):
            for j in self.up[i]:
                self.down[j].add(i)
        self._check_transitive_reduction()

    def _check_transitive_reduction(self):
        cov = set(self.covers)
        for i, j in cov:
            # a cover must not be implied by a longer path
            for k in self.up[i]:
                if k != i and k != j and j in self.up[k]:
                    raise ValueError(
                        "cover (%s, %s) is not in the transitive reduction"
                        % (self.elements[i], self.elements[j])
                    )

    def __len__(self):
        return len(self.elements)

    def idx(self, x) -> int:
        if x not in self.index:
            raise UnknownElement("unknown element %r" % x)
        return self.index[x]

    def is_open(self, names) -> bool:
        idxs = {self.idx(x) for x in names}
        return all(self.up[i] <= idxs for i in idxs)

    def open_sets(self):
        """All up-sets, as frozensets of indices (exponential; small posets)."""
        # grow from the empty open by unioning in the minimal opens U_x
        gens = [frozenset(self.up[i]) for i in range(len(self.elements))]
        seen = {frozenset()}
        frontier = [frozenset()]
        while frontier:
            s = frontier.pop()
            for g in gens:
                t = s | g
                if t not in seen:
                    seen.add(t)
                    frontier.append(t)
        return sorted(seen, key=lambda s: (len(s), sorted(s)))

    def longest_chain_length(self) -> int:
        """Edge count of the longest chain."""
        depth = [0] * len(self.elements)
        for i in reversed(self.linear_extension()):
            depth[i] = max((depth[j] + 1 for j in self.succ[i]), default=0)
        return max(depth, default=0)

    def linear_extension(self):
        """Element indices in a topological (low-to-high) order, deterministic:
        the smallest index whose lower covers are all placed comes next."""
        n = len(self.elements)
        indeg = [0] * n
        for i in range(n):
            for j in self.succ[i]:
                indeg[j] += 1
        heap = [i for i in range(n) if indeg[i] == 0]     # increasing, so a heap
        order = []
        while heap:
            i = heapq.heappop(heap)
            order.append(i)
            for j in self.succ[i]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    heapq.heappush(heap, j)
        if len(order) != n:
            raise ValueError("cover graph has a cycle")
        return order

    def __repr__(self):
        return "Poset(%d elements, %d covers)" % (len(self.elements), len(self.covers))


class MonotoneMap:
    """Order-preserving map of posets, i.e. a continuous map of finite spaces."""

    def __init__(self, source: Poset, target: Poset, values):
        self.source = source
        self.target = target
        if set(values) != set(source.elements):
            raise UnknownElement("map must be total on the source")
        self.values = [target.idx(values[e]) for e in source.elements]
        bad = self.violations()
        if bad:
            x, y = bad[0]
            raise NotMonotone("not monotone on %d pairs, first (%s <= %s)" % (len(bad), x, y))

    def violations(self):
        out = []
        for i, j in self.source.covers:
            if self.values[j] not in self.target.up[self.values[i]]:
                out.append((self.source.elements[i], self.source.elements[j]))
        return out

    def preimage_idx(self, idxs):
        return {i for i in range(len(self.source)) if self.values[i] in idxs}
