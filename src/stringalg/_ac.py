"""Multi-pattern matcher over any alphabet (Aho-Corasick).

Patterns are tuples of arrow ids: the relation generators, read forwards
or reversed.  The caller guarantees the pattern set is an antichain
under contiguous containment (relation generators are minimalized on
load), so at most one pattern can end at any position.  A node's
failure link is a strictly shallower node, found by breadth-first
order.
"""

from collections import deque


class AhoCorasick:
    """Failure-link automaton reporting completed patterns per step.

    States are integers; 0 is the root.  ``advance`` consumes one symbol
    and returns the next state with the index of the pattern ending
    exactly at the new position, or None.
    """

    def __init__(self, patterns):
        self.patterns = [tuple(p) for p in patterns]
        self._goto = [{}]
        self._fail = [0]
        self._ends = [None]
        for idx, pat in enumerate(self.patterns):
            if not pat:
                raise ValueError("empty pattern")
            node = 0
            for sym in pat:
                nxt = self._goto[node].get(sym)
                if nxt is None:
                    nxt = len(self._goto)
                    self._goto.append({})
                    self._fail.append(0)
                    self._ends.append(None)
                    self._goto[node][sym] = nxt
                node = nxt
            if self._ends[node] is not None:
                raise ValueError(f"duplicate pattern {pat!r}")
            self._ends[node] = idx
        self._hit = list(self._ends)
        queue = deque()
        for child in self._goto[0].values():
            queue.append(child)
        while queue:
            node = queue.popleft()
            fail = self._fail[node]
            if self._hit[node] is None:
                self._hit[node] = self._hit[fail]
            for sym, child in self._goto[node].items():
                f = fail
                while f and sym not in self._goto[f]:
                    f = self._fail[f]
                self._fail[child] = self._goto[f].get(sym, 0)
                queue.append(child)

    def advance(self, state, symbol):
        """Consume one symbol: (next state, index of the pattern ending
        exactly there or None)."""
        goto = self._goto
        while state and symbol not in goto[state]:
            state = self._fail[state]
        state = goto[state].get(symbol, 0)
        return state, self._hit[state]
