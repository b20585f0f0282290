"""The toolkit's one backtracking search, division routine and union-find.

Knot colorings (over a quandle), normalized cocycles (over a coefficient
group) and equivalences of coverings (over the second total) are the
solutions of relations ``values[top] = table[values[mid]][values[bot]]``
over the table of the object searched, propagated by its division rows.
"""

from __future__ import annotations

from .errors import BudgetExceeded


def find(parent, x):
    """Union-find root of x, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def union(parent, x, y):
    """Merge the classes of x and y under the lesser root; True if they differed."""
    rx, ry = find(parent, x), find(parent, y)
    if rx == ry:
        return False
    parent[max(rx, ry)] = min(rx, ry)
    return True


def division_rows(table):
    """Division rows of a table whose rows are permutations: ``left[m][t]``
    is the b with table[m][b] = t, and ``right[b][t]`` the m with
    table[m][b] = t or, when some column repeats a value, ``right`` is None."""
    n = len(table)
    left, right = [], [[-1] * n for _ in range(n)]
    for m, row in enumerate(table):
        inverse = [0] * n
        for b, t in enumerate(row):
            inverse[t] = b
            right[b][t] = m
        left.append(tuple(inverse))
    # a column that repeats a value misses another, whose entry stays -1
    latin = not any(-1 in column for column in right)
    return tuple(left), (tuple(map(tuple, right)) if latin else None)


def solutions(op, relations, values, *, domains=None, distinct=False, budget, what):
    """Yield, as tuples, the completions of ``values`` (-1 marks a free
    variable) that lie in the domains and satisfy every relation
    (top, mid, bot): values[top] = table[values[mid]][values[bot]].

    ``table`` is ``op.table``, of the Quandle or CoeffGroup ``op``, and
    ``left``, ``right`` its cached :func:`division_rows`. ``domains[v]``
    lists the values of variable v in the order to try; by default every
    row of ``table``. With ``distinct`` no two variables take one value.

    Assigning a variable visits the relations through it: known mid and bot
    force top or check it, known mid and top force bot, and known top and
    bot force mid when ``right`` is not None. A failed relation, a forced
    value outside its domain or, with ``distinct``, a value already taken
    is a conflict, undone through the trail. The search branches on the
    least free variable, so the completions come out in lexicographic order.
    One node is counted per state entered: the root, once the given values
    have propagated, and each branch value whose propagation succeeds. More
    than ``budget`` nodes raises BudgetExceeded.
    """
    table = op.table
    left, right = op._division_rows()
    values = list(values)
    nvars = len(values)
    watch = [[] for _ in range(nvars)]
    for relation in relations:
        for v in set(relation):
            watch[v].append(relation)
    if domains is None:
        domains = [range(len(table))] * nvars
        allowed = None
    else:
        allowed = [frozenset(d) for d in domains]
    stack = [v for v in range(nvars) if values[v] >= 0]  # assigned, not yet propagated
    if allowed is not None and any(values[v] not in allowed[v] for v in stack):
        return
    used = None
    if distinct:
        used = [False] * len(table)
        for v in stack:
            if used[values[v]]:
                return
            used[values[v]] = True
    trail = []
    branches = []  # (variable, its untried values, trail length before it)
    nodes = 0
    var = 0
    while True:
        while stack:
            for top, mid, bot in watch[stack.pop()]:
                t, m, b = values[top], values[mid], values[bot]
                if m >= 0 and b >= 0:
                    forced, value = top, table[m][b]
                    if t == value:
                        continue
                    if t >= 0:
                        break
                elif m >= 0 and t >= 0:
                    forced, value = bot, left[m][t]
                elif right is not None and t >= 0 and b >= 0:
                    forced, value = mid, right[b][t]
                else:
                    continue
                if allowed is not None and value not in allowed[forced]:
                    break
                if used is not None:
                    if used[value]:
                        break
                    used[value] = True
                values[forced] = value
                trail.append(forced)
                stack.append(forced)
            else:
                continue
            break  # a conflict
        else:  # a new state
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded(f"{what} search exceeded {budget} nodes")
            while var < nvars and values[var] >= 0:
                var += 1
            if var < nvars:
                branches.append((var, iter(domains[var]), len(trail)))
            else:
                yield tuple(values)
        while branches:
            var, untried, mark = branches[-1]
            if used is not None:
                for v in trail[mark:]:
                    used[values[v]] = False
            while len(trail) > mark:
                values[trail.pop()] = -1
            for value in untried:  # its next value not taken, if any
                if used is None or not used[value]:
                    break
            else:
                branches.pop()
                continue
            if used is not None:
                used[value] = True
            values[var] = value
            trail.append(var)
            stack = [var]
            break
        else:
            return
