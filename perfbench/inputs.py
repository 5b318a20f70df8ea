"""Seeded input generators for the benchmark workloads.

Every generator takes a :class:`random.Random` and returns plain source
texts or plain Python data; the program under test only ever sees the
generated texts.  The same seed gives the same inputs.  Seeds vary
constants, residues and (for the graph) which random graph of a fixed
size and degree is drawn, never the shape of the program.
"""

from __future__ import annotations

import math

# -- chains: the E14 multi-chain shape -----------------------------------

CHAIN_PERIOD = 24
#: Shifts sharing gcd 2 with the period: every chain closes after
#: ``period / gcd(period, shift)`` = 12 residue classes per constant.
CHAIN_SHIFTS = (2, 10, 14, 22)


def chains_source(rng, chains, data_per_chain, period=CHAIN_PERIOD):
    """``chains`` recursive predicates ``pK(t + shift; X) <- pK(t; X)``
    over one periodic seed each, plus the ``meetK`` self-join.

    Residues alternate in parity, so the number of classes two
    constants share (and with it the size of ``meetK``) is fixed.
    Returns ``(program_text, edb_text, expected)`` where ``expected``
    maps each ``pK`` to ``(closed-form class count, constants)``.
    """
    edb_parts, program_parts, expected = [], [], {}
    for chain in range(chains):
        shift = rng.choice(CHAIN_SHIFTS)
        names = ["k%d_%d" % (chain, n) for n in rng.sample(range(1000), data_per_chain)]
        rows = "".join(
            ' (%dn+%d; "%s");'
            % (period, 2 * rng.randrange(period // 2) + item % 2, name)
            for item, name in enumerate(names)
        )
        edb_parts.append("relation seed%d[1; 1] {%s }" % (chain, rows))
        program_parts.append("p%d(t; X) <- seed%d(t; X)." % (chain, chain))
        program_parts.append("p%d(t + %d; X) <- p%d(t; X)." % (chain, shift, chain))
        program_parts.append(
            "meet%d(t; X, Y) <- p%d(t; X), p%d(t; Y)." % (chain, chain, chain)
        )
        expected["p%d" % chain] = (period // math.gcd(period, shift), names)
    return "\n".join(program_parts), "\n".join(edb_parts), expected


# -- graph: a temporal graph with lrp edge validity -----------------------

GRAPH_PROGRAM = """
reach(t; X, Y) <- edge(t; X, Y).
reach(t + 1; X, Z) <- reach(t; X, Y), edge(t + 1; Y, Z).
"""


def graph_edges(rng, nodes, edges, periods):
    """``edges`` distinct directed edges ``(u, v, period, residue)``:
    edge ``u -> v`` is valid at every ``t >= 0`` with
    ``t = residue (mod period)``."""
    seen = set()
    out = []
    while len(out) < edges:
        u, v = rng.randrange(nodes), rng.randrange(nodes)
        if u == v or (u, v) in seen:
            continue
        seen.add((u, v))
        period = rng.choice(periods)
        out.append((u, v, period, rng.randrange(period)))
    return out


def graph_edb_text(edge_list):
    rows = "\n".join(
        '  (%dn+%d; "v%d", "v%d") where T1 >= 0;' % (p, r, u, v)
        for u, v, p, r in edge_list
    )
    return "relation edge[1; 2] {\n%s\n}" % rows


def graph_adjacency(edge_list):
    out_edges = {}
    for u, v, p, r in edge_list:
        out_edges.setdefault(u, []).append((v, p, r))
    return out_edges


def graph_reach(out_edges, source, low, high):
    """Ground ``reach(t; source, z)`` for ``low <= t < high``: a plain
    breadth-first sweep over the time-expanded edge set from t = 0
    (``out_edges`` as built by :func:`graph_adjacency`)."""
    answers = set()
    frontier = set()  # nodes reach(t - 1; source, _) holds for
    for t in range(high):
        step = set()
        for node in frontier | {source}:
            for v, p, r in out_edges.get(node, ()):
                if t % p == r:
                    step.add(v)
        frontier = step
        if t >= low:
            answers.update((t, "v%d" % source, "v%d" % z) for z in frontier)
    return answers


# -- serve: Example 4.1 shapes ---------------------------------------------

SERVE_PROGRAM = """
problems(t1 + 2, t2 + 2; X) <- course(t1, t2; X).
problems(t1 + 48, t2 + 48; X) <- problems(t1, t2; X).
"""

SERVE_PERIOD = 168


def course_row(offset, name):
    return '(%dn+%d, %dn+%d; "%s") where T2 = T1 + 2' % (
        SERVE_PERIOD, offset, SERVE_PERIOD, offset + 2, name,
    )


def serve_edb_text(rng):
    """An Example 4.1 ``course`` relation of two courses with seeded
    offsets and names."""
    rows = "".join(
        "\n  %s;" % course_row(rng.randrange(SERVE_PERIOD - 2), "c%d" % rng.randrange(10 ** 6))
        for _ in range(2)
    )
    return "relation course[2; 1] {%s\n}" % rows
