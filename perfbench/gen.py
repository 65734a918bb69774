"""Seeded diagram generator for the benchmark.

Diagrams are produced as JSON objects in the format ``vlinkhom`` reads
through ``--diagram`` (``{"name", "components": [[{"c", "o", "s"}, ...]],
"classical"}``).  The generator does not import the program, so the inputs
stay fixed whatever the program under test does with them.
"""

from __future__ import annotations

import json
import os
import random


def _passage(label, over, sign):
    return {"c": label, "o": over, "s": sign}


def braid_closure(word, name):
    """Closure of a braid word; +i crosses position i over i+1, -i under.

    Crossing labels follow the word order, every strand is oriented the same
    way, so +i gives a positive crossing and -i a negative one.
    """
    strands = max(abs(w) for w in word) + 1
    at = list(range(strands))            # strand occupying each position
    passes = [[] for _ in range(strands)]
    for label, w in enumerate(word, start=1):
        i = abs(w) - 1
        left, right = at[i], at[i + 1]
        sign = 1 if w > 0 else -1
        over, under = (left, right) if w > 0 else (right, left)
        passes[over].append(_passage(label, True, sign))
        passes[under].append(_passage(label, False, sign))
        at[i], at[i + 1] = right, left
    successor = {strand: pos for pos, strand in enumerate(at)}
    components, seen = [], set()
    for start in range(strands):
        if start in seen:
            continue
        comp, strand = [], start
        while strand not in seen:
            seen.add(strand)
            comp.extend(passes[strand])
            strand = successor[strand]
        components.append(comp)
    return {"name": name, "components": components, "classical": True}


def torus_2(k):
    """T(2,k): the closure of sigma_1^k."""
    return braid_closure([1] * k, f"t2_{k}")


def alternating_3(m):
    """The closure of (sigma_1 sigma_2^-1)^m, 2m crossings."""
    return braid_closure([1, -2] * m, f"s12_{m}")


def random_virtual(rng, n, name):
    """A one-component virtual Gauss code with ``n`` crossings.

    Each label 1..n appears once over and once under, in a random cyclic
    order, with a random sign per crossing.
    """
    order = [(label, over) for label in range(1, n + 1) for over in (True, False)]
    rng.shuffle(order)
    signs = {label: rng.choice((1, -1)) for label in range(1, n + 1)}
    return {"name": name,
            "components": [[_passage(c, o, signs[c]) for c, o in order]]}


# Chain dimension wanted of a random code, by crossing count: near the most
# common values, so that every seed gives about the same amount of work.
TARGET_DIMENSION = {6: 330, 7: 800, 8: 1500, 9: 3000, 10: 6000}
# Codes drawn per slot; a fixed number keeps the set-up work the same for
# every seed.
CANDIDATES = 8


def random_ladder(workload, seed, sizes, prefix="rand"):
    """Random virtual codes of the given crossing counts, seeded per workload.

    For each slot CANDIDATES codes are drawn and the one whose chain
    dimension is nearest to TARGET_DIMENSION for its size is kept.
    """
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for i, n in enumerate(sizes):
        drawn = [random_virtual(rng, n, f"{prefix}{n}_{i}") for _ in range(CANDIDATES)]
        out.append(min(drawn, key=lambda obj: abs(chain_dimension(obj)
                                                  - TARGET_DIMENSION[n])))
    return out


def write_diagrams(objs, directory):
    """Write each diagram to ``<directory>/<name>.json``; return name -> path."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for obj in objs:
        path = os.path.join(directory, obj["name"] + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, sort_keys=True)
        paths[obj["name"]] = path
    return paths


def chain_dimension(obj):
    """Total rank of the diagram's chain complex: the sum over all 2^n
    smoothings of 2^(number of circles).  It sets the size of a job.

    Arc i of a component runs from passage i to passage i+1; its ends are
    2*arc (tail) and 2*arc + 1 (head).  At a crossing the two smoothings
    join the incoming and outgoing ends as {Oi-Uo, Ui-Oo} or {Oi-Ui, Oo-Uo};
    which of them is called 0 does not change the sum.
    """
    offsets, total = [], 0
    for comp in obj["components"]:
        offsets.append(total)
        total += len(comp)
    ends = {}
    for ci, comp in enumerate(obj["components"]):
        m = len(comp)
        for pi, p in enumerate(comp):
            incoming = 2 * (offsets[ci] + (pi - 1) % m) + 1
            outgoing = 2 * (offsets[ci] + pi)
            ends.setdefault(p["c"], {})[p["o"]] = (incoming, outgoing)
    pairings = []
    for label in sorted(ends):
        (oi, oo), (ui, uo) = ends[label][True], ends[label][False]
        pairings.append((((oi, uo), (ui, oo)), ((oi, ui), (oo, uo))))
    dim = 0
    for state in range(1 << len(pairings)):
        partner = [0] * (2 * total)
        for a in range(total):
            partner[2 * a] = 2 * a + 1      # along the arc
            partner[2 * a + 1] = 2 * a
        across = {}
        for j, choice in enumerate(pairings):
            for x, y in choice[(state >> j) & 1]:
                across[x], across[y] = y, x
        seen, circles = [False] * (2 * total), 0
        for start in range(2 * total):
            if seen[start]:
                continue
            circles += 1
            node = start
            while not seen[node]:
                seen[node] = True
                other = partner[node]
                seen[other] = True
                node = across[other]
        dim += 1 << circles
    return dim
