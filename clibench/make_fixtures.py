"""Write the benchmark's parameter fixtures and exact reference values.

Run from the repository root:  python3 clibench/make_fixtures.py

The references do not use `acg`: each partition sum is expanded exactly
from its generating function

    Z(e) = [y^{e+}] prod_j (sum_k Q[k,j] y_k)^{e-_j} / e-_j!

in integer arithmetic (the exact-query edge laws have binary-fraction
entries, so Q * 2^s is integral), then reduced to the quantities the
CLI reports:

    mean      Q[k,j] Z(e - d_kj) / Z(e)
    var       mean + Q[k,j]^2 Z(e - 2 d_kj) / Z(e) - mean^2
    joint     prod_i Q[k_i,j_i] * Z(e after M edges) / Z(e) / (E)_M
    C         E! prod e-_d! prod e+_d! Z(e)
    log_exact 2K log(2 pi) + log Z(e)
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent / "fixtures"

ASSORT_K2 = {
    "K": 2,
    "P": [[0, 0, 0], [0, 0, 0.5], [0, 0.5, 0]],
    "Q": [[0, 0, 0], [0, 1 / 6, 1 / 6], [0, 1 / 6, 1 / 2]],
}

EXACT_K3_Q = [
    [0, 0, 0, 0],
    [0, Fraction(1, 8), Fraction(1, 16), Fraction(1, 16)],
    [0, Fraction(1, 16), Fraction(1, 4), Fraction(1, 16)],
    [0, Fraction(1, 16), Fraction(1, 16), Fraction(1, 4)],
]
EXACT_K4_Q = [
    [0, 0, 0, 0, 0],
    [0, Fraction(1, 8), Fraction(1, 16), Fraction(1, 32), Fraction(1, 32)],
    [0, Fraction(1, 16), Fraction(1, 8), Fraction(1, 32), Fraction(1, 32)],
    [0, Fraction(1, 32), Fraction(1, 32), Fraction(1, 8), Fraction(1, 16)],
    [0, Fraction(1, 32), Fraction(1, 32), Fraction(1, 16), Fraction(1, 8)],
]

# one wildcard directed two-edge path: root -> node 1 -> node 2
PATH2 = {
    "root": None,
    "attachments": [
        {"node": 1, "parent": 0, "edge": "out", "type": None},
        {"node": 2, "parent": 1, "edge": "out", "type": None},
    ],
}


def assort_k10() -> dict:
    """P = p (x) p with p_d ~ exp(-d/2) on 1..10; Q = 0.7 Q+ (x) Q- + 0.3 diag(Q+)."""
    K = 10
    w = [math.exp(-d / 2) for d in range(1, K + 1)]
    p = [0.0] + [v / sum(w) for v in w]
    z = sum(d * p[d] for d in range(K + 1))
    qp = [d * p[d] / z for d in range(K + 1)]
    P = [[p[j] * p[k] for k in range(K + 1)] for j in range(K + 1)]
    Q = [
        [(0.7 * qp[k] * qp[j] + (0.3 * qp[k] if j == k else 0.0)) if j and k else 0.0 for j in range(K + 1)]
        for k in range(K + 1)
    ]
    return {"K": K, "P": P, "Q": Q}


def diagonal_p(weights) -> list:
    K = len(weights)
    return [[weights[j - 1] if j == k and j else 0 for k in range(K + 1)] for j in range(K + 1)]


def partition_sum(em, ep, q) -> Fraction:
    """Z(e) by exact generating-function expansion; em, ep and q carry the degree-0 slot."""
    K = len(q) - 1
    if any(v < 0 for v in em) or any(v < 0 for v in ep) or sum(em) != sum(ep):
        return Fraction(0)
    scale = max(Fraction(v).denominator for row in q for v in row)
    qi = [[int(Fraction(v) * scale) for v in row] for row in q]
    target = tuple(ep[1:])
    poly = {(0,) * K: 1}
    for j in range(1, K + 1):
        for _ in range(em[j]):
            nxt = {}
            for mono, c in poly.items():
                for k in range(1, K + 1):
                    if qi[k][j] and mono[k - 1] < target[k - 1]:
                        m = mono[: k - 1] + (mono[k - 1] + 1,) + mono[k:]
                        nxt[m] = nxt.get(m, 0) + c * qi[k][j]
            poly = nxt
    denom = scale ** sum(em) * math.prod(math.factorial(v) for v in em)
    return Fraction(poly.get(target, 0), denom)


def _log(x: Fraction) -> float:
    return math.log(x.numerator) - math.log(x.denominator)


def _minus(em, ep, k, j, times=1):
    em2, ep2 = list(em), list(ep)
    em2[j] -= times
    ep2[k] -= times
    return em2, ep2


def _margins(text):
    minus, plus = text.split(":")
    return [0] + [int(v) for v in minus.split(",")], [0] + [int(v) for v in plus.split(",")]


def _sequence_margins(text, K):
    em, ep = [0] * (K + 1), [0] * (K + 1)
    for chunk in text.split(";"):
        j, k = (int(v) for v in chunk.split(","))
        em[j] += j
        ep[k] += k
    return em, ep


def reference(query, q) -> dict:
    action = query["action"]
    if action == "joint":
        em, ep = _sequence_margins(query["sequence"], len(q) - 1)
    else:
        em, ep = _margins(query["margins"])
    z = partition_sum(em, ep, q)
    if action == "partition":
        scale = math.factorial(sum(em)) * math.prod(math.factorial(v) for v in em + ep)
        return {"log_partition": _log(z), "C": float(scale * z)}
    if action == "laplace-check":
        return {"log_exact": 2 * (len(q) - 1) * math.log(2 * math.pi) + _log(z)}
    if action == "joint":
        total = sum(em)
        prob = Fraction(1)
        for i, (k, j) in enumerate(tuple(int(v) for v in t.split(",")) for t in query["types"].split(";")):
            prob *= Fraction(q[k][j]) / (total - i)
            em, ep = _minus(em, ep, k, j)
        return {"value": float(prob * partition_sum(em, ep, q) / z)}
    k, j = (int(v) for v in query["type"].split(","))
    mean = Fraction(q[k][j]) * partition_sum(*_minus(em, ep, k, j), q) / z
    if action == "mean":
        return {"value": float(mean)}
    second = Fraction(q[k][j]) ** 2 * partition_sum(*_minus(em, ep, k, j, 2), q) / z
    return {"value": float(mean + second - mean * mean)}


# The five exact calls of the exact_queries workload, in pass order.
QUERIES = [
    {"name": "partition", "argv": ["exact", "partition"], "action": "partition", "params": "exact_k3.json",
     "margins": "12,18,30:18,18,24"},
    {"name": "mean", "argv": ["exact", "mean"], "action": "mean", "params": "exact_k4.json",
     "margins": "2,6,4,8:4,4,6,6", "type": "2,3"},
    {"name": "var", "argv": ["exact", "var"], "action": "var", "params": "exact_k3.json",
     "margins": "8,10,12:10,10,10", "type": "2,2"},
    {"name": "joint", "argv": ["exact", "joint"], "action": "joint", "params": "exact_k4.json",
     "sequence": "1,1;2,1;1,2;3,2;2,3;4,4;1,2;2,1", "types": "4,4;2,1;1,2"},
    {"name": "laplace", "argv": ["asymptotics", "laplace-check"], "action": "laplace-check",
     "params": "exact_k3.json", "margins": "12,18,30:18,18,24"},
]


def _dump(name, obj):
    (HERE / name).write_text(json.dumps(obj, indent=1) + "\n", encoding="utf-8")


def main():
    HERE.mkdir(exist_ok=True)
    _dump("assort_k2.json", ASSORT_K2)
    _dump("assort_k10.json", assort_k10())
    _dump("path2.json", PATH2)
    qs = {"exact_k3.json": EXACT_K3_Q, "exact_k4.json": EXACT_K4_Q}
    _dump("exact_k3.json", {"K": 3, "P": diagonal_p([0.25, 0.25, 0.5]), "Q": [[float(v) for v in r] for r in EXACT_K3_Q]})
    _dump("exact_k4.json", {"K": 4, "P": diagonal_p([0.25] * 4), "Q": [[float(v) for v in r] for r in EXACT_K4_Q]})
    queries = [{**query, "reference": reference(query, qs[query["params"]])} for query in QUERIES]
    _dump("exact_queries.json", queries)


if __name__ == "__main__":
    main()
