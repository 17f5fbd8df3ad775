"""The dashboard-repeat stream: short pushdown queries with reloads.

A dashboard re-issues a few query templates in a fixed rotation; users
pick their literals from a small set of popular windows.  Popularity
is skewed (a stratified Zipf draw over the windows) and drifts: every
reload epoch the ranking rotates by one window.  Some draws zoom into a popular window, giving predicates
narrower than an earlier one.  So the stream mixes exact repeats,
narrower (subsumable) queries and new ones, which is what the semantic
cache exploits; the Bloom join template bypasses it.

Every :data:`RELOAD_EVERY` queries ``orders`` is reloaded with perturbed
prices: the write path (encode, statistics, zone maps, cache and
feedback invalidation) runs inside the stream.
"""

from __future__ import annotations

import datetime
import random
from dataclasses import dataclass

STREAM_QUERIES = 200
RELOAD_EVERY = 50
#: Zipf exponent of the window-popularity draw.
SKEW = 2.5
#: Share of draws that zoom into the drawn window.
NARROW_SHARE = 0.3
#: Open bound of a one-sided window.
OPEN = 10**9


@dataclass(frozen=True)
class Template:
    name: str
    #: Queries of this template in every block of :data:`BLOCK` queries.
    weight: int
    #: ``str.format`` pattern over the rendered window bounds ``lo``/``hi``.
    sql: str
    #: Popular windows as ``(lo, hi)`` grid values.
    windows: tuple[tuple[int, int], ...]
    #: ``(dlo, dhi)`` shrinks turning a window into a narrower one.
    zooms: tuple[tuple[int, int], ...]
    #: Grid unit: ``"month"`` (months since 1992-01) or a numeric step.
    unit: str | int


def _month(value: int) -> str:
    return datetime.date(1992 + value // 12, value % 12 + 1, 1).isoformat()


TEMPLATES = (
    Template(
        "pushed-aggregate", 5,
        "SELECT SUM(l_extendedprice), SUM(l_quantity), COUNT(*) FROM lineitem"
        " WHERE l_shipdate >= '{lo}' AND l_shipdate < '{hi}'",
        tuple((12 * y, 12 * y + 12) for y in range(6)),
        ((3, 3), (0, 6), (6, 0)),
        "month",
    ),
    Template(
        "range-scan", 4,
        "SELECT o_orderkey, o_custkey, o_totalprice FROM orders"
        " WHERE o_totalprice >= {lo} AND o_totalprice < {hi}",
        tuple((5 * k, 5 * k + 10) for k in range(8)),
        ((2, 2), (0, 5), (5, 0)),
        10_000,
    ),
    Template(
        "pushed-group-by", 3,
        "SELECT l_returnflag, l_linestatus, SUM(l_quantity),"
        " SUM(l_extendedprice), COUNT(*) FROM lineitem"
        " WHERE l_quantity >= {lo} AND l_quantity < {hi}"
        " GROUP BY l_returnflag, l_linestatus",
        tuple((5 * k, 5 * k + 20) for k in range(7)),
        ((5, 5), (0, 10), (10, 0)),
        1,
    ),
    Template(
        "bloom-join", 3,
        "SELECT c_name, o_orderkey, o_totalprice FROM customer, orders"
        " WHERE c_custkey = o_custkey AND c_acctbal >= {lo}"
        " AND o_totalprice >= 200000",
        tuple((k, OPEN) for k in range(0, 9)),
        ((1, 0),),
        1_000,
    ),
    Template(
        "top-k", 5,
        "SELECT o_orderkey, o_orderdate, o_totalprice FROM orders"
        " WHERE o_orderdate >= '{lo}' AND o_orderdate < '{hi}'"
        " ORDER BY o_totalprice DESC, o_orderkey LIMIT 10",
        tuple((12 * y, 12 * y + 24) for y in range(6)),
        ((6, 6), (0, 12), (12, 0)),
        "month",
    ),
)


BLOCK = sum(t.weight for t in TEMPLATES)


def schedule() -> list[Template]:
    """One block of templates, interleaved by smooth weighted round robin.

    The template sequence is fixed; only literals are drawn from the
    seed, so each template's share of the stream is the same for every
    seed.
    """
    credit = {t.name: 0 for t in TEMPLATES}
    order = []
    for _ in range(BLOCK):
        for t in TEMPLATES:
            credit[t.name] += t.weight
        pick = max(TEMPLATES, key=lambda t: credit[t.name])
        credit[pick.name] -= BLOCK
        order.append(pick)
    return order


@dataclass(frozen=True)
class Op:
    """One stream operation: a query, or a reload of ``orders``."""

    kind: str  # "repeat" | "narrower" | "new" | "reload"
    template: str = ""
    sql: str = ""
    epoch: int = 0


def render(template: Template, window: tuple[int, int]) -> str:
    def literal(value: int) -> str:
        if template.unit == "month":
            return _month(value)
        return str(value * template.unit)

    lo, hi = window
    return template.sql.format(lo=literal(lo), hi=literal(hi))


def _draws(rng: random.Random, template: Template, n: int) -> list[tuple[int, int]]:
    """``n`` windows of ``template`` drawn by stratified sampling.

    Each popularity rank gets its Zipf share of the ``n`` draws (largest
    remainder), a fixed share of draws zooms in, and the seed picks which
    draws zoom and in what order they come.  This keeps the mix of
    repeats, narrower and new queries nearly the same for every seed.
    """
    count = len(template.windows)
    weights = [1.0 / (r + 1) ** SKEW for r in range(count)]
    quota = [n * w / sum(weights) for w in weights]
    per_rank = [int(q) for q in quota]
    by_remainder = sorted(range(count), key=lambda r: per_rank[r] - quota[r])
    for r in by_remainder[: n - sum(per_rank)]:
        per_rank[r] += 1
    ranks = [r for r in range(count) for _ in range(per_rank[r])]
    zooms: list[tuple[int, int]] = [(0, 0)] * n
    for k in rng.sample(range(n), round(n * NARROW_SHARE)):
        zooms[k] = rng.choice(template.zooms)
    draws = list(zip(ranks, zooms))
    rng.shuffle(draws)
    return draws


def make_stream(seed: int, queries: int = STREAM_QUERIES) -> list[Op]:
    """The seeded operation sequence, each query classified against the
    earlier queries of its template.  Popularity drifts: in reload epoch
    ``e`` the window of rank ``r`` is ``windows[(r + e) % count]``."""
    rng = random.Random(seed)
    block = schedule()
    seen: dict[str, list[tuple[int, int]]] = {t.name: [] for t in TEMPLATES}
    ops: list[Op] = []
    for first in range(0, queries, RELOAD_EVERY):
        epoch = first // RELOAD_EVERY
        if epoch:
            ops.append(Op("reload", epoch=epoch))
        positions = range(first, min(first + RELOAD_EVERY, queries))
        templates = [block[i % BLOCK] for i in positions]
        pending = {
            t.name: _draws(rng, t, templates.count(t)) for t in TEMPLATES
        }
        for template in templates:
            rank, (dlo, dhi) = pending[template.name].pop()
            lo, hi = template.windows[(rank + epoch) % len(template.windows)]
            lo, hi = lo + dlo, hi - dhi
            history = seen[template.name]
            if (lo, hi) in history:
                kind = "repeat"
            elif any(plo <= lo and hi <= phi for plo, phi in history):
                kind = "narrower"
            else:
                kind = "new"
            history.append((lo, hi))
            ops.append(Op(kind, template.name, render(template, (lo, hi)), epoch))
    return ops


def perturbed_orders(rows: list[tuple], seed: int, epoch: int) -> list[tuple]:
    """``orders`` with every price scaled by a seeded factor in [0.9, 1.1]."""
    rng = random.Random(f"{seed}/orders/{epoch}")
    return [
        row[:3] + (round(row[3] * rng.uniform(0.9, 1.1), 2),) + row[4:]
        for row in rows
    ]


def shares(ops: list[Op]) -> dict[str, float]:
    """Share of each operation kind in the stream."""
    return {
        kind: sum(op.kind == kind for op in ops) / len(ops)
        for kind in ("repeat", "narrower", "new", "reload")
    }
