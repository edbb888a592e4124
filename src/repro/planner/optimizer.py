"""Selinger-style dynamic-programming join-order optimizer.

Costs plans with the C_out model (sum of intermediate join cardinalities),
the standard metric for judging the impact of cardinality estimation on
plan quality. Plans are bushy; only connected sub-joins (no cross
products) are enumerated, exactly as the FK join graph allows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from repro.db.query import Query
from repro.db.schema import DatabaseSchema
from repro.planner.cardinality import CardinalitySource
from repro.planner.plans import JoinNode, PlanNode, ScanNode
from repro.utils.errors import PlanError


@dataclass
class PlannedQuery:
    """A chosen plan plus the cost the optimizer *believed* it had."""

    query: Query
    plan: PlanNode
    believed_cost: float


class JoinOrderOptimizer:
    """Chooses join orders using a :class:`CardinalitySource`."""

    def __init__(self, schema: DatabaseSchema, source: CardinalitySource) -> None:
        self.schema = schema
        self.source = source

    def best_plan(self, query: Query) -> PlannedQuery:
        """DP over connected table subsets of the query.

        Raises:
            PlanError: if the query's join set is not connected (cannot
                happen for queries built via :meth:`Query.build`).
        """
        tables = sorted(query.tables, key=self.schema.table_index)
        if not self.schema.is_valid_join_set(tables):
            raise PlanError(f"join set {tables} is not connected")
        if len(tables) == 1:
            plan = ScanNode(frozenset(tables), table=tables[0])
            return PlannedQuery(query, plan, believed_cost=0.0)

        best: dict[frozenset[str], tuple[float, PlanNode]] = {}
        for t in tables:
            best[frozenset([t])] = (0.0, ScanNode(frozenset([t]), table=t))

        card_cache: dict[frozenset[str], float] = {}

        def cardinality(subset: frozenset[str]) -> float:
            if subset not in card_cache:
                card_cache[subset] = max(
                    self.source.cardinality(query.restricted_to(subset)), 0.0
                )
            return card_cache[subset]

        for size in range(2, len(tables) + 1):
            for combo in combinations(tables, size):
                subset = frozenset(combo)
                if not self.schema.is_valid_join_set(subset):
                    continue
                subset_card = cardinality(subset)
                best_cost = None
                best_plan: PlanNode | None = None
                members = sorted(subset, key=self.schema.table_index)
                # Enumerate each partition exactly once: the half containing
                # members[0] is `left`; the mask ranges over the remaining
                # members, excluding the all-ones mask (empty right half).
                for mask in range(0, (1 << (size - 1)) - 1):
                    left = frozenset(
                        members[i] for i in range(size) if (i == 0 or (mask >> (i - 1)) & 1)
                    )
                    right = subset - left
                    left_entry = best.get(left)
                    right_entry = best.get(right)
                    if left_entry is None or right_entry is None:
                        continue
                    # Require a join edge between halves (no cross products).
                    if not any(b in right for a in left for b in self.schema.neighbors(a)):
                        continue
                    cost = left_entry[0] + right_entry[0] + subset_card
                    if best_cost is None or cost < best_cost:
                        best_cost = cost
                        best_plan = JoinNode(subset, left=left_entry[1], right=right_entry[1])
                if best_plan is not None:
                    best[subset] = (best_cost, best_plan)

        full = frozenset(tables)
        if full not in best:
            raise PlanError(f"no plan found for join set {tables}")
        cost, plan = best[full]
        return PlannedQuery(query, plan, believed_cost=cost)


def plan_cost(plan: PlanNode, query: Query, source: CardinalitySource) -> float:
    """C_out cost of ``plan`` under ``source`` (sum of join-result sizes)."""
    total = 0.0
    for subset in plan.join_subsets():
        total += max(source.cardinality(query.restricted_to(subset)), 0.0)
    return total
