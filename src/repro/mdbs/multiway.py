"""Multi-way global queries: chains of joins across many sites.

The paper frames global query optimization as deciding "how to decompose
a global query into local (component) queries and where to execute the
local queries".  The two-site machinery in :mod:`repro.mdbs.optimizer`
covers the basic case; this module generalizes it to N operands joined
in a chain, each possibly at a different site:

    σ(T1) ⋈ σ(T2) ⋈ ... ⋈ σ(Tn)

Planning is greedy left-to-right: the accumulated intermediate lives at
some site; for each next operand the planner compares *join here* (ship
the operand's reduced table over) against *join there* (ship the
accumulator), costing each option with the sites' derived cost models —
local selections via the operand's unary class model, intermediate joins
via the join-class (G3) model — plus the network model for shipping.

Execution mirrors the plan exactly: local component selections run at
their sites, intermediates are materialized as temporary tables at the
chosen join sites, and every step's observed elapsed time is recorded
next to its estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..engine.errors import QueryError
from ..engine.predicate import Predicate, TRUE
from ..engine.query import JoinQuery, SelectQuery
from .catalog import GlobalCatalog
from .network import NetworkModel
from .optimizer import CostEstimate, estimate_join_variables
from .server import MDBSServer, StepTiming


@dataclass(frozen=True)
class Operand:
    """One base table of a multi-way global query."""

    site: str
    table: str
    predicate: Predicate = field(default_factory=lambda: TRUE)


@dataclass(frozen=True)
class JoinLink:
    """Equijoin condition between an earlier operand and the next one.

    ``left_table`` must be the table of some *earlier* operand in the
    chain; ``right_table`` is the operand the link introduces.
    """

    left_table: str
    left_column: str
    right_table: str
    right_column: str


@dataclass(frozen=True)
class MultiJoinQuery:
    """An N-way chain join over tables at (possibly) different sites."""

    operands: tuple[Operand, ...]
    links: tuple[JoinLink, ...]
    columns: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if len(self.operands) < 2:
            raise QueryError("a multi-way query needs at least two operands")
        if len(self.links) != len(self.operands) - 1:
            raise QueryError(
                f"{len(self.operands)} operands need {len(self.operands) - 1} "
                f"join links, got {len(self.links)}"
            )
        tables = [op.table for op in self.operands]
        if len(set(tables)) != len(tables):
            raise QueryError("operand tables must be distinct")
        seen = {tables[0]}
        for i, link in enumerate(self.links):
            if link.right_table != tables[i + 1]:
                raise QueryError(
                    f"link {i} must introduce operand {tables[i + 1]!r}, "
                    f"introduces {link.right_table!r}"
                )
            if link.left_table not in seen:
                raise QueryError(
                    f"link {i} references {link.left_table!r} before it is joined"
                )
            seen.add(link.right_table)
        for qualified in self.columns:
            table, _, column = qualified.partition(".")
            if not column or table not in seen:
                raise QueryError(f"output column {qualified!r} is not qualified "
                                 "with an operand table")

    def operand_for(self, table: str) -> Operand:
        for operand in self.operands:
            if operand.table == table:
                return operand
        raise KeyError(table)

    def needed_columns(self, table: str, all_columns: Sequence[str]) -> list[str]:
        """Columns of *table* the execution must carry: requested output
        columns plus every join column any link needs from it."""
        if self.columns:
            wanted = [
                c.partition(".")[2] for c in self.columns
                if c.partition(".")[0] == table
            ]
        else:
            wanted = list(all_columns)
        for link in self.links:
            if link.left_table == table and link.left_column not in wanted:
                wanted.append(link.left_column)
            if link.right_table == table and link.right_column not in wanted:
                wanted.append(link.right_column)
        return wanted


@dataclass
class MultiwayStep:
    """One planned join step."""

    introduces: str  # table joined in at this step
    join_site: str
    ship_description: str
    estimates: list[CostEstimate] = field(default_factory=list)

    @property
    def estimated_seconds(self) -> float:
        return sum(e.seconds for e in self.estimates)


@dataclass
class MultiwayPlan:
    """A fully decided execution strategy for a multi-way query."""

    query: MultiJoinQuery
    component_queries: dict[str, SelectQuery]
    select_estimates: list[CostEstimate]
    steps: list[MultiwayStep]

    @property
    def estimated_seconds(self) -> float:
        return sum(e.seconds for e in self.select_estimates) + sum(
            s.estimated_seconds for s in self.steps
        )

    def describe(self) -> str:
        lines = [f"multi-way plan — est {self.estimated_seconds:.2f}s"]
        for estimate in self.select_estimates:
            lines.append(f"  {estimate.description}: {estimate.seconds:.3f}s")
        for step in self.steps:
            lines.append(
                f"  join {step.introduces} at {step.join_site} "
                f"({step.ship_description}): {step.estimated_seconds:.3f}s"
            )
        return "\n".join(lines)


@dataclass
class MultiwayExecution:
    """Observed outcome of a multi-way plan."""

    plan: MultiwayPlan
    column_names: tuple[str, ...]
    rows: list[tuple]
    steps: list[StepTiming] = field(default_factory=list)

    @property
    def observed_seconds(self) -> float:
        return sum(s.seconds for s in self.steps)

    @property
    def estimated_seconds(self) -> float:
        return self.plan.estimated_seconds

    @property
    def cardinality(self) -> int:
        return len(self.rows)


class MultiwayOptimizer:
    """Greedy site selection for multi-way chain joins."""

    def __init__(self, server: MDBSServer, join_class_label: str = "G3") -> None:
        self.server = server
        self.join_class_label = join_class_label

    @property
    def catalog(self) -> GlobalCatalog:
        return self.server.catalog

    @property
    def network(self) -> NetworkModel:
        return self.server.network

    def plan(self, query: MultiJoinQuery) -> MultiwayPlan:
        optimizer = self.server.optimizer()
        # Per-site probing costs, sampled at most once per site per
        # optimization (coalesced through the probing service).
        probes: dict[str, float | None] = {}
        for operand in query.operands:
            if operand.site not in probes:
                probes[operand.site] = optimizer.probing_cost(operand.site)

        # Local component selections and their estimates.
        component_queries: dict[str, SelectQuery] = {}
        select_estimates: list[CostEstimate] = []
        operand_stats: dict[str, dict] = {}
        for operand in query.operands:
            facts = self.catalog.table(operand.site, operand.table)
            needed = query.needed_columns(operand.table, tuple(facts.column_widths))
            component = SelectQuery(operand.table, tuple(needed), operand.predicate)
            component_queries[operand.table] = component
            estimate, values = optimizer.estimate_select(
                operand.site, component, probes[operand.site]
            )
            select_estimates.append(estimate)
            width = float(sum(facts.column_widths[c] for c in needed))
            ndv = {
                column: facts.column_stats.get(column, (None, None, 1))[2]
                for column in needed
            }
            operand_stats[operand.table] = {
                "rows": values["nr"],
                "width": width,
                "site": operand.site,
                "ndv": ndv,
            }

        # Greedy chain: decide each join's site.
        first = query.operands[0]
        acc_rows = operand_stats[first.table]["rows"]
        acc_width = operand_stats[first.table]["width"]
        acc_site = first.site
        # NDVs keyed by qualified name: the accumulator carries columns
        # from several tables, and e.g. "a4" may exist in all of them.
        acc_ndv = {
            f"{first.table}.{column}": ndv
            for column, ndv in operand_stats[first.table]["ndv"].items()
        }
        steps: list[MultiwayStep] = []
        for link in query.links:
            nxt = operand_stats[link.right_table]
            join_values = estimate_join_variables(
                acc_rows,
                nxt["rows"],
                acc_width,
                nxt["width"],
                int(acc_ndv.get(f"{link.left_table}.{link.left_column}", 1) or 1),
                int(nxt["ndv"].get(link.right_column, 1) or 1),
            )
            options = []
            for join_site, shipped_rows, shipped_width, what in (
                (acc_site, nxt["rows"], nxt["width"], f"ship {link.right_table}"),
                (nxt["site"], acc_rows, acc_width, "ship accumulator"),
            ):
                ship = CostEstimate(
                    f"{what} to {join_site}",
                    self.network.transfer_seconds(shipped_rows * shipped_width),
                )
                if join_site not in probes:
                    # A join site that hosts no operand (possible after
                    # temp-table shipping) still needs a contention read.
                    probes[join_site] = optimizer.probing_cost(join_site)
                join_est = optimizer.estimate_join(
                    join_site, join_values, probes[join_site], self.join_class_label
                )
                options.append((join_site, what, [ship, join_est]))
            join_site, what, estimates = min(
                options, key=lambda option: sum(e.seconds for e in option[2])
            )
            steps.append(
                MultiwayStep(
                    introduces=link.right_table,
                    join_site=join_site,
                    ship_description=what,
                    estimates=estimates,
                )
            )
            # Update the accumulator's estimated shape.
            acc_rows = join_values["nr"]
            acc_width = acc_width + nxt["width"]
            acc_site = join_site
            acc_ndv.update(
                {
                    f"{link.right_table}.{column}": ndv
                    for column, ndv in nxt["ndv"].items()
                }
            )
        return MultiwayPlan(
            query=query,
            component_queries=component_queries,
            select_estimates=select_estimates,
            steps=steps,
        )


class MultiwayExecutor:
    """Executes a multi-way plan across the registered sites."""

    def __init__(self, server: MDBSServer) -> None:
        self.server = server

    def execute(
        self, query: MultiJoinQuery, plan: MultiwayPlan | None = None
    ) -> MultiwayExecution:
        plan = plan or MultiwayOptimizer(self.server).plan(query)
        timings: list[StepTiming] = []

        # 1. Local component selections.
        results = {}
        for operand in query.operands:
            agent = self.server.agents[operand.site]
            result = agent.execute(plan.component_queries[operand.table])
            results[operand.table] = result
            timings.append(
                StepTiming(
                    f"select {operand.table} at {operand.site}", result.elapsed
                )
            )

        # 2. Accumulator: qualified column names + rows + per-column widths.
        first = query.operands[0]
        first_facts = self.server.catalog.table(first.site, first.table)
        acc_columns = [
            f"{first.table}.{c}"
            for c in plan.component_queries[first.table].columns
        ]
        acc_widths = [
            first_facts.column_widths[c]
            for c in plan.component_queries[first.table].columns
        ]
        acc_rows = list(results[first.table].result.rows)
        acc_site = first.site

        for link, step in zip(query.links, plan.steps):
            operand = query.operand_for(link.right_table)
            facts = self.server.catalog.table(operand.site, operand.table)
            next_columns = [
                f"{operand.table}.{c}"
                for c in plan.component_queries[operand.table].columns
            ]
            next_widths = [
                facts.column_widths[c]
                for c in plan.component_queries[operand.table].columns
            ]
            next_rows = list(results[operand.table].result.rows)

            # Shipping cost of whichever side moves.
            if step.join_site == acc_site:
                shipped_bytes = len(next_rows) * sum(next_widths)
                what = f"ship {operand.table} to {step.join_site}"
            else:
                shipped_bytes = len(acc_rows) * sum(acc_widths)
                what = f"ship accumulator to {step.join_site}"
            timings.append(
                StepTiming(what, self.server.network.transfer_seconds(shipped_bytes))
            )

            agent = self.server.agents[step.join_site]
            safe_acc = [f"c{i}" for i in range(len(acc_columns))]
            safe_next = [f"d{i}" for i in range(len(next_columns))]
            try:
                agent.create_temp_table("_m_acc", safe_acc, acc_widths, acc_rows)
                agent.create_temp_table("_m_next", safe_next, next_widths, next_rows)
                join_query = JoinQuery(
                    "_m_acc",
                    "_m_next",
                    safe_acc[acc_columns.index(f"{link.left_table}.{link.left_column}")],
                    safe_next[
                        next_columns.index(f"{link.right_table}.{link.right_column}")
                    ],
                )
                join_result = agent.execute(join_query)
            finally:
                agent.drop_temp_tables("_m_acc", "_m_next")
            timings.append(
                StepTiming(
                    f"join {operand.table} at {step.join_site}", join_result.elapsed
                )
            )
            acc_columns = acc_columns + next_columns
            acc_widths = acc_widths + next_widths
            acc_rows = join_result.result.rows
            acc_site = step.join_site

        # 3. Final projection onto the requested columns.
        wanted = list(query.columns) if query.columns else acc_columns
        positions = [acc_columns.index(c) for c in wanted]
        rows = [tuple(row[p] for p in positions) for row in acc_rows]
        return MultiwayExecution(
            plan=plan, column_names=tuple(wanted), rows=rows, steps=timings
        )
