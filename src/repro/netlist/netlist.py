"""Netlist container: cells + nets + clock definition, with graph queries."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import NetlistError
from repro.netlist.cell import CellInstance
from repro.netlist.net import Net
from repro.techlib.library import Library


@dataclass
class ClockSpec:
    """Clock definition: net name, period, and source (I/O pad) location."""

    net_name: str
    period_ps: float
    source_xy: Tuple[float, float] = (0.0, 0.0)


@dataclass
class Netlist:
    """A gate-level design: cell instances, nets, clocking and die geometry.

    The container is deliberately mutable — flow stages update positions,
    swap cell sizes and annotate wire parasitics in place, exactly like a
    P&R database.
    """

    name: str
    library: Library
    cells: Dict[str, CellInstance] = field(default_factory=dict)
    nets: Dict[str, Net] = field(default_factory=dict)
    clock: Optional[ClockSpec] = None
    die_width_um: float = 100.0
    die_height_um: float = 100.0
    primary_inputs: List[str] = field(default_factory=list)
    primary_outputs: List[str] = field(default_factory=list)
    # Placement blockages (macros): (x, y, width, height) in microns.
    blockages: List[Tuple[float, float, float, float]] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def add_cell(self, cell: CellInstance) -> None:
        if cell.name in self.cells:
            raise NetlistError(f"duplicate cell name {cell.name!r} in {self.name}")
        self.cells[cell.name] = cell

    def add_net(self, net: Net) -> None:
        if net.name in self.nets:
            raise NetlistError(f"duplicate net name {net.name!r} in {self.name}")
        self.nets[net.name] = net

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def cell_count(self) -> int:
        return len(self.cells)

    @property
    def net_count(self) -> int:
        return len(self.nets)

    def sequential_cells(self) -> List[CellInstance]:
        return [c for c in self.cells.values() if c.is_sequential]

    def combinational_cells(self) -> List[CellInstance]:
        return [
            c for c in self.cells.values()
            if not c.is_sequential and not c.is_clock_cell
        ]

    def total_cell_area_um2(self) -> float:
        return float(sum(c.area_um2 for c in self.cells.values()))

    def utilization(self) -> float:
        """Placed-area utilization of the die."""
        die_area = self.die_width_um * self.die_height_um
        if die_area <= 0:
            raise NetlistError(f"die of {self.name} has non-positive area")
        return self.total_cell_area_um2() / die_area

    def net_of_output(self, cell_name: str) -> Optional[Net]:
        cell = self.cells[cell_name]
        return self.nets[cell.output_net] if cell.output_net else None

    # ------------------------------------------------------------------
    # Graph traversal
    # ------------------------------------------------------------------
    def fanin_cells(self, cell_name: str) -> List[str]:
        """Names of driving cells on each input net (clock pins excluded)."""
        cell = self.cells[cell_name]
        drivers = []
        for net_name in cell.input_nets:
            net = self.nets[net_name]
            if net.is_clock:
                continue
            if net.driver is not None:
                drivers.append(net.driver)
        return drivers

    def fanout_cells(self, cell_name: str) -> List[str]:
        """Names of sink cells on the output net (PO sinks excluded)."""
        net = self.net_of_output(cell_name)
        if net is None:
            return []
        return [sink for sink, pin in net.sinks if pin >= 0]

    def topological_order(self) -> List[str]:
        """Combinational cells in topological order.

        Sequential cell outputs and primary inputs are sources; DFF data pins
        and primary outputs are sinks.  Raises :class:`NetlistError` on
        combinational loops.
        """
        indegree: Dict[str, int] = {}
        comb = {c.name for c in self.cells.values()
                if not c.is_sequential and not c.is_clock_cell}
        for name in comb:
            drivers = self.fanin_cells(name)
            indegree[name] = sum(
                1 for d in drivers
                if d in comb
            )
        queue = deque(sorted(n for n, deg in indegree.items() if deg == 0))
        order: List[str] = []
        while queue:
            name = queue.popleft()
            order.append(name)
            for succ in self.fanout_cells(name):
                if succ not in indegree:
                    continue
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    queue.append(succ)
        if len(order) != len(comb):
            raise NetlistError(
                f"combinational loop detected in {self.name}: "
                f"{len(comb) - len(order)} cells unordered"
            )
        return order

    def validate(self) -> None:
        """Structural sanity: every referenced cell/net exists, pins match."""
        for net in self.nets.values():
            if net.driver is not None and net.driver not in self.cells:
                raise NetlistError(
                    f"net {net.name!r} driven by unknown cell {net.driver!r}"
                )
            for sink, pin in net.sinks:
                if pin >= 0 and sink not in self.cells:
                    raise NetlistError(
                        f"net {net.name!r} feeds unknown cell {sink!r}"
                    )
        for cell in self.cells.values():
            if cell.output_net and cell.output_net not in self.nets:
                raise NetlistError(
                    f"cell {cell.name!r} drives unknown net {cell.output_net!r}"
                )
            for net_name in cell.input_nets:
                if net_name not in self.nets:
                    raise NetlistError(
                        f"cell {cell.name!r} reads unknown net {net_name!r}"
                    )
            expected = cell.cell_type.function.input_count
            data_inputs = [
                n for n in cell.input_nets if not self.nets[n].is_clock
            ]
            if not cell.is_sequential and len(data_inputs) != expected:
                raise NetlistError(
                    f"cell {cell.name!r} ({cell.cell_type.name}) has "
                    f"{len(data_inputs)} data inputs, expected {expected}"
                )
        # Clock net must exist if a clock is declared.
        if self.clock is not None and self.clock.net_name not in self.nets:
            raise NetlistError(
                f"clock net {self.clock.net_name!r} missing from {self.name}"
            )
        self.topological_order()  # raises on loops

    def iter_timing_arcs(self) -> Iterator[Tuple[str, str, str]]:
        """Yield (driver_cell, net, sink_cell) arcs over data nets."""
        for net in self.nets.values():
            if net.is_clock or net.driver is None:
                continue
            for sink, pin in net.sinks:
                if pin >= 0:
                    yield net.driver, net.name, sink
