"""Cell-network topologies: cells, positions and neighbour graphs.

The serving layer historically identified cells by bare integers and wired
"neighbourhood" as ``cell_id +- 1`` where it mattered (cell-outage spill,
interference coupling).  :class:`NetworkTopology` makes the layout explicit:
every cell has a plane position and a symmetric neighbour set, and three
standard layouts are provided —

* ``line``    — cells at ``(0, 0), (1, 0), ...``; neighbours are ``id +- 1``.
  This is exactly the implicit layout the pre-topology code assumed, so
  passing a line topology reproduces the legacy behaviour (``docs/network.md``
  spells out the bitwise-compatibility rules).
* ``grid``    — a ``rows x cols`` Manhattan grid with 4-neighbour adjacency.
* ``hex``     — a ``rows x cols`` odd-row-offset hexagonal tiling with
  6-neighbour adjacency, the classic cellular-planning layout.

Topologies are frozen, hashable and picklable; all internals are tuples so a
topology can ride inside scenario phases and cross process-pool boundaries
without surprises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple

from repro.exceptions import ConfigurationError
from repro.utils.validation import require_non_negative, require_positive

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

__all__ = ["Cell", "NetworkTopology", "build_topology", "TOPOLOGY_KINDS"]

#: Layout names accepted by :func:`build_topology`.
TOPOLOGY_KINDS: Tuple[str, ...] = ("line", "grid", "hex")

#: Vertical spacing of hexagonal rows (centre distance of touching hexes).
_HEX_ROW_PITCH = math.sqrt(3.0) / 2.0


@dataclass(frozen=True)
class Cell:
    """One cell site: a stable id plus a position in the coverage plane."""

    cell_id: int
    x: float
    y: float

    def __post_init__(self) -> None:
        require_non_negative(self.cell_id, "cell_id")


@dataclass(frozen=True)
class NetworkTopology:
    """An immutable cell layout with an explicit symmetric neighbour graph.

    Attributes
    ----------
    kind:
        Layout family (``"line"``, ``"grid"`` or ``"hex"``); informational,
        carried so reports and cache keys can name the layout.
    cells:
        The cells in id order (``cells[i].cell_id == i``).
    neighbor_ids:
        ``neighbor_ids[i]`` is the sorted tuple of cell ids adjacent to cell
        ``i``.  The graph must be symmetric and self-loop free.
    """

    kind: str
    cells: Tuple[Cell, ...]
    neighbor_ids: Tuple[Tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.cells:
            raise ConfigurationError("a topology needs at least one cell")
        if len(self.neighbor_ids) != len(self.cells):
            raise ConfigurationError(
                f"{len(self.neighbor_ids)} neighbour sets for {len(self.cells)} cells"
            )
        for index, cell in enumerate(self.cells):
            if cell.cell_id != index:
                raise ConfigurationError(
                    f"cells must be listed in id order; position {index} holds "
                    f"cell_id {cell.cell_id}"
                )
        count = len(self.cells)
        for cell_id, neighbours in enumerate(self.neighbor_ids):
            for neighbour in neighbours:
                if not 0 <= neighbour < count:
                    raise ConfigurationError(
                        f"cell {cell_id} lists neighbour {neighbour}, outside the "
                        f"{count}-cell layout"
                    )
                if neighbour == cell_id:
                    raise ConfigurationError(f"cell {cell_id} lists itself as neighbour")
                if cell_id not in self.neighbor_ids[neighbour]:
                    raise ConfigurationError(
                        f"asymmetric neighbour graph: {cell_id} -> {neighbour} has no "
                        "reverse edge"
                    )

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def line(cls, num_cells: int) -> "NetworkTopology":
        """Cells along the x axis; neighbours are ``cell_id +- 1``."""
        require_positive(num_cells, "num_cells")
        cells = tuple(Cell(cell_id, float(cell_id), 0.0) for cell_id in range(num_cells))
        neighbours = tuple(
            tuple(
                other
                for other in (cell_id - 1, cell_id + 1)
                if 0 <= other < num_cells
            )
            for cell_id in range(num_cells)
        )
        return cls(kind="line", cells=cells, neighbor_ids=neighbours)

    @classmethod
    def grid(cls, rows: int, cols: int) -> "NetworkTopology":
        """A ``rows x cols`` Manhattan grid, row-major ids, 4-neighbour."""
        _check_dimensions(rows, cols)
        cells = tuple(
            Cell(row * cols + col, float(col), float(row))
            for row in range(rows)
            for col in range(cols)
        )
        neighbours = []
        for row in range(rows):
            for col in range(cols):
                adjacent = []
                for delta_row, delta_col in ((-1, 0), (0, -1), (0, 1), (1, 0)):
                    other_row, other_col = row + delta_row, col + delta_col
                    if 0 <= other_row < rows and 0 <= other_col < cols:
                        adjacent.append(other_row * cols + other_col)
                neighbours.append(tuple(sorted(adjacent)))
        return cls(kind="grid", cells=cells, neighbor_ids=tuple(neighbours))

    @classmethod
    def hex_grid(cls, rows: int, cols: int) -> "NetworkTopology":
        """A ``rows x cols`` odd-row-offset hexagonal tiling, 6-neighbour."""
        _check_dimensions(rows, cols)
        cells = tuple(
            Cell(
                row * cols + col,
                float(col) + (0.5 if row % 2 else 0.0),
                float(row) * _HEX_ROW_PITCH,
            )
            for row in range(rows)
            for col in range(cols)
        )
        neighbours = []
        for row in range(rows):
            # Odd-r offset adjacency: the diagonal column shift depends on
            # the parity of the row.
            if row % 2:
                diagonals = ((-1, 0), (-1, 1), (1, 0), (1, 1))
            else:
                diagonals = ((-1, -1), (-1, 0), (1, -1), (1, 0))
            for col in range(cols):
                adjacent = []
                for delta_row, delta_col in ((0, -1), (0, 1)) + diagonals:
                    other_row, other_col = row + delta_row, col + delta_col
                    if 0 <= other_row < rows and 0 <= other_col < cols:
                        adjacent.append(other_row * cols + other_col)
                neighbours.append(tuple(sorted(adjacent)))
        return cls(kind="hex", cells=cells, neighbor_ids=tuple(neighbours))

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    @property
    def num_cells(self) -> int:
        """Number of cells in the layout."""
        return len(self.cells)

    def neighbors(self, cell_id: int) -> Tuple[int, ...]:
        """The sorted neighbour ids of ``cell_id``."""
        self._check_cell(cell_id)
        return self.neighbor_ids[cell_id]

    def position(self, cell_id: int) -> Tuple[float, float]:
        """The plane position of ``cell_id``."""
        self._check_cell(cell_id)
        cell = self.cells[cell_id]
        return (cell.x, cell.y)

    def random_neighbor(self, cell_id: int, rng: "np.random.Generator") -> int:
        """A uniformly drawn neighbour of ``cell_id`` (the handover target).

        An isolated cell (no neighbours — a 1-cell layout) hands over to
        itself, so mobility models never have to special-case degenerate
        topologies.  Exactly one draw is consumed from ``rng`` either way,
        keeping per-user handover streams aligned across layouts.
        """
        neighbours = self.neighbors(cell_id)
        position = int(rng.integers(0, max(len(neighbours), 1)))
        return neighbours[position] if neighbours else cell_id

    def _check_cell(self, cell_id: int) -> None:
        if not 0 <= cell_id < len(self.cells):
            raise ConfigurationError(
                f"cell_id {cell_id} outside the {len(self.cells)}-cell layout"
            )


def _check_dimensions(rows: int, cols: int) -> None:
    if rows <= 0 or cols <= 0:
        raise ConfigurationError(
            f"rows and cols must be positive, got {rows} x {cols}"
        )


def build_topology(kind: str, rows: int, cols: int) -> NetworkTopology:
    """Instantiate a named layout from primitive parameters.

    Experiment configurations carry topologies as ``(kind, rows, cols)``
    primitives — not as live objects — so their cache fingerprints stay
    canonical; this is the one place the primitives become a topology.
    A ``line`` layout uses ``rows * cols`` cells.
    """
    if kind == "line":
        return NetworkTopology.line(rows * cols)
    if kind == "grid":
        return NetworkTopology.grid(rows, cols)
    if kind == "hex":
        return NetworkTopology.hex_grid(rows, cols)
    raise ConfigurationError(
        f"unknown topology kind {kind!r}; choose from {', '.join(TOPOLOGY_KINDS)}"
    )
