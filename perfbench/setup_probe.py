"""One set-up of the sweep workloads, timed from a fresh interpreter.

Imports the entry points the sweeps use and warms the config-constant
caches (lattice, overlapping-grid layout, localizer), then prints
``ready``.  ``run.py`` times interpreter start to that line.
"""

from repro.sim import ExperimentConfig, placement_improvement_curves  # noqa: F401
from repro.sim import resilient_placement_improvement_curves  # noqa: F401
from repro.sim.executors.cache import cached_grid, cached_layout, cached_localizer


def warm() -> None:
    config = ExperimentConfig()
    grid = cached_grid(config.side, config.step)
    grid.points()
    cached_layout(config.side, config.radio_range, config.num_grids).membership_masks(grid)
    cached_localizer(config.side, config.policy)


if __name__ == "__main__":
    warm()
    print("ready", flush=True)
