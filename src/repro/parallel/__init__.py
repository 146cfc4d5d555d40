"""Parallel execution: strategies, real executors, and a scheduler model.

The paper evaluates three parallelization strategies (sections 3.5/3.6):

1. **thread per query** — lowest effort, drowns in creation overhead;
2. **fixed pool** — one thread per core (or a sweep over 4/8/16/32);
3. **adaptive management** — a master–slave manager that opens a thread
   when average utilization exceeds 70 % and closes one below 30 %.

Two execution surfaces implement them:

* :mod:`repro.parallel.executor` — *real* executors on
  :mod:`threading` / :mod:`multiprocessing`. Faithful plumbing, but
  CPython's GIL serializes CPU-bound threads, so thread counts cannot
  reproduce the paper's wall-clock sweeps here.
* :mod:`repro.parallel.simulator` — a deterministic processor-sharing
  scheduler model. Fed with *measured* single-thread per-query costs,
  it replays the paper's Tables II, IV, VI and VIII: creation overhead,
  core contention and load balancing are modelled explicitly.

DESIGN.md documents this substitution; both surfaces are tested for the
invariant that strategy choice never changes results, only time.
"""

from repro.parallel.adaptive import AdaptiveManager, ManagerRules
from repro.parallel.executor import (
    ProcessPoolRunner,
    SerialRunner,
    ThreadPerQueryRunner,
    ThreadPoolRunner,
    runner_from_strategy,
)
from repro.parallel.metrics import SimulationResult, UtilizationSample
from repro.parallel.partition import (
    balanced_chunks,
    round_robin_chunks,
)
from repro.parallel.simulator import (
    SchedulerModel,
    simulate_adaptive,
    simulate_fixed_pool,
    simulate_thread_per_query,
    simulate_work_stealing,
)
from repro.parallel.strategies import (
    AdaptiveStrategy,
    FixedPoolStrategy,
    SerialStrategy,
    Strategy,
    ThreadPerQueryStrategy,
)

__all__ = [
    "Strategy",
    "SerialStrategy",
    "ThreadPerQueryStrategy",
    "FixedPoolStrategy",
    "AdaptiveStrategy",
    "balanced_chunks",
    "round_robin_chunks",
    "SerialRunner",
    "ThreadPoolRunner",
    "ThreadPerQueryRunner",
    "ProcessPoolRunner",
    "runner_from_strategy",
    "AdaptiveManager",
    "ManagerRules",
    "SchedulerModel",
    "simulate_fixed_pool",
    "simulate_thread_per_query",
    "simulate_adaptive",
    "simulate_work_stealing",
    "SimulationResult",
    "UtilizationSample",
]
