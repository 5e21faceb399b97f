"""A live RDB-SC system under churn: the paper's dynamic scenario.

Tasks arrive as a Poisson stream, workers register and leave, the grid
index absorbs every change (Section 7.2), and the engine re-plans every
half hour with the SAMPLING solver (Figure 10's strategy, library-level).
Finishes with a terminal map of the final system state.
"""

from repro.algorithms import SamplingSolver
from repro.datagen.streams import StreamConfig, generate_event_stream, replay_stream
from repro.engine import AssignmentEngine
from repro.viz import render_instance, series_with_sparkline


def main() -> None:
    """Run a Poisson-churn session with periodic re-assignment."""
    config = StreamConfig(
        horizon=6.0,        # hours
        task_rate=8.0,      # tasks arriving per hour
        worker_rate=4.0,    # workers registering per hour
        initial_workers=12,
        mean_dwell=2.5,     # hours a worker stays
    )
    events = generate_event_stream(config, rng=9)
    n_tasks = sum(1 for e in events if e.kind == "task_arrival")
    n_workers = sum(1 for e in events if e.kind == "worker_arrival")
    n_departs = sum(1 for e in events if e.kind == "worker_departure")
    print(
        f"stream: {n_tasks} task arrivals, {n_workers} worker arrivals, "
        f"{n_departs} departures over {config.horizon} h\n"
    )

    engine = AssignmentEngine(
        solver=SamplingSolver(num_samples=40), eta=0.125, rng=9
    )
    outcomes = replay_stream(
        engine, events, reassign_every=0.5, horizon=config.horizon
    )

    print(f"{'time':>5} | {'tasks':>5} | {'workers':>7} | {'pairs':>5} | "
          f"{'min rel':>8} | {'total_STD':>9}")
    for outcome in outcomes:
        print(
            f"{outcome.now:5.1f} | {outcome.num_tasks:5d} | {outcome.num_workers:7d} | "
            f"{outcome.num_pairs:5d} | {outcome.objective.min_reliability:8.4f} | "
            f"{outcome.objective.total_std:9.4f}"
        )

    print()
    print(series_with_sparkline(
        "total_STD over time", [o.objective.total_std for o in outcomes]
    ))
    print(series_with_sparkline(
        "live tasks over time", [float(o.num_tasks) for o in outcomes], precision=0
    ))
    events_seen = engine.metrics.events
    print(
        f"\nsession stats: {events_seen.get('task_arrive', 0)} tasks added, "
        f"{events_seen.get('task_expire', 0)} expired, "
        f"{events_seen.get('worker_arrive', 0)} workers added, "
        f"{events_seen.get('worker_leave', 0)} left, "
        f"{engine.metrics.epochs} reassignments\n"
    )
    print("final system state:")
    print(render_instance(engine.current_problem(), width=48, height=14))


if __name__ == "__main__":
    main()
