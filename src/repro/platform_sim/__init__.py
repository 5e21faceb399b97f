"""A gMission-style spatial-crowdsourcing platform simulator (Section 8.4).

The paper's final experiment runs its algorithms on a real deployment: 10
workers, 5 nearby task sites (about two walking minutes apart), 15-minute
task windows, and the Figure 10 *incremental updating strategy* re-assigning
available workers every ``t_interval`` minutes.  Humans are not available to
a reproduction, so this package simulates the deployment: workers travel,
answer (successfully with probability equal to their confidence), become
available again, and the platform periodically re-plans.

``ratings``
    Peer-rating bootstrap of worker reliabilities (trimmed-mean photo
    scores, Section 8.1).
``accuracy``
    The answer accuracy/error model ``beta * dtheta/pi + (1-beta) * dt/(e-s)``.
``events``
    Worker/task runtime records and the answer log.
``simulator``
    The clocked simulation loop and its Figure 18 metrics; each Figure 10
    update step is one :meth:`repro.engine.engine.AssignmentEngine.epoch`
    with the committed contributions pinned in as virtual workers.
"""

from repro.platform_sim.accuracy import answer_accuracy, answer_error
from repro.platform_sim.events import Answer, TaskRecord, WorkerRuntime
from repro.platform_sim.ratings import bootstrap_reliabilities
from repro.platform_sim.reputation import BetaReputation, ReputationTracker
from repro.platform_sim.simulator import (
    PlatformConfig,
    PlatformRunResult,
    PlatformSimulator,
)

__all__ = [
    "Answer",
    "BetaReputation",
    "PlatformConfig",
    "PlatformRunResult",
    "PlatformSimulator",
    "ReputationTracker",
    "TaskRecord",
    "WorkerRuntime",
    "answer_accuracy",
    "answer_error",
    "bootstrap_reliabilities",
]
