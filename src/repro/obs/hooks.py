"""The component-facing observability hook API and its null object.

Hardware models (executor, PMU, HMC, vaults, links) hold an ``obs``
attribute initialized to :data:`NULL_OBS`.  With telemetry disabled every
hook is a no-op method on a shared singleton, and every emission site sits
behind one ``if obs.enabled:`` guard, so the disabled path pays a single
attribute check and builds no event object.  The one live sink is
:class:`~repro.obs.telemetry.Telemetry`; :func:`attach` wires a sink into a
machine.

The hooks are ``count``/``observe`` for metrics, plus ``pei`` and ``fence``,
which receive the per-PEI :class:`~repro.core.tracer.PeiTrace` and per-pfence
:class:`~repro.core.tracer.FenceTrace` events.  Hooks only *observe*; they
never return values into the timing model, so a run produces bit-identical
:class:`~repro.system.result.RunResult` output with telemetry on or off
(pinned by ``tests/obs/test_zero_overhead.py``).
"""

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # repro.core imports this module; no runtime cycle
    from repro.core.tracer import FenceTrace, PeiTrace

__all__ = ["NULL_OBS", "NullObs", "attach"]


class NullObs:
    """Disabled observability: every hook does nothing."""

    __slots__ = ()

    enabled = False

    def count(self, name: str, amount: float = 1.0) -> None:
        return None

    def observe(self, name: str, value: float) -> None:
        return None

    def pei(self, trace: "PeiTrace") -> None:
        return None

    def fence(self, trace: "FenceTrace") -> None:
        return None


#: The shared disabled sink every component defaults to.
NULL_OBS = NullObs()


def attach(machine, sink: NullObs) -> None:
    """Point every instrumented layer of ``machine`` at ``sink``.

    Attaching :data:`NULL_OBS` detaches whatever sink was there.
    """
    machine.executor.obs = sink
    machine.pmu.obs = sink
    machine.hmc.obs = sink
    machine.hmc.channel.obs = sink
    for vault in machine.hmc.vaults:
        vault.obs = sink
