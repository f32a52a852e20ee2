"""Transient analysis.

A backward-Euler (optionally trapezoidal) time-stepping solver with Newton
iteration at every step and a simple adaptive step-size controller:

* a step that converges quickly lets the next step grow;
* a step that fails to converge is retried with half the step size;
* an optional stop condition (a callable on the node voltages) ends the
  simulation early — the SRAM read harness uses it to stop as soon as the
  sense threshold is reached instead of simulating a fixed window.

Backward Euler is the default because the bit-line discharge is a heavily
damped RC problem where BE's numerical damping is harmless and its
robustness is welcome; trapezoidal integration is available for accuracy
studies (see the integration-method ablation bench).

The time loop is written once, as a generator
(:meth:`TransientSolver._time_loop`) that yields every solution vector
whose device stamp a Newton iteration needs.  :meth:`TransientSolver.run`
is the scalar driver: it answers each request with
:meth:`~repro.circuit.mna.MNAAssembler.nonlinear_stamp`.  The batched
driver in :mod:`repro.circuit.batch` runs many lanes' time loops at once
and answers all their pending requests with one vectorised kernel call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional, Tuple

import numpy as np

from ..obs.convergence import record_convergence, record_step_rejections
from ..obs.trace import span
from .dc import ConvergenceError, NewtonOptions, _drive, rescue_level
from .mna import CachedFactorSolver, JacobianTemplate, MNAAssembler, NonlinearStamp
from .netlist import Circuit
from .waveform import TransientResult

#: Signature of an early-stop predicate: (time_s, node-voltage dict) → bool.
StopCondition = Callable[[float, Dict[str, float]], bool]


@dataclass
class TransientOptions:
    """Tuning knobs of the transient solver."""

    t_stop_s: float = 1e-9
    dt_initial_s: float = 1e-13
    dt_min_s: float = 1e-16
    dt_max_s: float = 5e-12
    dt_growth: float = 1.3
    dt_shrink: float = 0.5
    method: str = "backward-euler"          # or "trapezoidal"
    newton: NewtonOptions = field(default_factory=NewtonOptions)
    max_steps: int = 200_000
    record_nodes: Optional[List[str]] = None  # None = record every node

    def __post_init__(self) -> None:
        if self.t_stop_s <= 0.0:
            raise ValueError("t_stop must be positive")
        if not 0.0 < self.dt_min_s <= self.dt_initial_s <= self.dt_max_s:
            raise ValueError(
                "time steps must satisfy 0 < dt_min <= dt_initial <= dt_max"
            )
        if self.dt_growth <= 1.0:
            raise ValueError("dt_growth must exceed 1")
        if not 0.0 < self.dt_shrink < 1.0:
            raise ValueError("dt_shrink must be in (0, 1)")
        if self.method not in ("backward-euler", "trapezoidal"):
            raise ValueError("method must be 'backward-euler' or 'trapezoidal'")


class TransientSolver:
    """Time-domain solver for a fixed circuit."""

    def __init__(self, circuit: Circuit, options: Optional[TransientOptions] = None,
                 gmin_s: float = 1e-12,
                 jacobian_like: Optional[JacobianTemplate] = None) -> None:
        self.circuit = circuit
        self.options = options if options is not None else TransientOptions()
        self.assembler = MNAAssembler(circuit, gmin_s=gmin_s)
        # Shared factorisation cache: the LU of (G + C/dt) is reused across
        # iterations and steps until dt or the device stamps change.
        # ``jacobian_like`` lets callers donate the CSC structure of a
        # previously solved same-topology circuit (e.g. the same RC ladder
        # at a different patterning corner) so only the values are rebuilt.
        self.solver_cache = CachedFactorSolver(self.assembler, like=jacobian_like)
        # Set when a time step hits an exactly singular system; surfaces in
        # the ConvergenceError message so failures classify correctly.
        self._singular_seen = False

    # -- single implicit step -----------------------------------------------------

    def _newton_step(
        self,
        x_prev: np.ndarray,
        time_s: float,
        dt_s: float,
        x_guess: np.ndarray,
    ) -> Generator[np.ndarray, NonlinearStamp, Optional[np.ndarray]]:
        """Solve one implicit time step; returns None when Newton fails.

        Yields every iterate whose device stamp it needs and receives the
        :class:`NonlinearStamp` back (see :meth:`_time_loop`).
        """
        assembler = self.assembler
        options = self.options.newton
        solver = self.solver_cache
        g_matrix = assembler.conductance_matrix
        c_matrix = assembler.capacitance_matrix
        # C·x_prev as a vector op — no per-step sparse scalar division.
        c_dot_prev_over_dt = c_matrix.dot(x_prev) / dt_s
        b_now = assembler.source_vector(time_s)

        if self.options.method == "trapezoidal":
            # Trapezoidal: C (x−x_prev)/dt = −0.5 [f(x, t) + f(x_prev, t_prev)]
            # Rearranged into Newton form with an extra history term.
            c_factor = 2.0 / dt_s
            b_prev = assembler.source_vector(time_s - dt_s)
            stamp_prev = yield x_prev
            history = (
                c_dot_prev_over_dt * 2.0
                - g_matrix.dot(x_prev)
                - stamp_prev.residual
                + b_prev
            )
            rhs_const = b_now + history
        else:
            c_factor = 1.0 / dt_s
            rhs_const = b_now + c_dot_prev_over_dt
        static = solver.static_matrix(c_factor)

        x = x_guess.copy()
        for _iteration in range(options.max_iterations):
            stamp = yield x
            residual = static.dot(x) + stamp.residual - rhs_const
            max_residual = float(np.max(np.abs(residual))) if residual.size else 0.0
            if max_residual < options.abs_tolerance_a:
                return x
            try:
                delta = solver.solve(c_factor, stamp, -residual)
            except RuntimeError:
                self._singular_seen = True
                return None
            delta = np.asarray(delta).ravel()
            if not np.all(np.isfinite(delta)):
                return None
            node_delta = delta[: assembler.n_nodes]
            max_step = float(np.max(np.abs(node_delta))) if node_delta.size else 0.0
            scale = 1.0
            if max_step > options.max_voltage_step_v > 0.0:
                scale = options.max_voltage_step_v / max_step
            x = x + scale * delta
        # One last residual check with the final iterate.
        stamp = yield x
        residual = static.dot(x) + stamp.residual - rhs_const
        if float(np.max(np.abs(residual))) < options.abs_tolerance_a * 100.0:
            return x
        return None

    # -- full transient --------------------------------------------------------------

    def run(
        self,
        initial_voltages: Optional[Dict[str, float]] = None,
        stop_condition: Optional[StopCondition] = None,
    ) -> TransientResult:
        """Run the transient analysis.

        Parameters
        ----------
        initial_voltages:
            Node voltages at ``t = 0`` (UIC-style start).  Nodes not listed
            start at 0 V; voltage-source nodes are driven from the first
            step onwards regardless.
        stop_condition:
            Optional predicate evaluated after every accepted step; the
            simulation ends as soon as it returns true.
        """
        # One span for the whole analysis: _newton_step fires thousands
        # of times per run, so per-step spans would swamp the trace.
        # Convergence telemetry follows the same rule — one histogram
        # observation and one rejection-counter add per run, never per
        # step.
        with span("solver.transient") as tr_span:
            try:
                result, steps, rejections = _drive(
                    self._time_loop(initial_voltages, stop_condition),
                    self.assembler.nonlinear_stamp,
                )
            except ConvergenceError:
                record_convergence("transient", 0, False)
                raise
            record_step_rejections("transient", rejections)
            tr_span.annotate(
                steps=steps, rejected=rejections, stop=result.stop_reason
            )
            record_convergence("transient", steps, True)
            return result

    def _time_loop(
        self,
        initial_voltages: Optional[Dict[str, float]],
        stop_condition: Optional[StopCondition],
    ) -> Generator[np.ndarray, NonlinearStamp, Tuple[TransientResult, int, int]]:
        """The time loop; returns (result, accepted steps, rejections).

        Yields every solution vector whose device stamp the Newton steps
        need and receives the :class:`NonlinearStamp` back.  :meth:`run`
        answers with :meth:`MNAAssembler.nonlinear_stamp`; the batched
        driver answers many lanes' requests with one kernel call.
        """
        options = self.options
        assembler = self.assembler

        x = assembler.initial_solution(initial_voltages)
        record_nodes = (
            options.record_nodes if options.record_nodes is not None else assembler.node_names
        )
        # Record positions resolved once (raising early for typos); ground
        # reads the trailing zero of the extended solution vector.
        record_pos = np.array(
            [
                assembler.size if index is None else index
                for index in map(assembler.index_of, record_nodes)
            ],
            dtype=np.int64,
        )
        x_ext = np.zeros(assembler.size + 1)

        def snapshot(solution: np.ndarray) -> np.ndarray:
            x_ext[:-1] = solution
            return x_ext[record_pos]

        # The history is recorded as node-voltage snapshots and split per
        # node at the end — a pure float64 passthrough.
        times: List[float] = [0.0]
        snapshots: List[np.ndarray] = [snapshot(x)]

        time_s = 0.0
        dt_s = options.dt_initial_s
        stop_reason = "tstop"
        steps = 0
        rejections = 0
        # Item-retry rescue: each escalation level buys a larger accepted-
        # step budget and a lower dt floor, so a retry of an item that died
        # on budget exhaustion or step underflow actually tries harder.
        level = rescue_level()
        max_steps = options.max_steps * (1 + level)
        dt_min_s = options.dt_min_s / (10.0 ** level)

        # ``steps`` counts *accepted* steps only: a rejected (non-converged)
        # step is retried at half the size without consuming budget, so
        # step-halving near stiff corners cannot exhaust ``max_steps``
        # spuriously.  Rejections are still bounded — each one shrinks dt
        # and the solver raises once dt falls below ``dt_min_s``.
        while time_s < options.t_stop_s:
            if steps >= max_steps:
                raise ConvergenceError(
                    f"transient exceeded {max_steps} accepted steps "
                    f"before t_stop (reached t={time_s:.3e} s of "
                    f"{options.t_stop_s:.3e} s)"
                )
            dt_s = min(dt_s, options.t_stop_s - time_s)
            solution = yield from self._newton_step(x, time_s + dt_s, dt_s, x)
            if solution is None:
                rejections += 1
                dt_s *= options.dt_shrink
                if dt_s < dt_min_s:
                    singular_note = (
                        " after a singular Jacobian was encountered"
                        if self._singular_seen
                        else ""
                    )
                    raise ConvergenceError(
                        f"transient step at t={time_s:.3e} s failed below the "
                        f"minimum step size ({dt_min_s:.1e} s){singular_note}"
                    )
                continue

            steps += 1
            time_s += dt_s
            x = solution
            times.append(time_s)
            snapshots.append(snapshot(x))

            if stop_condition is not None and stop_condition(
                time_s, dict(zip(record_nodes, snapshots[-1].tolist()))
            ):
                stop_reason = "stop-condition"
                break

            dt_s = min(dt_s * options.dt_growth, options.dt_max_s)

        stacked = np.stack(snapshots)
        result = TransientResult(
            times_s=np.asarray(times),
            voltages={
                node: np.ascontiguousarray(stacked[:, k])
                for k, node in enumerate(record_nodes)
            },
            converged=True,
            stop_reason=stop_reason,
        )
        return result, steps, rejections


def run_transient(
    circuit: Circuit,
    options: Optional[TransientOptions] = None,
    initial_voltages: Optional[Dict[str, float]] = None,
    stop_condition: Optional[StopCondition] = None,
) -> TransientResult:
    """Convenience wrapper: build a solver and run it once."""
    solver = TransientSolver(circuit, options=options)
    return solver.run(initial_voltages=initial_voltages, stop_condition=stop_condition)
