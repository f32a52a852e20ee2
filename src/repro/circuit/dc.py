"""DC operating-point and swept-source (continuation) analysis.

Newton-Raphson on the static MNA system

    F(x) = G·x + I_nl(x) − b = 0

with a damped update and a robustness ladder for stubborn circuits:

* **gmin stepping** — a large gmin makes the system nearly linear; it is
  then reduced in decades while re-converging (the standard SPICE
  strategy);
* **source stepping** — every independent source is ramped from zero to
  its full value, re-converging at each step from the previous solution.
  This is what rescues bistable circuits (the cross-coupled SRAM cell)
  started from a flat 0 V guess, where plain Newton and gmin stepping can
  both stall on the unstable ridge between the two states;
* **pseudo-transient continuation** — the last resort, which follows the
  circuit dynamics across fold points onto the surviving branch.

:func:`dc_sweep` builds on the same machinery: it sweeps the DC value of
one voltage source across a grid, warm-starting every point from the
previous solution.  That continuation is what the SRAM noise-margin
butterfly curves are traced with.

One control flow, two drivers.  Each analysis is written once, as a
generator that yields a Newton target ``(assembler, b, x0, options)``
wherever it needs a solve and receives ``(x, iterations, converged,
max_residual, singular)`` back.  The ladder, the sweep continuation and
the item-retry escalation (:func:`solver_rescue`) live only in those
generators.  :func:`dc_operating_point` and :func:`dc_sweep` are the
scalar driver: they run one generator and answer each target with
:func:`_newton_solve`.  :mod:`repro.circuit.batch` is the other driver:
it runs many generators in lockstep and answers every pending target in
one vectorised Newton tick.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..obs.convergence import (
    record_convergence,
    record_rescue,
    residual_recorder,
)
from ..obs.trace import span
from .mna import CachedFactorSolver, MNAAssembler, MNAError
from .netlist import Circuit


class ConvergenceError(RuntimeError):
    """Raised when the DC operating point cannot be found."""


# -- retry rescue ladder ----------------------------------------------------------------
#
# When the campaign engine retries a failed work item it escalates the
# solver's robustness instead of repeating the identical attempt: a
# larger Newton iteration budget, and a small deterministic jitter on the
# caller's initial guess so a retry does not start on exactly the
# unstable ridge that defeated the first attempt.  The escalation level
# is thread-local state (set via :func:`solver_rescue`) rather than a
# parameter, because the solver sits many call layers below the retry
# loop (campaign -> operation -> simulator -> transient/DC) and every
# intermediate layer would otherwise have to forward it.

_rescue_state = threading.local()


def rescue_level() -> int:
    """The active escalation level (0 = normal solve, no escalation)."""
    return getattr(_rescue_state, "level", 0)


def _rescue_seed() -> int:
    return getattr(_rescue_state, "seed", 0)


@contextmanager
def solver_rescue(level: int, seed: int = 0) -> Iterator[None]:
    """Escalate solver robustness for the body (used by item retries).

    ``level`` scales the Newton iteration budget by ``1 + level`` (DC)
    and the transient step budget likewise, and perturbs user-supplied
    initial guesses by up to ``5 mV × level`` with an rng seeded from
    ``seed`` — deterministic per (seed, level), so retries are
    reproducible.  Level 0 restores normal behaviour.
    """
    previous = (rescue_level(), _rescue_seed())
    _rescue_state.level = max(0, int(level))
    _rescue_state.seed = int(seed)
    try:
        yield
    finally:
        _rescue_state.level, _rescue_state.seed = previous


def _perturbed_initial_voltages(
    initial_voltages: Optional[Dict[str, float]],
) -> Optional[Dict[str, float]]:
    level = rescue_level()
    if not level or not initial_voltages:
        return initial_voltages
    rng = np.random.default_rng((_rescue_seed() * 1_000_003 + level) % 2**32)
    jitter_v = 0.005 * level
    return {
        name: float(value) + float(rng.uniform(-jitter_v, jitter_v))
        for name, value in sorted(initial_voltages.items())
    }


@dataclass
class DCResult:
    """Result of a DC operating-point analysis."""

    voltages: Dict[str, float]
    iterations: int
    converged: bool
    max_residual_a: float

    def voltage(self, node: str) -> float:
        try:
            return self.voltages[node]
        except KeyError:
            raise MNAError(f"node {node!r} not in the DC solution") from None


@dataclass
class NewtonOptions:
    """Newton-iteration tuning knobs shared by the DC and transient solvers."""

    max_iterations: int = 100
    abs_tolerance_a: float = 1e-9
    rel_tolerance: float = 1e-6
    damping: float = 1.0
    max_voltage_step_v: float = 0.3


#: One Newton solve a DC generator asks its driver for.
NewtonTarget = Tuple[MNAAssembler, np.ndarray, np.ndarray, NewtonOptions]
#: The driver's answer: ``(x, iterations, converged, max_residual, singular)``.
NewtonOutcome = Tuple[np.ndarray, int, bool, float, bool]
_DCGen = Generator[NewtonTarget, NewtonOutcome, Any]


def _newton_solve(
    assembler: MNAAssembler,
    b: np.ndarray,
    x0: np.ndarray,
    options: NewtonOptions,
) -> NewtonOutcome:
    """Newton iteration on ``G x + I_nl(x) = b`` starting from ``x0``.

    The linear solves go through the dense backend for small systems
    (bitwise-shared with the batched solver tier) and through a
    :class:`CachedFactorSolver` above the dense threshold, where the LU
    factorisation of ``G`` is reused whenever the device stamps are
    unchanged.  The last element of the result reports an exactly
    singular Jacobian, which is what failure classification keys on.
    """
    dense = assembler.dense_system() if assembler.use_dense_solver else None
    solver = None if dense is not None else CachedFactorSolver(assembler)
    g_matrix = None if dense is not None else assembler.conductance_matrix
    x = x0.copy()
    max_residual = float("inf")
    # Residual decay telemetry: one module-global check while disabled
    # (the common case), a bounded reservoir submission when on.
    recorder = residual_recorder()
    residual_log: Optional[List[float]] = [] if recorder is not None else None
    # Adaptive damping: a full Newton step can limit-cycle across the kinks
    # of the compact model (the linear/saturation hand-off) without the
    # residual ever dropping below tolerance.  Halving the step whenever
    # the residual stops improving breaks the cycle; the damping recovers
    # geometrically once progress resumes.
    damping = options.damping
    previous_residual: Optional[float] = None
    for iteration in range(1, options.max_iterations + 1):
        stamp = assembler.nonlinear_stamp(x)
        g_dot_x = dense.g_dense @ x if dense is not None else g_matrix.dot(x)
        residual = g_dot_x + stamp.residual - b
        max_residual = float(np.max(np.abs(residual))) if residual.size else 0.0
        if residual_log is not None:
            residual_log.append(max_residual)
        if max_residual < options.abs_tolerance_a:
            if recorder is not None:
                recorder.record("dc", residual_log, True)
            return x, iteration, True, max_residual, False
        if previous_residual is not None:
            if max_residual >= previous_residual:
                damping = max(damping * 0.5, options.damping / 256.0)
            else:
                damping = min(damping * 1.5, options.damping)
        previous_residual = max_residual
        try:
            if dense is not None:
                delta = dense.solve(np.asarray(stamp.values), -residual)
            else:
                delta = solver.solve(0.0, stamp, -residual)
        except (RuntimeError, np.linalg.LinAlgError):
            # Exactly singular Jacobian at this gmin: report non-convergence
            # so the caller's gmin-stepping fallback can regularise and retry
            # instead of aborting the whole operating-point search.
            if recorder is not None:
                recorder.record("dc", residual_log, False)
            return x, iteration, False, max_residual, True
        delta = np.asarray(delta).ravel()
        # Limit the per-iteration voltage step for robustness.
        node_delta = delta[: assembler.n_nodes]
        max_step = float(np.max(np.abs(node_delta))) if node_delta.size else 0.0
        scale = damping
        if max_step > options.max_voltage_step_v > 0.0:
            scale *= options.max_voltage_step_v / max_step
        x = x + scale * delta
        # Convergence on the update as well (helps linear circuits finish in
        # one extra iteration).
        if max_step * scale < options.rel_tolerance * max(1.0, float(np.max(np.abs(x[: assembler.n_nodes]), initial=0.0))):
            stamp = assembler.nonlinear_stamp(x)
            g_dot_x = dense.g_dense @ x if dense is not None else g_matrix.dot(x)
            residual = g_dot_x + stamp.residual - b
            max_residual = float(np.max(np.abs(residual))) if residual.size else 0.0
            if max_residual < options.abs_tolerance_a * 10.0:
                if recorder is not None:
                    recorder.record("dc", residual_log, True)
                return x, iteration, True, max_residual, False
    if recorder is not None:
        recorder.record("dc", residual_log, False)
    return x, options.max_iterations, False, max_residual, False


def _drive(gen: Generator[Any, Any, Any], answer: Callable[..., Any]) -> Any:
    """Run a solver generator to completion, answering every request.

    This is the scalar driver of both analysis families: DC generators
    are answered with :func:`_solve_target`, transient time loops with
    the assembler's device stamp.
    """
    reply = None
    while True:
        try:
            request = gen.send(reply)
        except StopIteration as done:
            return done.value
        reply = answer(request)


def _solve_target(target: NewtonTarget) -> NewtonOutcome:
    return _newton_solve(*target)


def _source_vector_with_overrides(
    assembler: MNAAssembler,
    source_overrides: Optional[Mapping[str, float]],
) -> np.ndarray:
    """The t=0 source vector with selected voltage sources overridden.

    ``source_overrides`` maps voltage-source *names* to DC values; the
    overridden value replaces the source's own waveform value.  This is the
    hook the swept-source analysis uses, so a sweep never has to rebuild
    the circuit per point.
    """
    b = assembler.source_vector(0.0)
    if source_overrides:
        for name, value in source_overrides.items():
            b[assembler.branch_index(name)] = float(value)
    return b


class _AssemblerCache:
    """Per-circuit cache of gmin variants of one base assembler.

    The rescue ladders revisit a handful of gmin values; each variant is
    a :meth:`~repro.circuit.mna.MNAAssembler.clone_with_gmin` of the base
    (bitwise identical to, and ~15x cheaper than, a fresh construction),
    built once and memoised together with its dense backend.
    """

    def __init__(self, base: MNAAssembler) -> None:
        self.base = base
        self._variants: Dict[float, MNAAssembler] = {base.gmin_s: base}

    def get(self, gmin_s: float) -> MNAAssembler:
        variant = self._variants.get(gmin_s)
        if variant is None:
            variant = self.base.clone_with_gmin(gmin_s)
            self._variants[gmin_s] = variant
        return variant


#: What a ladder stage returns: ``(solution or None, iterations,
#: max_residual, saw_singular)``.
_StageResult = Tuple[Optional[np.ndarray], int, float, bool]


def _gen_source_stepping(
    cache: _AssemblerCache,
    b_full: np.ndarray,
    options: NewtonOptions,
) -> Generator[NewtonTarget, NewtonOutcome, _StageResult]:
    """Ramp every independent source from zero to full value (continuation).

    Starts from the all-off state (``x = 0`` solves the system exactly at
    ``b = 0``) and ramps ``b`` to its full value, re-converging at every
    step from the previous one — the sources enter the MNA system only
    through ``b``, so scaling ``b`` scales every independent source
    together and the ramp follows a physical turn-on trajectory.  A step
    that fails is retried with the increment halved (up to a bounded
    number of refinements), which lets the ramp creep past fold points
    where a coarse step would jump over the surviving solution branch.
    """
    assembler = cache.base
    current = np.zeros(assembler.size)
    total_iterations = 0
    max_residual = float("inf")
    saw_singular = False
    alpha = 0.0
    step = 0.1
    min_step = 1.0 / 1024.0
    while alpha < 1.0:
        attempt = min(1.0, alpha + step)
        candidate, iterations, converged, max_residual, singular = yield (
            assembler, attempt * b_full, current, options
        )
        saw_singular |= singular
        total_iterations += iterations
        if converged:
            current = candidate
            alpha = attempt
            step = min(step * 2.0, 0.1)
            continue
        step /= 2.0
        if step < min_step:
            return None, total_iterations, max_residual, saw_singular
    return current, total_iterations, max_residual, saw_singular


def _gen_pseudo_transient(
    cache: _AssemblerCache,
    b_full: np.ndarray,
    x0: np.ndarray,
    options: NewtonOptions,
) -> Generator[NewtonTarget, NewtonOutcome, _StageResult]:
    """Pseudo-transient continuation: anchor Newton to the previous iterate.

    Each level solves ``F(x) + g_pt·(x − x_anchor) = 0`` — the backward-
    Euler step of a fictitious grounded capacitor at every node — and the
    anchor conductance ``g_pt`` decays by decades towards zero.  Unlike
    plain Newton or source stepping, this follows the *dynamics* of the
    circuit, so it walks across fold points (where one branch of a
    bistable circuit ceases to exist) onto the surviving branch instead of
    diverging.  The final level solves the original system exactly.
    """
    gmin_s = cache.base.gmin_s
    x = x0.copy()
    total_iterations = 0
    max_residual = float("inf")
    saw_singular = False
    g_pt = 1e-2
    for _outer in range(200):
        assembler = cache.get(gmin_s + g_pt)
        b_pt = b_full.copy()
        b_pt[: assembler.n_nodes] += g_pt * x[: assembler.n_nodes]
        solution, iterations, converged, _residual, singular = yield (
            assembler, b_pt, x, options
        )
        saw_singular |= singular
        total_iterations += iterations
        if not converged:
            # Pseudo-step too large (too small an anchor): tighten it.
            g_pt *= 10.0
            if g_pt > 1e4:
                return None, total_iterations, max_residual, saw_singular
            continue
        x = solution
        # Switched evolution/relaxation: grow the pseudo-step as long as
        # the anchored solves succeed, then finish with the exact system.
        g_pt *= 0.1
        if g_pt < 1e-12:
            solution, iterations, converged, max_residual, singular = yield (
                cache.base, b_full, x, options
            )
            saw_singular |= singular
            total_iterations += iterations
            if converged:
                return solution, total_iterations, max_residual, saw_singular
            # The exact solve still bounced: keep evolving from here with
            # a fresh, tighter pseudo-step.
            g_pt = 1e-4
    return None, total_iterations, max_residual, saw_singular


def _gen_operating_point(
    cache: _AssemblerCache,
    initial_voltages: Optional[Dict[str, float]],
    options: NewtonOptions,
    source_overrides: Optional[Mapping[str, float]],
    kind: str,
) -> Generator[NewtonTarget, NewtonOutcome, DCResult]:
    """The operating-point ladder: Newton, gmin stepping, source stepping,
    pseudo-transient continuation.  ``kind`` labels the rescue telemetry
    (``"dc"`` on the scalar driver, ``"batch_dc"`` on the batched one).
    """
    level = rescue_level()
    if level:
        options = replace(options, max_iterations=options.max_iterations * (1 + level))
        initial_voltages = _perturbed_initial_voltages(initial_voltages)
    base = cache.base
    gmin_s = base.gmin_s
    # Neither depends on gmin; initial_solution leaves the voltage-source
    # branch entries at zero, so the first iteration does not start from a
    # wildly inconsistent branch current.
    b = _source_vector_with_overrides(base, source_overrides)
    x0 = base.initial_solution(initial_voltages)
    saw_singular = False

    for gmin_attempt in (gmin_s, gmin_s * 1e3, gmin_s * 1e6):
        if gmin_attempt != gmin_s:
            record_rescue(kind, "gmin_step")
        solution, iterations, converged, max_residual, singular = yield (
            cache.get(gmin_attempt), b, x0, options
        )
        saw_singular |= singular
        if converged and gmin_attempt == gmin_s:
            return DCResult(
                voltages=base.solution_to_dict(solution),
                iterations=iterations,
                converged=True,
                max_residual_a=max_residual,
            )
        if converged:
            # Found a solution at elevated gmin: walk gmin back down using the
            # converged solution as the new starting point.
            current = solution
            for step_gmin in (gmin_attempt / 10.0, gmin_attempt / 100.0, gmin_s):
                current, iterations, converged, max_residual, singular = yield (
                    cache.get(step_gmin), b, current, options
                )
                saw_singular |= singular
                if not converged:
                    break
            if converged:
                return DCResult(
                    voltages=base.solution_to_dict(current),
                    iterations=iterations,
                    converged=True,
                    max_residual_a=max_residual,
                )

    # Fallback: source stepping at the baseline gmin.  The ramp tracks a
    # physical turn-on trajectory, so bistable circuits land in a consistent
    # state instead of oscillating around the unstable ridge.
    record_rescue(kind, "source_step")
    solution, iterations, max_residual, singular = yield from _gen_source_stepping(
        cache, b, options
    )
    saw_singular |= singular
    if solution is None:
        # Last resort: pseudo-transient continuation from the caller's guess
        # (needed when the guessed state has ceased to exist — e.g. just past
        # the fold of a bistable cell — and Newton must cross onto the
        # surviving branch).
        record_rescue(kind, "pseudo_transient")
        solution, iterations, max_residual, singular = yield from (
            _gen_pseudo_transient(cache, b, x0, options)
        )
        saw_singular |= singular
    if solution is not None:
        return DCResult(
            voltages=base.solution_to_dict(solution),
            iterations=iterations,
            converged=True,
            max_residual_a=max_residual,
        )

    singular_note = " after a singular Jacobian was encountered" if saw_singular else ""
    raise ConvergenceError(
        f"DC operating point did not converge{singular_note} "
        f"(last max residual {max_residual:.3e} A)"
    )


def dc_operating_point(
    circuit: Circuit,
    initial_voltages: Optional[Dict[str, float]] = None,
    options: Optional[NewtonOptions] = None,
    gmin_s: float = 1e-12,
    source_overrides: Optional[Mapping[str, float]] = None,
) -> DCResult:
    """Find the DC operating point of a circuit.

    Parameters
    ----------
    circuit:
        The circuit to solve; capacitors are open in DC.
    initial_voltages:
        Optional initial guess per node (greatly helps bistable circuits
        such as the SRAM cell pick the intended state).
    options:
        Newton options.
    gmin_s:
        Baseline gmin; the gmin-stepping fallback starts three decades
        higher when plain Newton fails, and source stepping is the last
        resort after the gmin ladder is exhausted.
    source_overrides:
        Optional mapping of voltage-source names to DC values that replace
        the sources' own waveform values (used by :func:`dc_sweep`).
    """
    with span("solver.dc") as dc_span:
        gen = _gen_operating_point(
            _AssemblerCache(MNAAssembler(circuit, gmin_s=gmin_s)),
            initial_voltages,
            options if options is not None else NewtonOptions(),
            source_overrides,
            kind="dc",
        )
        try:
            result = _drive(gen, _solve_target)
        except ConvergenceError:
            record_convergence("dc", 0, False)
            raise
        dc_span.annotate(iterations=result.iterations, converged=result.converged)
        record_convergence("dc", result.iterations, result.converged)
        return result


@dataclass
class DCSweepResult:
    """Result of a swept-source DC analysis.

    Attributes
    ----------
    source_name:
        The swept voltage source.
    values:
        The swept DC values, in sweep order.
    voltages:
        Mapping node name → array of DC voltages, one per sweep point.
    iterations_total:
        Newton iterations summed over the whole sweep.
    """

    source_name: str
    values: np.ndarray
    voltages: Dict[str, np.ndarray]
    iterations_total: int

    def voltage(self, node: str) -> np.ndarray:
        try:
            return self.voltages[node]
        except KeyError:
            raise MNAError(f"node {node!r} not in the DC sweep") from None

    def crossing_value(
        self, node: str, level_v: float, direction: str = "falling"
    ) -> Optional[float]:
        """First swept-source value at which ``node`` crosses ``level_v``.

        Linear interpolation between bracketing sweep points; ``None`` when
        the node never crosses the level.  Used to locate trip points
        (e.g. the write-margin flip) on a continuation sweep.
        """
        if direction not in ("rising", "falling"):
            raise MNAError("direction must be 'rising' or 'falling'")
        waveform = self.voltage(node)
        for index in range(1, len(self.values)):
            previous, current = waveform[index - 1], waveform[index]
            if direction == "falling" and previous > level_v >= current:
                pass
            elif direction == "rising" and previous < level_v <= current:
                pass
            else:
                continue
            fraction = (level_v - previous) / (current - previous)
            return float(
                self.values[index - 1]
                + fraction * (self.values[index] - self.values[index - 1])
            )
        return None


def _sweep_grid(values: Sequence[float]) -> np.ndarray:
    grid = np.asarray(list(values), dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ConvergenceError("a DC sweep needs at least one source value")
    return grid


def _gen_sweep_rescue(
    cache: _AssemblerCache,
    b: np.ndarray,
    current: np.ndarray,
    source_overrides: Mapping[str, float],
    options: NewtonOptions,
    kind: str,
) -> Generator[NewtonTarget, NewtonOutcome, Tuple[np.ndarray, int]]:
    """Recover one sweep point whose warm start failed.

    Warm start lost the branch (possible right at a fold).  The
    branch-faithful rescue is pseudo-transient continuation anchored at
    the previous point: it relaxes along the circuit dynamics, so it
    stays on the current branch while it exists and crosses onto the
    surviving one exactly when it folds — unlike the gmin ladder, which
    can hop branches early.  Only if that fails does the point fall
    through to the full operating-point ladder.
    """
    record_rescue(f"{kind}_sweep", "sweep_point")
    solution, iterations, _residual, _singular = yield from _gen_pseudo_transient(
        cache, b, current, options
    )
    if solution is None:
        assembler = cache.base
        node_names = assembler.node_names
        point = yield from _gen_operating_point(
            cache,
            {node: float(current[assembler.index_of(node)]) for node in node_names},
            options,
            source_overrides,
            kind,
        )
        iterations += point.iterations
        solution = assembler.initial_solution(
            {node: point.voltages[node] for node in node_names}
        )
    return solution, iterations


def _gen_dc_sweep(
    cache: _AssemblerCache,
    source_name: str,
    grid: np.ndarray,
    initial_voltages: Optional[Dict[str, float]],
    options: NewtonOptions,
    kind: str,
) -> Generator[NewtonTarget, NewtonOutcome, DCSweepResult]:
    """The sweep continuation (``kind`` labels rescue telemetry as in
    :func:`_gen_operating_point`)."""
    assembler = cache.base
    branch = assembler.branch_index(source_name)  # raises early for a bad name
    first = yield from _gen_operating_point(
        cache, initial_voltages, options, {source_name: float(grid[0])}, kind
    )
    node_names = assembler.node_names
    iterations_total = first.iterations
    current = assembler.initial_solution(
        {node: first.voltages[node] for node in node_names}
    )
    b0 = assembler.source_vector(0.0)
    node_pos = np.array(
        [assembler.index_of(node) for node in node_names], dtype=np.int64
    )
    # The history is recorded as node-voltage snapshots and split per node
    # at the end — a pure float64 passthrough.
    snapshots: List[np.ndarray] = [current[node_pos]]
    for value in grid[1:]:
        b = b0.copy()
        b[branch] = float(value)
        solution, iterations, converged, _residual, _singular = yield (
            assembler, b, current, options
        )
        iterations_total += iterations
        if not converged:
            solution, iterations = yield from _gen_sweep_rescue(
                cache, b, current, {source_name: float(value)}, options, kind
            )
            iterations_total += iterations
        current = solution
        snapshots.append(current[node_pos])

    stacked = np.stack(snapshots)
    return DCSweepResult(
        source_name=source_name,
        values=grid,
        voltages={
            node: np.ascontiguousarray(stacked[:, k])
            for k, node in enumerate(node_names)
        },
        iterations_total=iterations_total,
    )


def dc_sweep(
    circuit: Circuit,
    source_name: str,
    values: Sequence[float],
    initial_voltages: Optional[Dict[str, float]] = None,
    options: Optional[NewtonOptions] = None,
    gmin_s: float = 1e-12,
) -> DCSweepResult:
    """Sweep the DC value of one voltage source, with continuation.

    The first point is solved with the full robustness ladder of
    :func:`dc_operating_point`; every following point warm-starts Newton
    from the previous solution (the continuation that lets the butterfly
    sweeps walk through the steep VTC transition without losing the
    branch).  A point that fails the warm start falls back to
    pseudo-transient continuation and then to the full ladder before the
    sweep gives up.

    Parameters
    ----------
    circuit:
        The circuit; must contain a voltage source named ``source_name``.
    source_name:
        The voltage source whose DC value is swept (its own waveform value
        is ignored).
    values:
        The sweep grid, visited in order (continuation follows the order,
        so a monotone grid behaves like a slow physical ramp).
    initial_voltages:
        Optional initial guess for the *first* point.
    options, gmin_s:
        Newton knobs shared with :func:`dc_operating_point`.
    """
    grid = _sweep_grid(values)
    with span("solver.dc_sweep", points=int(grid.size)) as sweep_span:
        gen = _gen_dc_sweep(
            _AssemblerCache(MNAAssembler(circuit, gmin_s=gmin_s)),
            source_name,
            grid,
            initial_voltages,
            options if options is not None else NewtonOptions(),
            kind="dc",
        )
        result = _drive(gen, _solve_target)
        sweep_span.annotate(iterations=result.iterations_total)
        record_convergence("dc_sweep", result.iterations_total, True)
        return result
