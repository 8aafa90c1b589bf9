"""Where the traced run wraps the library, and the per-layer metrics it reports.

Every wrap point is the attribute the *caller* looks the entry point up
through — the module global a library function calls, or the class method
an instance dispatches to — so wrapping it from outside sees every call
without a line of ``src/`` changing.  Work counts come from what the public
calls already return (operating points, search and campaign results,
``GateCharacterizer.solve_stats``, ``EstimationSession.stats()``) plus one
re-derivation: :func:`count_clamps` rebuilds the per-pin loading currents
from ``CompiledCircuit``'s public arrays to count LUT lookups that fall
outside the characterized injection grid.
"""

from __future__ import annotations

import bisect
import statistics

import numpy as np

import repro.analysis
import repro.optimize
from repro.circuit import bench_io
from repro.core import reference
from repro.core.reference import ReferenceSimulator
from repro.device.batched import PackedMosfets
from repro.engine.campaign import run_compiled
from repro.engine.compile import CompiledCircuit
from repro.gates.characterize import GateCharacterizer
from repro.optimize import objective
from repro.optimize.objective import LeakageObjective
from repro.service import EstimationSession
from repro.service import session as session_module
from repro.spice import newton, sparse
from repro.spice.batched import BatchedDcSolver
from repro.spice.netlist import NodeKind
from repro.variation import moments, montecarlo

from spans import Tracer, span_name as _span

#: The ``src/repro`` layers the trace splits time by.
LAYERS = (
    "circuit",
    "analysis",
    "gates",
    "engine.compile",
    "engine.campaign",
    "service",
    "optimize",
    "core.reference",
    "spice",
    "device",
    "variation",
)


# --------------------------------------------------------------------------- #
# work counts read from what the wrapped calls return
# --------------------------------------------------------------------------- #
def _on_compile(tracer: Tracer, args, kwargs, result, seconds: float) -> None:
    compiled = args[0]
    tracer.add(
        "engine.compile.table_bytes",
        sum(
            array.nbytes
            for table in compiled.tables
            for array in (
                table.truth, table.nominal, table.pin_injection,
                table.grid, table.response, table.has_response,
            )
        ),
    )


def _totals_hook(per_circuit: bool):
    """Count one ``run_totals`` pass; ``per_circuit`` also books it per circuit.

    Only the session's passes (the campaign set, the served and the
    estimated vectors) are booked per circuit, so the search's small
    candidate batches stay out of each circuit's cost per gate evaluation.
    """

    def hook(tracer: Tracer, args, kwargs, result, seconds: float) -> None:
        compiled, pi_bits = args[0], args[1]
        evals = compiled.n_gates * pi_bits.shape[1]
        tracer.add("engine.campaign.gate_evals", evals)
        if not kwargs.get("include_loading", True):
            tracer.add("engine.campaign.noload_s", seconds)
            return
        tracer.add("engine.campaign.loaded_s", seconds)
        if per_circuit:
            name = compiled.circuit.name
            tracer.add(f"engine.campaign.{name}.loaded_s", seconds)
            tracer.add(f"engine.campaign.{name}.loaded_evals", evals)

    return hook


def _on_search(tracer: Tracer, args, kwargs, result, seconds: float) -> None:
    tracer.add("optimize.evaluations", result.evaluations)


def _on_reference(tracer: Tracer, args, kwargs, result, seconds: float) -> None:
    tracer.add("core.reference.vectors", result.vector_count)


def _on_solver_init(tracer: Tracer, args, kwargs, result, seconds: float) -> None:
    nodes = args[0].netlists[0].nodes.values()
    tracer.peak("spice.free_nodes", sum(node.kind is NodeKind.FREE for node in nodes))


def _on_solve(tracer: Tracer, args, kwargs, op, seconds: float) -> None:
    if op.newton_iterations is not None:
        tracer.add("spice.newton_iterations", int(op.newton_iterations.sum()))
    if op.fallback is not None:
        tracer.add("spice.fallbacks", int(op.fallback.sum()))
    tracer.add("spice.nonconverged", int(np.count_nonzero(~op.converged)))
    column_kind = {"newton": "dense", "newton-sparse": "sparse"}.get(op.method, "relaxation")
    tracer.add(f"spice.{column_kind}_columns", op.batch)


def _on_splu(tracer: Tracer, args, kwargs, result, seconds: float) -> None:
    tracer.add("spice.factorizations", 1)


def _on_dense_steps(tracer: Tracer, args, kwargs, result, seconds: float) -> None:
    tracer.add("spice.factorizations", args[0].shape[0])


def _device_hook(kind: str):
    def hook(tracer: Tracer, args, kwargs, result, seconds: float) -> None:
        packed, *voltages = args
        grid = np.broadcast_shapes(*(np.shape(v) for v in voltages), (packed.slots, 1))
        tracer.add(f"device.{kind}_evals", int(np.prod(grid)))

    return hook


def _on_monte_carlo(tracer: Tracer, args, kwargs, result, seconds: float) -> None:
    tracer.add("variation.samples", len(result.samples))
    tracer.add("variation.dropped", int(result.metadata.get("dropped_nonconverged", 0)))


def _on_moments(tracer: Tracer, args, kwargs, result, seconds: float) -> None:
    tracer.add("variation.moments_solves", result.solve_count)


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points (undo with ``tracer.close()``)."""
    wrap = tracer.wrap
    wrap(bench_io, "read_bench", "circuit")
    wrap(reference, "flatten_batch", "circuit")
    wrap(montecarlo, "flatten", "circuit")
    wrap(repro.analysis, "preflight_circuit", "analysis")
    wrap(GateCharacterizer, "characterize", "gates")
    wrap(GateCharacterizer, "characterize_type", "gates")
    wrap(CompiledCircuit, "__init__", "engine.compile", _on_compile)
    wrap(session_module, "run_totals", "engine.campaign", _totals_hook(per_circuit=True))
    wrap(objective, "run_totals", "engine.campaign", _totals_hook(per_circuit=False))
    wrap(EstimationSession, "warm_up", "service")
    wrap(EstimationSession, "totals", "service")
    wrap(EstimationSession, "percentile_leakage", "service")
    wrap(repro.optimize, "minimize_leakage", "optimize", _on_search)
    wrap(LeakageObjective, "totals", "optimize")
    wrap(reference, "run_reference_campaign", "core.reference", _on_reference)
    wrap(ReferenceSimulator, "estimate_batch", "core.reference")
    wrap(BatchedDcSolver, "__init__", "spice", _on_solver_init)
    wrap(BatchedDcSolver, "solve", "spice", _on_solve)
    wrap(BatchedDcSolver, "leakage_by_owner", "spice")
    wrap(BatchedDcSolver, "gate_injection_at_node", "spice")
    wrap(sparse, "splu", "spice", _on_splu)
    wrap(newton, "_solve_steps", "spice", _on_dense_steps)
    wrap(PackedMosfets, "kcl_jacobian_flat", "device", _device_hook("jacobian"))
    wrap(PackedMosfets, "kcl_currents", "device", _device_hook("residual"))
    wrap(montecarlo, "draw_qmc_parameters", "variation")
    wrap(session_module, "run_loaded_inverter_monte_carlo", "variation", _on_monte_carlo)
    wrap(session_module, "percentile_leakage", "variation")
    wrap(session_module, "yield_fraction", "variation")
    wrap(session_module, "equivalent_mc_samples", "variation")
    wrap(moments, "propagate_loaded_inverter_moments", "variation", _on_moments)


# --------------------------------------------------------------------------- #
# out-of-envelope LUT lookups
# --------------------------------------------------------------------------- #
def count_clamps(compiled: CompiledCircuit, pi_bits: np.ndarray) -> dict[str, float]:
    """Count loaded-pin LUT lookups that fall outside the injection grid.

    Runs ``run_compiled`` for the packed input vectors, then rebuilds every
    pin's loading current from the compiled arrays exactly as the engine
    does: each input pin sees its net's total injection minus its own gate's
    injection on that net, primary-input nets are ideal, and an output pin
    sees its net's total injection.  A lookup is *active* when its loading
    current is nonzero and *clamped* when it lies outside the grid, where
    the engine extrapolates flat.  The rebuilt per-gate loading sums must
    equal the engine's own ``input_loading``/``output_loading`` arrays
    bitwise; ``matches_engine`` reports whether they do.
    """
    pis = compiled.circuit.primary_inputs
    run = run_compiled(
        compiled, [dict(zip(pis, map(int, column))) for column in pi_bits.T]
    )
    n = run.vector_count
    vec_index = run.vec_index
    pin_injection = np.zeros((compiled.n_pins, n))
    for group in compiled.type_groups:
        table = compiled.tables[group.type_index]
        injected = table.pin_injection[vec_index[group.gate_indices]]
        pin_injection[group.pin_slice] = np.swapaxes(injected, 1, 2).reshape(-1, n)
    net_injection = np.zeros((compiled.n_nets, n))
    np.add.at(net_injection, compiled.pin_net, pin_injection)
    if compiled.has_tied_inputs:
        own = np.zeros((compiled.n_pin_groups, n))
        np.add.at(own, compiled.pin_group, pin_injection)
        pin_loading = net_injection[compiled.pin_net] - own[compiled.pin_group]
    else:
        pin_loading = net_injection[compiled.pin_net] - pin_injection
    pin_loading[compiled.pin_on_pi] = 0.0

    lookups = clamped = 0
    worst = 0.0
    matches = True
    for group in compiled.type_groups:
        table = compiled.tables[group.type_index]
        k = table.num_inputs
        loading_in = pin_loading[group.pin_slice].reshape(-1, k, n)
        loading_out = net_injection[group.output_nets][:, None, :]
        loading = np.swapaxes(np.concatenate([loading_in, loading_out], axis=1), 1, 2)
        matches &= np.array_equal(
            loading[..., :k].sum(axis=2), run.input_loading[group.gate_indices]
        ) and np.array_equal(loading[..., k], run.output_loading[group.gate_indices])
        active = loading != 0.0
        low, high = float(table.grid[0]), float(table.grid[-1])
        below = active & (loading < low)
        above = active & (loading > high)
        lookups += int(np.count_nonzero(active))
        clamped += int(np.count_nonzero(below) + np.count_nonzero(above))
        if below.any():
            worst = max(worst, float(loading[below].min()) / low)
        if above.any():
            worst = max(worst, float(loading[above].max()) / high)
    return {
        "lookups": lookups,
        "clamped": clamped,
        "worst_x": worst,
        "matches_engine": bool(matches),
    }


# --------------------------------------------------------------------------- #
# per-layer metrics of one traced run
# --------------------------------------------------------------------------- #
_READ_BENCH = _span(bench_io, "read_bench")
_FLATTENS = (_span(reference, "flatten_batch"), _span(montecarlo, "flatten"))
_SERVICE_ENGINE = _span(session_module, "run_totals")
_OBJECTIVE = _span(LeakageObjective, "totals")
_SEARCH = _span(repro.optimize, "minimize_leakage")
_SOLVER_INIT = _span(BatchedDcSolver, "__init__")
_SOLVE = _span(BatchedDcSolver, "solve")
_ANALYSIS = (_span(BatchedDcSolver, "leakage_by_owner"),
             _span(BatchedDcSolver, "gate_injection_at_node"))
_FACTORIZE = (_span(sparse, "splu"), _span(newton, "_solve_steps"))
_JACOBIAN = _span(PackedMosfets, "kcl_jacobian_flat")
_RESIDUAL = _span(PackedMosfets, "kcl_currents")
_DRAW = _span(montecarlo, "draw_qmc_parameters")
_MONTE_CARLO = _span(session_module, "run_loaded_inverter_monte_carlo")
_STATISTICS = tuple(
    _span(session_module, name)
    for name in ("percentile_leakage", "yield_fraction", "equivalent_mc_samples")
)
_MOMENTS = _span(moments, "propagate_loaded_inverter_moments")


def _ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator / denominator * scale if denominator else 0.0


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _service_latency(tracer: Tracer, queries: list[tuple[float, float]]) -> dict[str, float]:
    """Split served query latency into the engine pass and everything else.

    The engine passes of coalesced queries run as root spans on flush
    threads.  A closed-loop query is answered by the last pass that starts
    after it was sent and ends before it returned.
    """
    passes = sorted(
        (end, start)
        for start, end, parent, thread in tracer.durations(_SERVICE_ENGINE)
        if parent < 0
    )
    ends = [end for end, start in passes]
    overhead = []
    for sent, returned in queries:
        position = bisect.bisect_right(ends, returned) - 1
        if position >= 0 and passes[position][1] >= sent:
            end, start = passes[position]
            overhead.append(returned - sent - (end - start))
    latencies = sorted(returned - sent for sent, returned in queries)
    return {
        "engine_ms_p50": _median([end - start for end, start in passes]) * 1e3,
        "overhead_ms_p50": _median(overhead) * 1e3,
        "latency_p99_ms": (
            float(np.percentile(latencies, 99)) * 1e3 if len(latencies) >= 1000 else 0.0
        ),
    }


def per_layer_metrics(
    tracer: Tracer, facts: dict, clamps: list[dict[str, float]]
) -> dict[str, tuple[float, str]]:
    """Return every per-layer metric of one traced run as ``name: (value, unit)``.

    ``facts`` carries what the workload measured outside the spans: its
    libraries and sessions, the serving query times and the reference
    error; ``clamps`` holds :func:`count_clamps` of its loading-aware
    vectors.  Layers a workload does not touch report zeros.
    """
    times = tracer.layer_times()
    names = tracer.name_times()
    counts = tracer.counts

    def busy(*span_names: str) -> float:
        return sum(names.get(name, (0, 0.0))[1] for name in span_names)

    def calls(*span_names: str) -> int:
        return sum(names.get(name, (0, 0.0))[0] for name in span_names)

    def layer(name: str, key: str) -> float:
        return times.get(name, {}).get(key, 0.0)

    metrics: dict[str, tuple[float, str]] = {}
    for name in LAYERS:
        metrics[f"{name}.busy_s"] = (layer(name, "busy_s"), "s")
        metrics[f"{name}.self_s"] = (layer(name, "self_s"), "s")
        metrics[f"{name}.calls"] = (int(layer(name, "calls")), "count")

    parse_s, parse_calls = busy(_READ_BENCH), calls(_READ_BENCH)
    flatten_s, flatten_calls = busy(*_FLATTENS), calls(*_FLATTENS)
    metrics.update({
        "circuit.parse_s": (parse_s, "s"),
        "circuit.parse_calls": (parse_calls, "count"),
        "circuit.flatten_s": (flatten_s, "s"),
        "circuit.flatten_calls": (flatten_calls, "count"),
        "circuit.us_per_flatten": (_ratio(flatten_s, flatten_calls, 1e6), "us"),
    })

    lint_s, lint_calls = layer("analysis", "busy_s"), int(layer("analysis", "calls"))
    metrics.update({
        "analysis.lint_s": (lint_s, "s"),
        "analysis.lint_calls": (lint_calls, "count"),
        "analysis.ms_per_lint": (_ratio(lint_s, lint_calls, 1e3), "ms"),
    })

    solve_stats = [library.characterizer.solve_stats for library in facts["libraries"]]
    cell_solves = sum(int(stats["solves"]) for stats in solve_stats)
    characterize_s = layer("gates", "busy_s")
    metrics.update({
        "gates.characterize_s": (characterize_s, "s"),
        "gates.characterize_calls": (int(layer("gates", "calls")), "count"),
        "gates.cell_solves": (cell_solves, "count"),
        "gates.newton_iterations": (
            sum(int(stats["iterations"]) for stats in solve_stats), "count"
        ),
        "gates.fallbacks": (sum(int(stats["fallbacks"]) for stats in solve_stats), "count"),
        "gates.us_per_cell_solve": (_ratio(characterize_s, cell_solves, 1e6), "us"),
    })

    metrics.update({
        "engine.compile_s": (layer("engine.compile", "self_s"), "s"),
        "engine.compile.table_mb": (counts["engine.compile.table_bytes"] / 1e6, "MB"),
    })

    lookups = sum(entry["lookups"] for entry in clamps)
    clamped = sum(entry["clamped"] for entry in clamps)
    metrics.update({
        "engine.campaign.loaded_s": (counts["engine.campaign.loaded_s"], "s"),
        "engine.campaign.noload_s": (counts["engine.campaign.noload_s"], "s"),
        "engine.campaign.gate_evals": (int(counts["engine.campaign.gate_evals"]), "count"),
        "engine.campaign.lut_lookups": (lookups, "count"),
        "engine.campaign.clamped_lookups": (clamped, "count"),
        "engine.campaign.clamp_ratio": (_ratio(clamped, lookups), "fraction"),
        "engine.campaign.clamp_worst_x": (
            max((entry["worst_x"] for entry in clamps), default=0.0), "x"
        ),
    })
    for circuit in ("s838", "s13207"):
        metrics[f"engine.campaign.{circuit}.ns_per_gate_eval"] = (
            _ratio(
                counts[f"engine.campaign.{circuit}.loaded_s"],
                counts[f"engine.campaign.{circuit}.loaded_evals"],
                1e9,
            ),
            "ns",
        )

    stats = [session.stats() for session in facts["sessions"]]

    def stat(section: str, key: str) -> int:
        return sum(int(entry[section][key]) for entry in stats)

    queries = facts.get("queries", [])
    service = _service_latency(tracer, queries)
    batches = stat("coalescer", "batches")
    metrics.update({
        "service.engine_ms_p50": (service["engine_ms_p50"], "ms"),
        "service.overhead_ms_p50": (service["overhead_ms_p50"], "ms"),
        "service.latency_p99_ms": (service["latency_p99_ms"], "ms"),
        "service.queries": (len(queries), "count"),
        "service.batches": (batches, "count"),
        "service.requests_per_batch": (
            _ratio(stat("coalescer", "requests"), batches), "count"
        ),
        "service.timeout_flushes": (stat("coalescer", "timeout_flushes"), "count"),
        "service.full_flushes": (stat("coalescer", "full_flushes"), "count"),
        "service.degraded_requests": (stat("session", "degraded_requests"), "count"),
        "service.shed_requests": (stat("coalescer", "rejected"), "count"),
        "service.deadline_exceeded": (stat("coalescer", "deadline_exceeded"), "count"),
        "service.compile_cache_hits": (stat("compile_cache", "hits"), "count"),
        "service.compile_cache_misses": (stat("compile_cache", "misses"), "count"),
    })

    evaluations = int(counts["optimize.evaluations"])
    objective_s = busy(_OBJECTIVE)
    metrics.update({
        "optimize.search_s": (_ratio(busy(_SEARCH), calls(_SEARCH)), "s"),
        "optimize.objective_s": (objective_s, "s"),
        "optimize.objective_calls": (calls(_OBJECTIVE), "count"),
        "optimize.evaluations": (evaluations, "count"),
        "optimize.us_per_evaluation": (_ratio(objective_s, evaluations, 1e6), "us"),
    })

    vectors = int(counts["core.reference.vectors"])
    metrics.update({
        "core.reference.vectors": (vectors, "count"),
        "core.reference.us_per_vector": (
            _ratio(layer("core.reference", "self_s"), vectors, 1e6), "us"
        ),
        "core.reference.estimator_err_pct": (facts.get("estimator_err_pct", 0.0), "%"),
    })

    factorizations = int(counts["spice.factorizations"])
    factorize_s = busy(*_FACTORIZE)
    newton_iterations = int(counts["spice.newton_iterations"])
    solve_s = busy(_SOLVE)
    metrics.update({
        "spice.setup_s": (busy(_SOLVER_INIT), "s"),
        "spice.solve_s": (solve_s, "s"),
        "spice.analysis_s": (busy(*_ANALYSIS), "s"),
        "spice.newton_iterations": (newton_iterations, "count"),
        "spice.factorizations": (factorizations, "count"),
        "spice.factorize_s": (factorize_s, "s"),
        "spice.fallbacks": (int(counts["spice.fallbacks"]), "count"),
        "spice.nonconverged": (int(counts["spice.nonconverged"]), "count"),
        "spice.dense_columns": (int(counts["spice.dense_columns"]), "count"),
        "spice.sparse_columns": (int(counts["spice.sparse_columns"]), "count"),
        "spice.free_nodes": (int(counts["spice.free_nodes"]), "count"),
        "spice.us_per_factorization": (_ratio(factorize_s, factorizations, 1e6), "us"),
        "spice.us_per_newton_iteration": (_ratio(solve_s, newton_iterations, 1e6), "us"),
    })

    for kind, span in (("jacobian", _JACOBIAN), ("residual", _RESIDUAL)):
        evals = int(counts[f"device.{kind}_evals"])
        metrics[f"device.{kind}_s"] = (busy(span), "s")
        metrics[f"device.{kind}_evals"] = (evals, "count")
        metrics[f"device.ns_per_{kind}_eval"] = (_ratio(busy(span), evals, 1e9), "ns")

    samples = int(counts["variation.samples"])
    metrics.update({
        "variation.draw_s": (busy(_DRAW), "s"),
        "variation.samples": (samples, "count"),
        "variation.dropped": (int(counts["variation.dropped"]), "count"),
        "variation.statistics_s": (busy(*_STATISTICS), "s"),
        "variation.moments_s": (_ratio(busy(_MOMENTS), calls(_MOMENTS)), "s"),
        "variation.moments_solves": (int(counts["variation.moments_solves"]), "count"),
        "variation.us_per_sample": (_ratio(busy(_MONTE_CARLO), samples, 1e6), "us"),
    })
    metrics["trace.spans"] = (len(tracer.spans), "count")
    return metrics
