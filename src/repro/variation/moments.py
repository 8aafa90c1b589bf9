"""Analytic moment propagation for the loaded-inverter variation study.

The Monte-Carlo path answers "what are the mean and std of the leakage
under process variation" by brute force: thousands of paired DC solves.
This module gets the same first and second moments from a few hundred
solves by *characterizing* the leakage response once and propagating the
parameter distributions through it:

1. **Characterize** — for every variation axis (the four inter-die shifts
   plus one intra-die Vth shift per transistor of the structure), solve the
   loaded and unloaded structures on a small stencil of parameter points
   (``0, +/-sigma, +/-2 sigma`` by default).  All stencil columns of a
   structure solve as ONE :class:`~repro.spice.batched.BatchedDcSolver`
   batch — the same batching the MC path uses, just pointed at a
   deterministic grid instead of random samples.  The per-axis stencil
   values are exactly small response curves: leakage versus one parameter,
   the parameter-domain analogue of the library's loading-current LUTs.

2. **Fit** — per axis, *per leakage component* and per structure, fit a
   quadratic to the log leakage over the stencil (the leakage mechanisms
   are near-exponential in their parameters, so log space is where a
   low-order polynomial is accurate): ``log I(t) ~ l0 + c1 t + c2 t**2``
   with ``t`` the shift in sigma units.  Components are fitted separately
   because each is individually close to log-linear (subthreshold in Vth,
   gate tunneling in Tox) while their *sum* is not — the mixture is what
   makes ``log(total)`` curved, and the total is therefore assembled from
   the component surrogates rather than fitted directly.  With
   ``interaction_axes > 0`` (default 6) the strongest axes additionally
   get pairwise cross terms ``c_ij t_i t_j`` from four-point 2-D probes —
   the loading feedback (a leakier cluster droops the shared input net,
   compressing joint extremes) shows up exactly there.

3. **Propagate** — every axis draw is a *clipped* standard Gaussian
   (clipped at the spec's truncation — exactly the distribution
   :func:`~repro.variation.spec._truncated_normal` produces).  Without
   cross terms the moment integrals factor per axis and are evaluated in
   closed form (:func:`clipped_gaussian_exp_moment`); component
   cross-moments (for the variance of the total) stay in the same family
   because products of log-additive surrogates are log-additive.  With
   cross terms the surrogate is integrated by deterministic unscrambled
   Sobol quadrature — a pure numpy evaluation of the fitted polynomial,
   no further circuit solves and no randomness.

``order=2`` (default) uses the quadratic fits as-is; ``order=1`` keeps
only the linear terms, which reduces to the classic lognormal
linearization ``E[I] = exp(l0 + var/2)``.

Validity envelope (documented, asserted where checkable):

* per-axis quadratic-in-log response — accurate while the stencil span
  covers the bulk of the distribution; for the closed-form factors the
  curvature must satisfy ``1 - 2 c2 > 0`` per doubled coefficient
  (violations raise a ``ValueError`` naming the axis);
* cross-axis terms are truncated at pairwise interactions among the
  ``interaction_axes`` strongest axes — higher-order feedback is the
  dominant residual (the benchmark records std agreement near ~15 % at
  the paper's sigmas, while means land within a few percent);
* clipped-Gaussian inputs are handled exactly (boundary point masses
  included), so truncation is not a source of error;
* every stencil leakage must be positive (log space); a component that is
  identically zero on the whole stencil propagates as exactly zero.

The benchmark (``benchmarks/bench_statistical_leakage.py``) records the
agreement against the MC oracle at a fixed tolerance bar.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, ndtri
from scipy.stats import qmc as scipy_qmc

from repro.device.params import TechnologyParams
from repro.spice.solver import SolverOptions
from repro.utils.tables import format_table
from repro.variation.montecarlo import (
    MonteCarloSample,
    SampleTask,
    _solve_parameter_sets,
    _study_circuits,
    build_sample_task,
)
from repro.variation.qmc import ParameterDraws
from repro.variation.spec import VariationSpec
from repro.variation.statistics import _percent_change

#: Leakage mechanisms fitted separately; ``total`` is assembled from them.
MOMENT_COMPONENTS = ("subthreshold", "gate", "btbt", "total")
_MECHANISMS = ("subthreshold", "gate", "btbt")

#: Default stencil extent in sigma units (points at +/-1, +/-2 sigma).
DEFAULT_STENCIL_SIGMA = 2.0

#: Default number of strongest axes given pairwise cross terms.
DEFAULT_INTERACTION_AXES = 6

#: Default node count of the deterministic Sobol quadrature.
DEFAULT_QUADRATURE_POINTS = 2**14

#: :class:`~repro.variation.qmc.ParameterDraws` fields of the inter-die axes.
_INTER_FIELDS = ("delta_length_nm", "delta_tox_nm", "delta_vth_v", "delta_vdd_v")


@dataclass(frozen=True)
class MomentEstimate:
    """Mean and standard deviation of one leakage component (amperes)."""

    mean: float
    std: float


@dataclass(frozen=True)
class _Axis:
    """One variation axis: an inter-die parameter or one transistor's Vth."""

    name: str
    kind: str  # "inter" | "intra"
    sigma: float
    inter_field: str = ""
    transistor: str = ""


@dataclass
class _Surrogate:
    """Fitted log-leakage model of one component on one structure.

    ``log I(t) = l0 + linear . t + quadratic . t**2 + sum c_ij t_i t_j``
    over the sigma-unit axis coordinates ``t``; ``zero`` marks a component
    that is identically zero on the stencil (it propagates as 0.0).
    """

    l0: float
    linear: np.ndarray
    quadratic: np.ndarray
    interactions: dict[tuple[int, int], float] = field(default_factory=dict)
    zero: bool = False


@dataclass
class MomentsResult:
    """Propagated moments of the Fig. 10 populations plus provenance."""

    spec: VariationSpec
    input_value: int
    input_loads: int
    output_loads: int
    order: int
    stencil_sigma: float
    loaded: dict[str, MomentEstimate] = field(default_factory=dict)
    unloaded: dict[str, MomentEstimate] = field(default_factory=dict)
    #: Number of DC operating points solved (both structures).
    solve_count: int = 0
    #: Number of variation axes with nonzero sigma.
    axis_count: int = 0
    #: Number of axis pairs carrying fitted cross terms.
    interaction_pairs: int = 0
    #: ``closed-form`` or ``sobol-quadrature`` (cross terms present).
    method: str = "closed-form"

    def estimate(self, component: str, loaded: bool = True) -> MomentEstimate:
        """Return one component's propagated moments."""
        table = self.loaded if loaded else self.unloaded
        if component not in table:
            raise KeyError(f"unknown leakage component {component!r}")
        return table[component]

    def mean_shift_percent(self, component: str = "total") -> float:
        """Return the Fig. 11 loading-induced mean shift, in percent."""
        return _percent_change(
            self.estimate(component, True).mean,
            self.estimate(component, False).mean,
            "mean",
        )

    def std_shift_percent(self, component: str = "total") -> float:
        """Return the Fig. 11 loading-induced std shift, in percent."""
        return _percent_change(
            self.estimate(component, True).std,
            self.estimate(component, False).std,
            "std",
        )

    def to_table(self) -> str:
        """Render the propagated moments per component (nA)."""
        rows = [
            [
                component,
                self.unloaded[component].mean * 1e9,
                self.loaded[component].mean * 1e9,
                self.unloaded[component].std * 1e9,
                self.loaded[component].std * 1e9,
            ]
            for component in MOMENT_COMPONENTS
        ]
        return format_table(
            [
                "component",
                "mean no-load [nA]",
                "mean loaded [nA]",
                "std no-load [nA]",
                "std loaded [nA]",
            ],
            rows,
            title=(
                f"Moment propagation (order {self.order}, {self.method}, "
                f"{self.axis_count} axes, {self.solve_count} solves)"
            ),
        )


def clipped_gaussian_exp_moment(c1: float, c2: float, truncation: float) -> float:
    """Return ``E[exp(c1 t + c2 t**2)]`` for clipped standard Gaussian ``t``.

    ``t = clip(z, -truncation, truncation)`` with ``z`` standard normal —
    the distribution every variation axis is drawn from.  The expectation
    splits into the interior integral (the unclipped Gaussian moment
    ``exp(c1**2 / (2 s)) / sqrt(s)`` with ``s = 1 - 2 c2``, windowed by two
    normal CDFs) and the point masses the clip accumulates on the two
    boundaries.  Honouring the clip matters: the leakage is lognormal-like,
    and for the strongest Vth axes the 3-sigma clip removes several percent
    of the *second* moment per axis.
    """
    if c2 >= 0.5:
        raise ValueError(
            f"log-leakage curvature {c2:.3f} is outside the moment-"
            "propagation validity envelope (needs 1 - 2 c2 > 0 per doubled "
            "coefficient); use the Monte-Carlo path for this spec"
        )
    s = 1.0 - 2.0 * c2
    root_s = np.sqrt(s)
    interior = (
        np.exp(c1**2 / (2.0 * s))
        / root_s
        * (
            ndtr((truncation * s - c1) / root_s)
            - ndtr((-truncation * s - c1) / root_s)
        )
    )
    boundary = ndtr(-truncation) * (
        np.exp(-c1 * truncation + c2 * truncation**2)
        + np.exp(c1 * truncation + c2 * truncation**2)
    )
    return float(interior + boundary)


def _axes(task: SampleTask, transistor_names: list[str]) -> list[_Axis]:
    """Return every variation axis with a nonzero sigma."""
    spec = task.spec
    inter = [
        _Axis("sigma_length_nm", "inter", spec.sigma_length_nm, "delta_length_nm"),
        _Axis("sigma_tox_nm", "inter", spec.sigma_tox_nm, "delta_tox_nm"),
        _Axis("sigma_vth_inter_v", "inter", spec.sigma_vth_inter_v, "delta_vth_v"),
        _Axis("sigma_vdd_v", "inter", spec.sigma_vdd_v, "delta_vdd_v"),
    ]
    intra = [
        _Axis(f"vth_intra:{name}", "intra", spec.sigma_vth_intra_v, transistor=name)
        for name in transistor_names
    ]
    return [axis for axis in inter + intra if axis.sigma > 0.0]


def _parameter_columns(
    task: SampleTask,
    transistor_names: list[str],
    columns: list[list[tuple[_Axis, float]]],
) -> ParameterDraws:
    """Return characterization columns as one parameter block.

    Each column lists (axis, offset in sigma units) pairs — none for the
    center, one for a stencil column, two for a pairwise-interaction probe.
    """
    inter = {name: np.zeros(len(columns)) for name in _INTER_FIELDS}
    intra = np.zeros((len(columns), len(transistor_names)))
    row_of = {name: row for row, name in enumerate(transistor_names)}
    for column, shifts in enumerate(columns):
        for axis, offset in shifts:
            value = offset * axis.sigma
            if axis.kind == "inter":
                inter[axis.inter_field][column] += value
            else:
                intra[column, row_of[axis.transistor]] += value
    return ParameterDraws(spec=task.spec, intra_vth_v=intra, **inter)


def _component_values(samples: list[MonteCarloSample], loaded: bool) -> np.ndarray:
    """Return a ``(mechanism, column)`` value matrix from solved columns."""
    return np.array(
        [
            [
                (s.with_loading if loaded else s.without_loading).component(name)
                for s in samples
            ]
            for name in _MECHANISMS
        ]
    )


def _fit_axis(ts: np.ndarray, deltas: np.ndarray) -> tuple[float, float]:
    """Fit ``delta_log_leakage ~ c1 t + c2 t**2`` (intercept pinned at 0)."""
    design = np.stack([ts, ts**2], axis=1)
    coeffs, *_ = np.linalg.lstsq(design, deltas, rcond=None)
    return float(coeffs[0]), float(coeffs[1])


def _fit_surrogate(
    center: float, stencil: np.ndarray, ts: np.ndarray, label: str
) -> _Surrogate:
    """Fit one component's diagonal surrogate from its solved stencil.

    ``stencil`` has shape ``(axes, stencil_points)``; ``ts`` holds the
    sigma-unit offsets of the stencil points (center excluded).
    """
    if center == 0.0 and not stencil.any():
        axes = stencil.shape[0]
        return _Surrogate(
            l0=-np.inf, linear=np.zeros(axes), quadratic=np.zeros(axes), zero=True
        )
    if center <= 0.0 or np.any(stencil <= 0.0):
        raise ValueError(
            f"cannot propagate moments of {label}: non-positive leakage on "
            "the characterization stencil (log-domain fit undefined)"
        )
    l0 = float(np.log(center))
    linear, quadratic = [], []
    for axis_row in stencil:
        c1, c2 = _fit_axis(ts, np.log(axis_row) - l0)
        linear.append(c1)
        quadratic.append(c2)
    return _Surrogate(l0=l0, linear=np.array(linear), quadratic=np.array(quadratic))


def _closed_form_moments(
    surrogates: dict[str, _Surrogate], truncation: float
) -> dict[str, MomentEstimate]:
    """Propagate component + total moments through the factorized integrals.

    ``E[C_i C_j]`` of two log-additive surrogates is again a product of
    per-axis :func:`clipped_gaussian_exp_moment` factors (with summed
    coefficients), which is what makes the variance of the total — the sum
    of the mechanisms — available in closed form too.
    """

    def cross(a: _Surrogate, b: _Surrogate) -> float:
        if a.zero or b.zero:
            return 0.0
        product = np.exp(a.l0 + b.l0)
        for c1, c2 in zip(a.linear + b.linear, a.quadratic + b.quadratic):
            product *= clipped_gaussian_exp_moment(float(c1), float(c2), truncation)
        return float(product)

    means = {
        name: 0.0
        if surrogate.zero
        else float(
            np.exp(surrogate.l0)
            * np.prod(
                [
                    clipped_gaussian_exp_moment(float(c1), float(c2), truncation)
                    for c1, c2 in zip(surrogate.linear, surrogate.quadratic)
                ]
            )
        )
        for name, surrogate in surrogates.items()
    }
    estimates = {}
    for name, surrogate in surrogates.items():
        second = cross(surrogate, surrogate)
        estimates[name] = MomentEstimate(
            mean=means[name],
            std=float(np.sqrt(max(second - means[name] ** 2, 0.0))),
        )
    total_mean = sum(means.values())
    total_second = sum(
        cross(surrogates[a], surrogates[b]) for a in surrogates for b in surrogates
    )
    estimates["total"] = MomentEstimate(
        mean=float(total_mean),
        std=float(np.sqrt(max(total_second - total_mean**2, 0.0))),
    )
    return estimates


def _quadrature_nodes(dimension: int, points: int, truncation: float) -> np.ndarray:
    """Return clipped-standard-normal Sobol quadrature nodes.

    Unscrambled Sobol points — fully deterministic, no random state — mapped
    through the inverse normal CDF and clipped like every variation draw.
    """
    sampler = scipy_qmc.Sobol(d=dimension, scramble=False)
    unit = sampler.random(points)
    unit = np.clip(unit, np.finfo(float).tiny, 1.0 - np.finfo(float).epsneg)
    return np.clip(ndtri(unit), -truncation, truncation)


def _quadrature_moments(
    surrogates: dict[str, _Surrogate], nodes: np.ndarray
) -> dict[str, MomentEstimate]:
    """Integrate the surrogates (cross terms included) over the node set."""
    values = {}
    for name, surrogate in surrogates.items():
        if surrogate.zero:
            values[name] = np.zeros(nodes.shape[0])
            continue
        log_leakage = (
            surrogate.l0 + nodes @ surrogate.linear + nodes**2 @ surrogate.quadratic
        )
        for (i, j), coefficient in surrogate.interactions.items():
            log_leakage = log_leakage + coefficient * nodes[:, i] * nodes[:, j]
        values[name] = np.exp(log_leakage)
    values["total"] = sum(values[name] for name in surrogates)
    return {
        name: MomentEstimate(mean=float(sample.mean()), std=float(sample.std()))
        for name, sample in values.items()
    }


def propagate_loaded_inverter_moments(
    technology: TechnologyParams,
    spec: VariationSpec | None = None,
    input_value: int = 0,
    input_loads: int = 6,
    output_loads: int = 6,
    temperature_k: float | None = None,
    solver_options: SolverOptions | None = None,
    order: int = 2,
    stencil_sigma: float = DEFAULT_STENCIL_SIGMA,
    interaction_axes: int = DEFAULT_INTERACTION_AXES,
    quadrature_points: int = DEFAULT_QUADRATURE_POINTS,
) -> MomentsResult:
    """Propagate Fig. 10 population moments from a characterized response.

    Parameters mirror
    :func:`repro.variation.montecarlo.run_loaded_inverter_monte_carlo`;
    ``order`` selects first- (linearized lognormal) or second-order
    (quadratic-in-log, default) propagation, ``stencil_sigma`` the
    characterization stencil extent in sigma units (capped at the spec's
    truncation), ``interaction_axes`` how many of the strongest axes get
    pairwise cross terms (0 disables them and keeps the propagation in
    closed form), and ``quadrature_points`` the deterministic Sobol node
    count used when cross terms are present.  Every characterization solve
    must converge — a stalled point would poison the fit, so the solves run
    under ``on_nonconverged="raise"``.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if stencil_sigma <= 0.0:
        raise ValueError("stencil_sigma must be positive")
    if interaction_axes < 0:
        raise ValueError("interaction_axes must be non-negative")
    if quadrature_points < 2:
        raise ValueError("quadrature_points must be at least 2")
    task = build_sample_task(
        technology,
        spec=spec,
        input_value=input_value,
        input_loads=input_loads,
        output_loads=output_loads,
        temperature_k=temperature_k,
        solver_options=solver_options,
        on_nonconverged="raise",
    )
    transistor_names = _study_circuits(task)[3]
    axes = _axes(task, transistor_names)
    t_max = min(float(stencil_sigma), task.spec.truncation)
    ts = np.array([-t_max, -t_max / 2.0, t_max / 2.0, t_max])

    # Column 0 is the shared center; then one column per (axis, offset).
    columns: list[list[tuple[_Axis, float]]] = [[]]
    columns += [[(axis, float(t))] for axis in axes for t in ts]
    solved = _solve_parameter_sets(
        task, _parameter_columns(task, transistor_names, columns)
    )

    surrogates: dict[bool, dict[str, _Surrogate]] = {}
    for loaded in (True, False):
        values = _component_values(solved, loaded)
        stencils = values[:, 1:].reshape(len(_MECHANISMS), len(axes), ts.size)
        surrogates[loaded] = {}
        for index, component in enumerate(_MECHANISMS):
            surrogate = _fit_surrogate(
                float(values[index, 0]),
                stencils[index],
                ts,
                f"{component} ({'loaded' if loaded else 'unloaded'} structure)",
            )
            if order == 1:
                surrogate.quadratic = np.zeros_like(surrogate.quadratic)
            surrogates[loaded][component] = surrogate

    # Pairwise cross terms among the strongest axes (order 2 only): a
    # four-point 2-D probe per pair isolates the mixed second derivative
    # c_ij = (f++ - f+- - f-+ + f--) / (4 s^2) of each component's log
    # leakage.  Both structures reuse the same probe solves.
    pairs: list[tuple[int, int]] = []
    solve_columns = len(columns)
    if order == 2 and interaction_axes >= 2 and len(axes) >= 2:
        strength = np.max(
            [
                np.abs(table[component].linear)
                for table in surrogates.values()
                for component in _MECHANISMS
                if not table[component].zero
            ],
            axis=0,
        )
        top = np.argsort(-strength)[: min(interaction_axes, len(axes))]
        pairs = [(int(i), int(j)) for n, i in enumerate(top) for j in top[n + 1 :]]
        probes = [
            [(axes[i], si), (axes[j], sj)]
            for i, j in pairs
            for si, sj in ((t_max, t_max), (t_max, -t_max), (-t_max, t_max), (-t_max, -t_max))
        ]
        solve_columns += len(probes)
        probe_draws = _parameter_columns(task, transistor_names, probes)
        probe_values = {
            loaded: _component_values(_solve_parameter_sets(task, probe_draws), loaded)
            for loaded in (True, False)
        }
        for loaded in (True, False):
            for index, component in enumerate(_MECHANISMS):
                surrogate = surrogates[loaded][component]
                if surrogate.zero:
                    continue
                for n, (i, j) in enumerate(pairs):
                    quad = probe_values[loaded][index, 4 * n : 4 * n + 4]
                    if np.any(quad <= 0.0):
                        raise ValueError(
                            f"cannot fit the ({axes[i].name}, {axes[j].name}) "
                            f"cross term of {component}: non-positive leakage "
                            "on the interaction probe"
                        )
                    fpp, fpm, fmp, fmm = np.log(quad) - surrogate.l0
                    surrogate.interactions[(i, j)] = float(
                        (fpp - fpm - fmp + fmm) / (4.0 * t_max * t_max)
                    )

    result = MomentsResult(
        spec=task.spec,
        input_value=input_value,
        input_loads=input_loads,
        output_loads=output_loads,
        order=order,
        stencil_sigma=t_max,
        solve_count=2 * solve_columns,
        axis_count=len(axes),
        interaction_pairs=len(pairs),
        method="sobol-quadrature" if pairs else "closed-form",
    )
    nodes = (
        _quadrature_nodes(len(axes), quadrature_points, task.spec.truncation)
        if pairs
        else None
    )
    for loaded in (True, False):
        table = result.loaded if loaded else result.unloaded
        if nodes is not None:
            table.update(_quadrature_moments(surrogates[loaded], nodes))
        else:
            table.update(
                _closed_form_moments(surrogates[loaded], task.spec.truncation)
            )
    return result
