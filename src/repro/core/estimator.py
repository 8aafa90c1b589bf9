"""Loading-aware circuit leakage estimation (the paper's Fig. 13 algorithm).

Given a gate-level circuit, a primary-input assignment and a characterized
:class:`~repro.gates.characterize.GateLibrary`, the estimator:

1. topologically sorts the gates and propagates logic values;
2. computes, for every net, the summed signed gate-tunneling current its
   receiver pins inject (from the characterized per-pin injection values);
3. for every gate, turns those per-net sums into per-pin loading currents
   (input loading excludes the gate's own pins; primary-input nets are ideal
   and carry no loading) and looks up the characterized leakage response;
4. accumulates per-gate and per-component totals.

The cost is one LUT lookup per pin — linear in circuit size — which is where
the ~1000x advantage over the transistor-level reference solve comes from.
The one-level-propagation assumption of the paper (loading does not
meaningfully propagate across more than one logic level) is what makes step 2
possible with nominal (unloaded) pin-injection values.

The compiled campaign engine (:mod:`repro.engine`) runs these steps as
array passes over a whole vector set; :meth:`LoadingAwareEstimator.estimate`
answers one vector as a one-vector engine pass.  The gate-by-gate walk is
the test oracle :class:`repro.oracle.PerGateEstimator`.
"""

from __future__ import annotations

from repro.circuit.netlist import Circuit
from repro.core.report import CircuitLeakageReport
from repro.gates.characterize import GateLibrary


class LoadingAwareEstimator:
    """Circuit leakage estimator that accounts for the loading effect.

    Parameters
    ----------
    library:
        Characterized gate library (fixes the technology and temperature).
    include_loading:
        When False the estimator degenerates to the traditional accumulation
        of unloaded gate leakages; :class:`~repro.core.baseline.NoLoadingEstimator`
        is a thin wrapper over this flag.
    """

    method_name = "loading-aware"

    def __init__(self, library: GateLibrary, include_loading: bool = True) -> None:
        self.library = library
        self.include_loading = include_loading

    def estimate(
        self, circuit: Circuit, input_assignment: dict[str, int]
    ) -> CircuitLeakageReport:
        """Return the leakage report of ``circuit`` under ``input_assignment``.

        One engine pass over a one-vector campaign
        (:func:`repro.core.vectors.run_vector_campaign`).
        """
        # core.vectors imports this module, so the import waits for the call.
        from repro.core.vectors import run_vector_campaign

        return run_vector_campaign(self, circuit, [input_assignment]).reports[0]
