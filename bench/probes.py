"""Fixed-input probes of single layers, run by every traced run.

The Monte Carlo probes call the simulate functions directly, with the
backend forced where one is named, on layers of the preset instances. The
exact and moments probes give the simulate.exact, moments.report and
core.overlap layers work on workloads whose passes do not reach them.
"""

from __future__ import annotations

from monoplex import cli
from monoplex.core import new_hypergraph, new_multiplex
from monoplex.families import ap_hypergraph, appendix_star_hypergraph, appendix_three_multiplex
from monoplex.moments import variance_T
from monoplex.simulate import (
    exact_law,
    new_simulation_config,
    simulate_ap_T,
    simulate_correlated_er_T,
    simulate_T,
    simulate_W,
)

import checks

PROBE_REPLICATES = 8192
CHECK_REPLICATES = 1024


def _preset_instance(name: str, n: int):
    spec = cli.preset_spec(name)
    built = cli.build_scenario(spec, n)
    return built, cli.resolve_colors(spec.c_rule, built)


class ProbeInputs:
    """The probe layers, built once per run outside any timed span."""

    def __init__(self) -> None:
        self.k200 = new_multiplex([appendix_three_multiplex(200, 0.2, "nested").layers[0]])
        self.k400 = new_multiplex([appendix_three_multiplex(400, 0.2, "nested").layers[0]])
        self.edgeless = new_multiplex([new_hypergraph(2, self.k200.num_vertices, [])])
        self.star = new_multiplex([appendix_star_hypergraph(500)])
        weighted, self.weighted_c = _preset_instance("weighted", 500)
        self.weighted = weighted.weighted
        corr_er, self.corr_er_c = _preset_instance("corr-er", 300)
        self.er_params = corr_er.er_params
        self.ap10 = new_multiplex([ap_hypergraph(range(1, 11), 3)])
        self.star200 = appendix_star_hypergraph(200)

    def monte_carlo(self):
        """(label, c, call(cfg)) per Monte Carlo probe."""
        return (
            ("floor", 40000, lambda cfg: simulate_T(self.edgeless, cfg)),
            ("ap", 1000, lambda cfg: simulate_ap_T(1000, 3, cfg)),
            ("dense", 40000, lambda cfg: simulate_T(self.k200, cfg, backend="dense")),
            ("pair_class", 40000, lambda cfg: simulate_T(self.k200, cfg, backend="pair-class")),
            ("pair_class_wide", 160000, lambda cfg: simulate_T(self.k400, cfg, backend="pair-class")),
            ("leading_pair", 500, lambda cfg: simulate_T(self.star, cfg, backend="leading-pair")),
            ("weighted", self.weighted_c, lambda cfg: simulate_W(self.weighted, cfg)),
            ("corr_er", self.corr_er_c, lambda cfg: simulate_correlated_er_T(self.er_params, cfg)),
        )


def run_probes(tracer, inputs: ProbeInputs, seed: int) -> None:
    """Run every probe once under tracer spans. Backend agreement on the
    probe layers is checked by check_backends."""
    for label, c, call in inputs.monte_carlo():
        cfg = new_simulation_config(c, PROBE_REPLICATES, seed)
        with tracer.span("simulate.mc", PROBE_REPLICATES, label):
            call(cfg)
    with tracer.span("simulate.exact", 3**10, "exact"):
        exact_law(inputs.ap10, 3)
    with tracer.span("moments.report", 0, "moments"):
        variance_T(inputs.star200, 200, rational=True)


def check_backends(inputs: ProbeInputs, seed: int) -> None:
    """Every backend a probe layer admits gives the same law as the others
    under one config, as the simulate module documents."""
    cases = (
        ("K200 c=40000", 40000, lambda cfg, b: simulate_T(inputs.k200, cfg, backend=b), ("auto", "dense", "pair-class")),
        ("K400 c=160000", 160000, lambda cfg, b: simulate_T(inputs.k400, cfg, backend=b), ("auto", "dense", "pair-class")),
        ("star n=500", 500, lambda cfg, b: simulate_T(inputs.star, cfg, backend=b), ("auto", "dense", "leading-pair")),
        ("weighted-blocks n=500", inputs.weighted_c, lambda cfg, b: simulate_W(inputs.weighted, cfg, backend=b),
         ("auto", "dense", "leading-pair")),
    )
    for name, c, call, backends in cases:
        cfg = new_simulation_config(c, CHECK_REPLICATES, seed)
        laws = {b: call(cfg, b).law.pmf for b in backends}
        for b in backends[1:]:
            checks.check_same_law(laws[backends[0]], laws[b], f"{name}: {backends[0]} vs {b}")
