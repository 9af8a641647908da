#!/usr/bin/env python3
"""Accuracy of the barrier tail probe's partials against a fine reference.

    PYTHONPATH=src python scripts/barrier_accuracy.py

The cases are p in {1.6, 2, 2.5, 3}, N in {3, 4, 5} and four pairs (a, h); a case
counts when the reference probe converges.  The reference is the second-order
kernel (``RadialKernel`` without ``fourth_order``) at 16384 intervals per octave.
For each rule the error of a case is the worst relative error of its partials
A_j(r_start 2^k) - A_j(r_start); the table gives the median and the largest over
the cases, and the count of cases where the rule errs more than the second-order
kernel at 1024 per octave.
"""

import statistics

from radsolve.quadrature import ProbeConfig, probe_block, probe_divergence
from radsolve.transforms import ProblemSpec, RadialKernel

PS = (1.6, 2.0, 2.5, 3.0)
NS = (3, 4, 5)
AH = (("(1+r)^(-4)", "0"), ("exp(-r)", "0.3/(1+r)"), ("(1+r)^(-3)", "0.1"),
      ("2*(1+r)^(-5)", "1/(1+r)"))
REFERENCE = (16384, False)
RULES = {"second order at 1024": (1024, False), "second order at 256": (256, False),
         "fourth order at 256": (256, True)}


def probe(spec: ProblemSpec, n: int, fourth_order: bool):
    """The barrier probe of component 0 at ``n`` intervals per octave."""
    cfg = ProbeConfig(nodes_per_octave=n)
    kernel = RadialKernel(spec, 0, probe_block(0.0, cfg), fourth_order=fourth_order)
    return probe_divergence(kernel.ratio(), "", cfg, 0.0)


def main() -> None:
    errors = {name: [] for name in RULES}
    for p in PS:
        for N in NS:
            for a, h in AH:
                spec = ProblemSpec.from_strings(N, 1, p, h, a, "u1")
                ref = probe(spec, *REFERENCE)
                if ref.verdict != "converges":
                    continue
                for name, rule in RULES.items():
                    got = probe(spec, *rule).partials
                    errors[name].append(max(abs(x - y) / abs(y) for x, y in zip(got, ref.partials)))
    base = errors["second order at 1024"]
    print(f"{len(base)} convergent cases; reference: second order at {REFERENCE[0]} per octave")
    print("| rule | median | max | worse than second order at 1024 |")
    print("|---|---|---|---|")
    for name, errs in errors.items():
        worse = sum(e > b for e, b in zip(errs, base))
        print(f"| {name} | {statistics.median(errs):.2g} | {max(errs):.2g} | {worse} |")


if __name__ == "__main__":
    main()
