#!/usr/bin/env python3
"""A narrated run of the blow-up decomposition through the Python API.

Builds the blow-up surface of the plane at the origin, the graph
correspondence of the blow-down and its transpose, composes them in both
directions, and prints the main terms, the error support, and the audit.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from cyclecalc import (  # noqa: E402
    GraphData,
    Morphism,
    PrimeComponent,
    Space,
    SupportFamily,
    affine,
    closed_set,
    compose_localized,
    graph_correspondence,
    proj,
    whole_space,
)


def main() -> int:
    Xt_space = Space([affine("x", "y"), proj("u", "v")])
    Y_space = Space([affine("a", "b")])
    RX, RY = Xt_space.ring, Y_space.ring

    surface = closed_set(Xt_space, RX.var("x") * RX.var("v") - RX.var("y") * RX.var("u"))
    Xt = PrimeComponent(surface, "Xt", screen=False)
    Yv = PrimeComponent(whole_space(Y_space), "Y", screen=False)
    print(f"blow-up surface: {surface!r}, dim {surface.dim}")

    blow_down = Morphism(Xt_space, Y_space, [(RX.var("x"), RX.var("y"))])
    section = Morphism(Y_space, Xt_space, [(RY.var("a"), RY.var("b")), (RY.var("a"), RY.var("b"))])
    print(f"rational inverse has base locus: {section.base_locus()!r}")

    Z = graph_correspondence(
        blow_down, Xt, SupportFamily.full(Xt_space), Yv, SupportFamily.full(Y_space)
    )
    (zc,) = Z.cycle.terms
    Z.attach_graph(zc, GraphData("transpose", section))
    Zt = Z.transpose()

    down = compose_localized(Zt, Z)
    print(f"\n[Z] o [Z^t] downstairs: main = {down.main!r}")
    print(f"  error support: {down.error_support!r}")

    E = closed_set(Xt_space, RX.var("x"), RX.var("y"))
    up = compose_localized(
        Z, Zt, hint=E,
        witnesses=[{"x@1": 1, "y@1": 0, "u@1": 1, "v@1": 0,
                    "x@2": 1, "y@2": 0, "u@2": 1, "v@2": 0}],
    )
    print(f"\n[Z^t] o [Z] upstairs: main = {up.main!r}")
    print(f"  supp(a,b):     {up.supp!r}")
    print(f"  error support: {up.error_support!r}")
    print(f"  codim certificates: {up.error_codim_certificates()}")
    for key, mode in up.audit["modes"].items():
        print(f"  route {key}: {mode}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
