"""One variational-closure job, driven through the public API.

Builds the perturbed plane wave that a schema-valid ``fisher`` config
describes, then computes the expanded residuals, the numerical functional
derivatives with respect to S and to rho0, and the action functional of
both kinds. Everything the closure check needs goes to ``closure.npz``.

    python bench/variational_job.py --config CONFIG.json --out DIR

Exit status: 0 written, 2 the config failed schema validation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from dirachydro import cli, fisher, hydro
from dirachydro.fields import provider_from_config
from dirachydro.grids import GridSpec
from dirachydro.manufactured import perturbed_plane_wave_fields


def run_job(config, out_dir):
    """Compute and write the closure artifact for a validated config."""
    grid = config["grid"]
    spec = GridSpec(active_axes=tuple(grid["active_axes"]), shape=tuple(grid["shape"]),
                    spacing=tuple(grid["spacing"]))
    block = dict(config["configuration"])
    del block["type"]
    fields = perturbed_plane_wave_fields(spec, config["seed"], **block)
    provider = provider_from_config(config["fields"])
    depth = config["fisher"]["depth"]

    residuals = hydro.second_order_residuals_expanded(fields, provider)
    d_s = fisher.functional_derivative(fields, provider, wrt="S")
    d_rho0 = fisher.functional_derivative(fields, provider, wrt="rho0")
    actions = {kind: fisher.action_functional(fields, provider, kind=kind, depth=depth).total
               for kind in ("particle", "antiparticle")}

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    np.savez(out_dir / "closure.npz", dA_dS=d_s, dA_drho0=d_rho0,
             continuity=residuals.continuity, qhj=residuals.qhj,
             action_particle=actions["particle"], action_antiparticle=actions["antiparticle"])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    config = json.loads(Path(args.config).read_text(encoding="utf-8"))
    problems = cli.validate_config(config)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 2
    run_job(config, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
