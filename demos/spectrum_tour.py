"""Sweep the pair witnesses across the analysis band and summarise.

Runs the calibration first so the sweep uses the recorded scales, then
prints a dip/plateau table for every reported pair and writes the full
spectrum next to this script as spectrum_tour.csv.
"""

import os

from eitfwm import cli, sweeps
from eitfwm.params import reference_params


def main():
    art = cli.calibrate(cli.RunConfig(params=reference_params()))
    p = reference_params().with_(
        coupling_scale=art["coupling_scale"],
        spinwave_scale=art["spinwave_scale"])
    print(f"calibrated coupling_scale = {art['coupling_scale']:.6f}, "
          f"spinwave_scale = {art['spinwave_scale']:.6f}")

    grid = sweeps.fig_spectrum_grid(p)
    spec = sweeps.sweep_omega(p, grid)
    window = (p.delta1 - 300.0, p.delta1 + 300.0)

    print(f"{'pair':10s} {'min V':>10s} {'at omega':>10s} "
          f"{'shape':>9s} {'plateau':>10s}")
    for pair in spec.pairs:
        rep = sweeps.find_dip(spec, pair, window)
        tag = rep.degenerate or "interior"
        print(f"{pair[0]}-{pair[1]:7s} {rep.v_min:10.4f} "
              f"{rep.omega_star:10.1f} {tag:>9s} "
              f"{rep.plateau_median:10.4f}")

    out = os.path.join(os.path.dirname(__file__), "spectrum_tour.csv")
    sweeps.write_text(sweeps.csv_lines(spec), out)
    print(f"wrote {len(grid)} grid points to {out}")


if __name__ == "__main__":
    main()
