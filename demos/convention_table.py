"""Compare the pair witness under every drift-convention combination.

Two switches exist because the linearised equations admit two readings:
the pair coupling can convert a mode into its partner directly
(as_printed) or into the daggered partner (parametric), and the
daggered rows can be evaluated at the mirrored frequency or at the same
one.  Only parametric/mirrored produces the anomalous correlations a
pair witness can see, which is why it is the executed default.  The
same-frequency bookkeeping develops runaway broadband gain away from
the pump detunings; those cells print as "overflow".
"""

from eitfwm.params import reference_params
from eitfwm.verification import convention_comparison


def main():
    table = convention_comparison(reference_params())
    freqs = sorted(next(iter(table.values())))
    head = "".join(f"{f:>14.0f}" for f in freqs)
    print(f"{'coupling/sideband':24s}{head}   (omega, MHz)")
    for key in sorted(table):
        cells = ""
        for f in freqs:
            v = table[key][f]
            cells += f"{v:14.4f}" if isinstance(v, float) else f"{v:>14s}"
        print(f"{key:24s}{cells}")
    print()
    print("witness values are V(a1, b1) of the bare field pair;"
          " entanglement needs V < 4")


if __name__ == "__main__":
    main()
