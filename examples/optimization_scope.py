#!/usr/bin/env python3
"""The paper's §1 motivation, measured: what inlining buys the optimizer.

Three instruments on one program:

1. LICM — the callee's invariant arithmetic becomes hoistable only
   after it is spliced into the caller's loop (§1.2's "enlarged scope");
2. register traffic — call-boundary save/restores collapse (§1.1's
   argument against register windows);
3. instruction cache — locality becomes internal to the merged function
   (§5's mapping-conflict claim).

Run with ``python examples/optimization_scope.py``.
"""

from repro import RunSpec, compile_program, run_once
from repro.experiments.extensions import measure_extension
from repro.icache import icache_experiment
from repro.opt import licm_module, optimize_module
from repro.profiler.profile import Observation
from repro.regalloc import pressure_experiment

SOURCE = """
#include <sys.h>

int weights[16];

/* The scale*12+3 is invariant in the caller's loop — but only an
   inlined copy can be hoisted out of it. */
int score(int value, int scale)
{
    int factor = scale * 12 + 3;
    return value * factor + weights[value & 15];
}

int main(void)
{
    int scale = getchar() + 2;
    int i;
    int total = 0;
    for (i = 0; i < 16; i++)
        weights[i] = i * i;
    for (i = 0; i < 400; i++)
        total += score(i, scale);
    print_int(total);
    putchar('\\n');
    return 0;
}
"""


def main() -> None:
    spec = RunSpec(stdin=b"\x05")
    module = compile_program(SOURCE)
    optimize_module(module)
    # Profile, inline (then optimize), re-profile and compare outputs:
    # one measurement, which all three instruments read.
    measured = measure_extension(module, [spec], name="score")

    # 1. LICM before vs. after inlining. The original's and the inlined
    # module's counts are their profiles' totals; the LICM variants run
    # once each and must print what the original printed.
    hoisted = []
    for variant in (module.clone(), measured.inline.module.clone()):
        licm_module(variant)
        optimize_module(variant)
        hoisted.append(run_once(variant, spec))
    assert all(
        Observation.of(result) == measured.profile.observations[0]
        for result in hoisted
    )
    output = hoisted[0].stdout.strip()
    base_il = measured.profile.total.il
    for label, counters in (
        ("original", measured.profile.total),
        ("original + LICM", hoisted[0].counters),
        ("inlined", measured.post_profile.total),
        ("inlined + LICM", hoisted[1].counters),
    ):
        print(f"{label:18s} {counters.il:6d} ILs "
              f"({counters.il / base_il:.2f}x), "
              f"{counters.calls:4d} calls -> {output}")

    # 2. Register traffic at K=8.
    [(k, before, after)] = pressure_experiment(module, measured, ks=(8,))
    print(f"\nregister traffic (K={k}): save/restore "
          f"{before.save_restore_events:.0f} -> {after.save_restore_events:.0f}, "
          f"spill events {before.spill_events:.0f} -> {after.spill_events:.0f}")

    # 3. Instruction cache under a scattered layout.
    [point] = icache_experiment(module, [spec], measured, configs=[(512, 16, 1)])
    print(f"icache 512B direct-mapped: miss {point.miss_before:.4f} -> "
          f"{point.miss_after:.4f} ({point.improvement:+.0%})")


if __name__ == "__main__":
    main()
