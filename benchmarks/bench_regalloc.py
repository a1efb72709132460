"""Extension experiment: register traffic before/after inlining.

The paper's §1.1 argues hardware register windows and inter-procedural
allocation exist to absorb call-boundary register traffic, and that
"if most of the function calls can be eliminated, these complicated
remedies would be unnecessary". Reproduced with a graph-coloring
allocator: profile-weighted save/restore events collapse after
inlining, while spill events stay negligible — total register memory
traffic drops sharply at every register-file size.
"""

from conftest import emit
from repro.experiments.extensions import measure_compress
from repro.regalloc import pressure_experiment


def _run_experiment():
    module, _specs, measured = measure_compress("small")
    return pressure_experiment(module, measured, ks=(4, 8, 16))


def bench_regalloc(benchmark):
    results = benchmark.pedantic(_run_experiment, iterations=1, rounds=1)

    lines = ["K    save/restore before->after      spills before->after"]
    for k, before, after in results:
        lines.append(
            f"{k:<4d} {before.save_restore_events:12.0f} -> {after.save_restore_events:10.0f}"
            f"   {before.spill_events:8.0f} -> {after.spill_events:8.0f}"
        )
    emit("Register memory traffic before/after inlining (compress)", "\n".join(lines))

    for k, before, after in results:
        # Call-boundary traffic collapses with the calls...
        assert after.save_restore_events < 0.5 * before.save_restore_events
        # ...and the pressure increase does not eat the win.
        assert after.total_memory_events < before.total_memory_events
