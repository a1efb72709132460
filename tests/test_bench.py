"""The counts a suite run produces do not depend on its worker count."""

from repro.experiments.pipeline import RunConfig, run_suite


def _counts(results) -> dict:
    """Each program's pre-/post-inline totals, code sizes and expansions."""
    return {
        result.name: {
            "counters": result.profile.total.to_summary(),
            "post_counters": result.post_profile.total.to_summary(),
            "code_size_before": result.inline.original_size,
            "code_size_after": result.inline.final_size,
            "expansions": len(result.inline.records),
        }
        for result in results
    }


class TestBenchRecord:
    def test_jobs2_counts_match_serial(self):
        serial = _counts(run_suite(RunConfig(names=["wc", "tee"])))
        parallel = _counts(run_suite(RunConfig(names=["wc", "tee"], jobs=2)))
        assert set(serial) == {"wc", "tee"}
        assert parallel == serial
