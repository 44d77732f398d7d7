"""Cross-module integration tests on the real workload profiles.

These use reduced traces of the actual calibrated workloads and check
the paper's core qualitative claims end to end.
"""

import pytest

from repro.core.metrics import frontend_stall_coverage, speedup
from repro.core.sweep import run_spec
from repro.experiments.spec import RunSpec
from repro.workloads.analysis import btb_mpki, region_access_distribution
from repro.workloads.profiles import build_trace

#: Reduced trace length for integration tests: long enough for stable
#: relationships, short enough to keep the suite fast.
N_BLOCKS = 12_000


@pytest.fixture(scope="module")
def oltp_results():
    return {
        scheme: run_spec(RunSpec(workload="db2", scheme=scheme,
                                 n_blocks=N_BLOCKS))
        for scheme in ("baseline", "ideal", "boomerang", "confluence",
                       "shotgun")
    }


class TestPaperHeadlines:
    def test_shotgun_beats_boomerang_on_oltp(self, oltp_results):
        """The paper's headline: Shotgun outperforms the state-of-the-art
        BTB-directed prefetcher on large-footprint workloads."""
        base = oltp_results["baseline"]
        assert speedup(base, oltp_results["shotgun"]) \
            > speedup(base, oltp_results["boomerang"])

    def test_shotgun_covers_more_stalls_than_boomerang(self, oltp_results):
        base = oltp_results["baseline"]
        assert frontend_stall_coverage(base, oltp_results["shotgun"]) \
            > frontend_stall_coverage(base, oltp_results["boomerang"])

    def test_everything_below_ideal(self, oltp_results):
        ideal = oltp_results["ideal"].cycles
        for name in ("baseline", "boomerang", "confluence", "shotgun"):
            assert oltp_results[name].cycles >= ideal

    def test_shotgun_reduces_l1i_stalls_most(self, oltp_results):
        """Bulk footprint prefetching slashes L1-I stall cycles below
        Boomerang's serial per-block prefetching."""
        assert oltp_results["shotgun"].stats.stall_l1i \
            < oltp_results["boomerang"].stats.stall_l1i


class TestWorkloadCharacterisation:
    def test_mpki_ordering_matches_table1(self):
        oracle = btb_mpki(build_trace("oracle", N_BLOCKS))
        nutch = btb_mpki(build_trace("nutch", N_BLOCKS))
        zeus = btb_mpki(build_trace("zeus", N_BLOCKS))
        assert oracle > zeus > nutch

    def test_spatial_locality_universal(self):
        for workload in ("nutch", "oracle"):
            cdf = region_access_distribution(
                build_trace(workload, N_BLOCKS)
            )
            assert cdf[10] > 0.85


class TestStorageParity:
    def test_shotgun_fits_boomerang_budget(self, oltp_results):
        """Section 5.2: Shotgun's three BTBs fit in (approximately) the
        storage of Boomerang's 2K-entry BTB."""
        from repro.config import MicroarchParams
        from repro.prefetch.factory import build_scheme
        from repro.workloads.profiles import build_program

        params = MicroarchParams()
        generated = build_program("db2")
        shotgun = build_scheme("shotgun", params, generated)
        boomerang = build_scheme("boomerang", params, generated)
        ratio = shotgun.storage_bits() / boomerang.storage_bits()
        assert ratio < 1.03
