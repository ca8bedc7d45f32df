"""Integration-level tests for the XD1000 full-system model."""

import pytest

from repro.api import LanguageIdentifier
from repro.system.throughput import ThroughputReport, mb_per_second
from repro.system.xd1000 import XD1000System


@pytest.fixture(scope="module")
def system(profiles):
    machine = XD1000System(m_bits=16 * 1024, k=4, t=1500, seed=2)
    machine.program_profiles(profiles)
    return machine


class TestConfiguration:
    def test_eight_ngrams_per_clock(self, system):
        assert system.ngrams_per_clock == 8

    def test_frequency_from_resource_model(self, system):
        assert 150 <= system.frequency_mhz() <= 210

    def test_frequency_override(self, profiles):
        machine = XD1000System(frequency_mhz=123.0)
        assert machine.frequency_mhz() == 123.0

    def test_engine_peak_exceeds_link_bandwidth(self, system):
        # the engine's 1.4+ GB/s peak is not the bottleneck; the 500 MB/s link is
        assert system.engine_timing().peak_mb_per_second > 1000


class TestRuns:
    def test_run_requires_profiles(self):
        with pytest.raises(RuntimeError):
            XD1000System().classify_corpus(None)

    def test_predictions_equal_same_config_identifier(self, system, profiles, test_corpus):
        identifier = LanguageIdentifier(m_bits=16 * 1024, k=4, t=1500, seed=2)
        expected = identifier.train_profiles(profiles).classify_batch(
            document.text for document in test_corpus
        )
        report = system.classify_corpus(test_corpus, driver="asynchronous")
        predicted = [outcome.predicted_language for outcome in report.outcomes]
        assert predicted == [result.language for result in expected]

    def test_async_run(self, system, test_corpus):
        report = system.classify_corpus(test_corpus, driver="asynchronous")
        assert report.n_documents == len(test_corpus)
        assert report.accuracy > 0.9
        assert 0 < report.throughput_mb_s <= 500

    def test_sync_slower_than_async(self, system, test_corpus):
        sync = system.classify_corpus(test_corpus, driver="synchronous", classify_functionally=False)
        asynchronous = system.classify_corpus(
            test_corpus, driver="asynchronous", classify_functionally=False
        )
        assert sync.throughput_mb_s < asynchronous.throughput_mb_s

    def test_programming_time_reduces_effective_throughput(self, system, test_corpus):
        report = system.classify_corpus(test_corpus, driver="asynchronous")
        assert report.throughput_with_programming_mb_s < report.throughput_mb_s

    def test_invalid_driver_name(self, system, test_corpus):
        with pytest.raises(ValueError):
            system.classify_corpus(test_corpus, driver="turbo")

    def test_timing_only_run_skips_classification(self, system, test_corpus):
        report = system.classify_corpus(test_corpus, driver="asynchronous", classify_functionally=False)
        assert report.accuracy == 0.0
        assert report.throughput_mb_s > 0

    def test_throughput_for_sizes_matches_paper_scale(self, system):
        # the paper's pooled corpus: 52,581 documents, 484 MB
        sizes = [9206] * 5000
        report = system.throughput_for_sizes(sizes, driver="asynchronous")
        assert report.throughput_mb_s == pytest.approx(470, rel=0.05)
        sync_report = system.throughput_for_sizes(sizes, driver="synchronous")
        assert sync_report.throughput_mb_s == pytest.approx(228, rel=0.06)


class TestThroughputReport:
    def test_mb_per_second(self):
        assert mb_per_second(500_000_000, 1.0) == pytest.approx(500.0)

    def test_mb_per_second_invalid(self):
        with pytest.raises(ValueError):
            mb_per_second(100, 0.0)
        with pytest.raises(ValueError):
            mb_per_second(-1, 1.0)

    def test_programming_accounting(self):
        report = ThroughputReport(total_bytes=484_000_000, streaming_seconds=1.03, programming_seconds=0.25)
        assert report.throughput_mb_s == pytest.approx(470, rel=0.01)
        assert report.throughput_with_programming_mb_s == pytest.approx(378, rel=0.01)

    def test_scaled(self):
        report = ThroughputReport(total_bytes=1000, streaming_seconds=1.0, programming_seconds=0.5)
        bigger = report.scaled(10)
        assert bigger.total_bytes == 10_000
        assert bigger.throughput_mb_s == pytest.approx(report.throughput_mb_s)
        assert bigger.throughput_with_programming_mb_s > report.throughput_with_programming_mb_s

    def test_scaled_invalid(self):
        with pytest.raises(ValueError):
            ThroughputReport(1000, 1.0).scaled(0)
