import math

import numpy as np
import pytest

from capbias.classifier import ClassifierConfig
from capbias.corpus import CorpusError
from capbias.lic import (
    MetricReport,
    ProtocolConfig,
    derive_seed,
    leakage,
    lic,
    lic_component,
    run_protocol,
    sc_accuracy,
)
from capbias.synth import SynthSpec, generate_pair


def constant_rows(probs, n):
    """The confidence rows of a classifier that outputs `probs` for each of
    n captions."""
    return np.tile(np.asarray(probs, dtype=np.float64), (n, 1))


class TestArithmetic:
    def test_lic_difference(self):
        assert lic(49.3, 44.0) == pytest.approx(5.3)

    def test_leakage_difference(self):
        assert leakage(0.93, 0.88) == pytest.approx(0.05)

    def test_derive_seed_deterministic(self):
        assert derive_seed(7, 3) == derive_seed(7, 3)
        assert derive_seed(7, 3) != derive_seed(7, 4)
        assert derive_seed(8, 3) != derive_seed(7, 3)
        assert 0 <= derive_seed(0, 0) < 2 ** 64


class TestLicComponent:
    def test_constant_three_class(self):
        probs = constant_rows([0.34, 0.33, 0.33], 10)
        labels = [0] * 10
        # always predicts class 0 with confidence 0.34, always correct
        assert lic_component(probs, labels) == pytest.approx(34.0, abs=1e-9)

    def test_constant_wrong_class_scores_zero(self):
        probs = constant_rows([0.9, 0.1], 2)
        assert lic_component(probs, [1, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_saturated_correct(self):
        probs = constant_rows([1 - 1e-12, 1e-12], 1)
        assert lic_component(probs, [0]) == pytest.approx(100.0, abs=1e-6)

    def test_mixed_labels(self):
        probs = constant_rows([0.8, 0.2], 4)
        # half the labels correct (conf 0.8), half wrong (contribute 0)
        out = lic_component(probs, [0, 1, 0, 1])
        assert out == pytest.approx(40.0, abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(CorpusError):
            lic_component(constant_rows([0.5, 0.5], 0), [])


class TestScAccuracy:
    def test_constant_predictor(self):
        probs = constant_rows([0.7, 0.3], 4)
        assert sc_accuracy(probs, [0, 0, 1, 1]) == pytest.approx(0.5)


class TestMetricReport:
    def test_mean_and_sample_std(self):
        report = MetricReport.from_samples("x", [1.0, 2.0, 3.0], {})
        assert report.mean == pytest.approx(2.0)
        assert report.std == pytest.approx(1.0)  # sample (n-1) convention

    def test_single_seed_flagged(self, caplog):
        with caplog.at_level("WARNING"):
            report = MetricReport.from_samples("x", [4.2], {})
        assert report.std is None
        assert math.isclose(report.mean, 4.2)
        assert any("single seed" in m for m in caplog.messages)


@pytest.fixture(scope="module")
def small_pair():
    human = SynthSpec(n_images=200, marker_probability=0.6, seed=11)
    generated = SynthSpec(n_images=200, marker_probability=0.95, seed=22)
    return generate_pair(human, generated)


def small_protocol(n_seeds=2):
    return ProtocolConfig(
        n_seeds=n_seeds,
        classifier=ClassifierConfig(
            embed_dim=16, hidden_dim=16, epochs=4, learning_rate=0.005
        ),
        test_fraction=0.1,
    )


class TestRunProtocol:
    def test_report_structure(self, small_pair):
        human, generated = small_pair
        reports = run_protocol(human, generated, small_protocol(), master_seed=3)
        assert set(reports) == {"lic_d", "lic_m", "lic", "sc", "leakage"}
        for report in reports.values():
            assert len(report.per_seed) == 2
            assert report.std is not None
        assert reports["lic"].mean == pytest.approx(
            reports["lic_m"].mean - reports["lic_d"].mean, abs=1e-9
        )
        assert 0.0 <= reports["sc"].mean <= 1.0
        assert reports["lic_m"].provenance["scale"] == "x100"

    def test_deterministic(self, small_pair):
        human, generated = small_pair
        a = run_protocol(human, generated, small_protocol(), master_seed=5)
        b = run_protocol(human, generated, small_protocol(), master_seed=5)
        for name in a:
            assert a[name].per_seed == b[name].per_seed

    def test_master_seed_changes_runs(self, small_pair):
        human, generated = small_pair
        a = run_protocol(human, generated, small_protocol(), master_seed=5)
        b = run_protocol(human, generated, small_protocol(), master_seed=6)
        assert a["lic_m"].per_seed != b["lic_m"].per_seed

    def test_mismatched_specs_rejected(self, small_pair):
        human, _ = small_pair
        other = SynthSpec(n_images=200, marker_probability=0.6,
                          values=("a", "b"),
                          marker_words={"a": ("umbrella",), "b": ("skateboard",)})
        from capbias.synth import generate
        with pytest.raises(CorpusError):
            run_protocol(human, generate(other), small_protocol())

    def test_single_seed_reports_no_std(self, small_pair):
        human, generated = small_pair
        reports = run_protocol(human, generated, small_protocol(n_seeds=1))
        assert reports["lic"].std is None
        assert len(reports["lic"].per_seed) == 1
