import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from driverlens.chart import emit_chart, render_chart_svg
from driverlens.config import config_from_dict
from driverlens.data import encode, load_csv
from driverlens.errors import ConfigError
from driverlens.models import ModelSpec, train
from driverlens.selection import FeatureRanking
from driverlens.synth import SynthSpec, class_priors, dump_csv, synth_generate


class TestSynthGenerate:
    def test_three_class_counts(self):
        data = synth_generate(SynthSpec(n_rows=1000, seed=0))
        assert np.bincount(data.y).tolist() == [500, 300, 200]
        assert data.classes == ("aggressive", "normal", "vague")

    def test_shape_and_schema(self):
        spec = SynthSpec(n_rows=120, n_classes=3, n_features=6, n_informative=2,
                         seed=1)
        data = synth_generate(spec)
        assert data.X.shape == (120, 6)
        assert data.feature_names() == [f"f{j:02d}" for j in range(6)]

    def test_deterministic(self):
        a = synth_generate(SynthSpec(n_rows=200, seed=5))
        b = synth_generate(SynthSpec(n_rows=200, seed=5))
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.y, b.y)

    def test_zero_separation_is_uninformative(self):
        spec = SynthSpec(n_rows=900, n_features=6, n_informative=3,
                         separation=0.0, seed=2)
        data = synth_generate(spec)
        model = train(ModelSpec("GNB", {}, 0), data.X, data.y)
        accuracy = (model.predict(data.X) == data.y).mean()
        # no signal: roughly the majority-class rate, far below separable
        assert abs(accuracy - 0.5) < 0.12

    def test_separated_classes_learnable(self):
        spec = SynthSpec(n_rows=900, n_features=6, n_informative=3,
                         separation=3.0, seed=3)
        data = synth_generate(spec)
        model = train(ModelSpec("GNB", {}, 0), data.X, data.y)
        assert (model.predict(data.X) == data.y).mean() > 0.95

    def test_noise_features_are_class_independent(self):
        spec = SynthSpec(n_rows=4000, n_features=6, n_informative=2,
                         separation=4.0, seed=4)
        data = synth_generate(spec)
        for j in range(2, 6):
            means = [data.X[data.y == c, j].mean() for c in range(3)]
            assert max(means) - min(means) < 0.2

    def test_priors_general_c(self):
        assert class_priors(3).tolist() == [0.5, 0.3, 0.2]
        p4 = class_priors(4)
        assert p4.tolist() == [0.4, 0.3, 0.2, 0.1]

    def test_invalid_specs(self):
        with pytest.raises(ConfigError):
            SynthSpec(n_classes=1)
        with pytest.raises(ConfigError):
            SynthSpec(n_informative=20, n_features=10)
        with pytest.raises(ConfigError):
            SynthSpec(n_rows=5, n_classes=3)

    def test_spec_that_empties_a_class_is_rejected_up_front(self):
        # 15 classes have priors 15/120 .. 1/120: at 63 rows the smallest
        # class rounds to 0 rows, at 64 it keeps one
        assert SynthSpec(n_rows=64, n_classes=15).class_counts().min() == 1
        with pytest.raises(ConfigError) as info:
            SynthSpec(n_rows=63, n_classes=15)
        message = str(info.value)
        assert "\n" not in message
        for fragment in ("n_rows=63", "n_classes=15", "smallest class count 0"):
            assert fragment in message
        with pytest.raises(ConfigError, match="input.synth: n_rows=60 leaves"):
            config_from_dict({"input": {"synth": {"n_rows": 60,
                                                  "n_classes": 15}}})

    def test_dump_reload_round_trip(self, tmp_path):
        data = synth_generate(
            SynthSpec(n_rows=150, n_features=4, n_informative=2, seed=6)
        )
        path = str(tmp_path / "synthetic.csv")
        dump_csv(data, path)
        table = load_csv(path, "behavior")
        reloaded, _ = encode(table)
        assert np.array_equal(reloaded.X, data.X)  # bit-exact float round trip
        assert np.array_equal(reloaded.y, data.y)
        assert reloaded.classes == data.classes
        assert reloaded.feature_names() == data.feature_names()


def make_ranking(scores, names=None):
    scores = np.asarray(scores, dtype=float)
    order = np.argsort(-scores, kind="stable")
    ranks = np.empty(scores.size, dtype=np.int64)
    ranks[order] = np.arange(1, scores.size + 1)
    return FeatureRanking(scores=scores, ranks=ranks,
                          positive_share=np.full(scores.size, 0.5),
                          names=tuple(names) if names else None)


class TestChart:
    def test_one_bar_per_feature(self, tmp_path):
        ranking = make_ranking([0.5, 0.1, 0.9], names=["speed", "temp", "rain"])
        path = str(tmp_path / "chart.svg")
        emit_chart(ranking, path)
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")
        rects = root.findall(".//{http://www.w3.org/2000/svg}rect")
        assert len(rects) == 3

    def test_bar_lengths_proportional_rank1_longest(self):
        ranking = make_ranking([0.2, 0.8, 0.4])
        svg = render_chart_svg(ranking)
        root = ET.fromstring(svg)
        rects = root.findall(".//{http://www.w3.org/2000/svg}rect")
        widths = [float(r.get("width")) for r in rects]
        # bars appear in rank order: 0.8, 0.4, 0.2
        assert widths[0] == max(widths)
        assert widths[0] == pytest.approx(2 * widths[1], rel=1e-6)
        assert widths[1] == pytest.approx(2 * widths[2], rel=1e-6)

    def test_all_zero_scores_valid_file(self, tmp_path):
        ranking = make_ranking([0.0, 0.0])
        path = str(tmp_path / "zero.svg")
        emit_chart(ranking, path)
        root = ET.parse(path).getroot()
        rects = root.findall(".//{http://www.w3.org/2000/svg}rect")
        assert all(float(r.get("width")) == 0.0 for r in rects)

    def test_labels_present(self):
        ranking = make_ranking([0.3, 0.7], names=["vehicle_speed", "humidity"])
        svg = render_chart_svg(ranking)
        assert "vehicle_speed" in svg
        assert "humidity" in svg

    def test_name_escaping(self):
        ranking = make_ranking([1.0], names=["a<b&c"])
        svg = render_chart_svg(ranking)
        ET.fromstring(svg)  # must stay well-formed XML
        assert "a&lt;b&amp;c" in svg

    def test_names_escape_as_saxutils_does(self):
        from xml.sax.saxutils import escape
        names = ["a<b&c", "&amp;", "x>y", "q\"uote'", "<&>&<"]
        ranking = make_ranking([0.5, 0.4, 0.3, 0.2, 0.1], names=names)
        for name in names:
            assert f">{escape(name)}</text>" in render_chart_svg(ranking)


def test_cli_import_leaves_out_the_network_modules():
    # xml.sax.saxutils imports urllib.request, which pulls in http.client,
    # email and ssl: tens of milliseconds on every start
    code = ("import sys, driverlens.cli; "
            "print(sorted({'urllib.request', 'http.client'} & set(sys.modules)))")
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
