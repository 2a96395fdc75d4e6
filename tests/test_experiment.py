"""Experiment runner: plans, CSV/plan-log/SVG emission, paired comparisons."""

import json
import re
import weakref
import xml.etree.ElementTree as ET
from dataclasses import asdict
from itertools import product

import numpy as np
import pytest

from hetdp.datasets import (
    CifarVariant,
    DataFormat,
    DatasetDescriptor,
    HeterogeneityProfile,
    LabelScheme,
    SampleCapacityError,
    load_dataset,
    stratified_sample,
    write_cifar,
)
import hetdp.errors
import hetdp.estimators
import hetdp.experiment
from hetdp.errors import error_report
from hetdp.estimators import Setting, Statistic
from hetdp.experiment import (
    COMPARISON_COLUMNS,
    CSV_COLUMNS,
    DEFAULT_EPSILON_GRID,
    ComparisonRow,
    ExperimentPlan,
    _cell_rows,
    _materialize_samples,
    _sample_seed,
    emse_chart_svg,
    read_result_csv,
    run_experiment,
    run_heterogeneity_comparison,
    write_plan_log,
)
from hetdp.gaussian import Mechanism
from hetdp.measures import VectorDataset, build_context

SYNTH = DatasetDescriptor(
    format=DataFormat.SYNTHETIC, name="syn", d=4, synth_n=400, heterogeneity=0.5, synth_seed=0
)

UNIFORM2 = HeterogeneityProfile((1, 1), sample_fraction=0.25)
SKEWED2 = HeterogeneityProfile((99, 1), sample_fraction=0.25)
UNIFORM5 = HeterogeneityProfile((1,) * 5, sample_fraction=0.15)
SKEWED5 = HeterogeneityProfile((96, 1, 1, 1, 1), sample_fraction=0.15)


def _plan(**overrides):
    kwargs = dict(
        dataset=SYNTH,
        profiles=(("uniform-2", UNIFORM2), ("skewed-2", SKEWED2)),
        statistics=(Statistic.DISPERSION, Statistic.I_SQUARED),
        mechanisms=(Mechanism.ANALYTIC,),
        settings=(Setting.DISTRIBUTED,),
        epsilons=(0.5, 1.0),
        delta=0.1,
        trials=5,
        seed=3,
    )
    kwargs.update(overrides)
    return ExperimentPlan(**kwargs)


def _own_samples(plan):
    """Each named profile's sample, drawn apart from the sweep as it draws them."""
    data = load_dataset(plan.dataset)
    return {name: stratified_sample(data, profile, seed=_sample_seed(plan, profile))
            for name, profile in plan.profiles}


class TestPlanValidation:
    def test_defaults_exist(self):
        assert DEFAULT_EPSILON_GRID[0] == 0.25 and DEFAULT_EPSILON_GRID[-1] == 5.0
        assert _plan().trials == 5

    def test_needs_profiles(self):
        with pytest.raises(ValueError, match="at least one profile"):
            _plan(profiles=())

    def test_duplicate_profile_names(self):
        with pytest.raises(ValueError, match="duplicate profile names"):
            _plan(profiles=(("p", UNIFORM2), ("p", SKEWED2)))

    @pytest.mark.parametrize(
        "field, values",
        [
            ("statistics", (Statistic.Q, Statistic.DISPERSION, Statistic.Q)),
            ("mechanisms", (Mechanism.ANALYTIC, Mechanism.ANALYTIC)),
            ("settings", (Setting.CENTRALIZED, Setting.CENTRALIZED)),
            ("epsilons", (0.5, 0.25, 0.5)),
        ],
    )
    def test_duplicate_entries(self, field, values):
        with pytest.raises(ValueError, match=f"duplicate {field}: "):
            _plan(**{field: values})

    def test_needs_cells(self):
        with pytest.raises(ValueError, match="statistic, mechanism and setting"):
            _plan(statistics=())

    def test_epsilons_positive(self):
        with pytest.raises(ValueError, match="positive"):
            _plan(epsilons=(0.5, -1.0))
        with pytest.raises(ValueError, match="nonempty"):
            _plan(epsilons=())

    def test_delta_open_interval(self):
        with pytest.raises(ValueError, match="delta"):
            _plan(delta=0.0)
        with pytest.raises(ValueError, match="delta"):
            _plan(delta=1.0)

    def test_trials_positive(self):
        with pytest.raises(ValueError, match="trials"):
            _plan(trials=0)

    def test_classical_needs_epsilon_below_one(self):
        with pytest.raises(ValueError, match="classical calibration is only defined"):
            _plan(mechanisms=(Mechanism.ANALYTIC, Mechanism.CLASSICAL), epsilons=(0.5, 1.0))
        plan = _plan(mechanisms=(Mechanism.CLASSICAL,), epsilons=(0.25, 0.5))
        assert plan.mechanisms == (Mechanism.CLASSICAL,)

    def test_budget_fractions_must_match_all_statistics(self):
        with pytest.raises(ValueError, match="parts"):
            _plan(budget_fractions=(0.5, 0.5))
        plan = _plan(statistics=(Statistic.I_SQUARED,), budget_fractions=(0.5, 0.25, 0.25))
        assert plan.budget_fractions == (0.5, 0.25, 0.25)

    @pytest.mark.parametrize(
        "statistics, fractions, message",
        [
            ((Statistic.DISPERSION,), (0.5, 0.6), "fractions must sum to 1, got 1.1"),
            ((Statistic.Q,), (1.5, -0.5), "fractions must all be positive"),
            (tuple(Statistic), (0.5, 0.5), "--budget-split has 2 parts but i_squared needs 3"),
        ],
    )
    def test_bad_split_raises_at_construction(self, statistics, fractions, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            _plan(statistics=statistics, budget_fractions=fractions)


class TestSeedDerivations:
    def test_sample_seed_is_content_addressed(self):
        plan = _plan()
        twin = HeterogeneityProfile((1, 1), sample_fraction=0.25)
        assert _sample_seed(plan, UNIFORM2) == _sample_seed(plan, twin)
        other_fraction = HeterogeneityProfile((1, 1), sample_fraction=0.2)
        assert _sample_seed(plan, UNIFORM2) != _sample_seed(plan, other_fraction)
        assert _sample_seed(plan, UNIFORM2) != _sample_seed(plan, SKEWED2)

    def test_cell_seed_ignores_profile_and_epsilon(self):
        # The cell seed is a function of (statistic, mechanism, setting) only,
        # so noise is shared across profiles and the epsilon grid.
        a = _plan()  # dispersion and I^2
        b = _plan(profiles=(("only", UNIFORM2),), epsilons=(2.0,))
        assert a.cells() == b.cells()
        (dispersion, first), (i_squared, second) = a.cells()
        assert (dispersion, i_squared) == (Statistic.DISPERSION, Statistic.I_SQUARED)
        assert first.seed != second.seed

    def test_cell_seed_ignores_listing_order(self):
        forward = dict(statistics=tuple(Statistic), mechanisms=tuple(Mechanism),
                       settings=tuple(Setting), epsilons=(0.5,))
        reverse = {key: tuple(reversed(values)) for key, values in forward.items()}

        def seeds(plan):
            return {(stat, cfg.mechanism, cfg.setting): cfg.seed for stat, cfg in plan.cells()}

        cells = seeds(_plan(**forward))
        assert list(cells) == list(product(Statistic, Mechanism, Setting))
        assert seeds(_plan(**reverse)) == cells
        assert len(set(cells.values())) == 12

    def test_cell_seeds_are_the_plan_logs(self, tmp_path):
        plan = _plan(statistics=tuple(Statistic), settings=tuple(Setting), zero_noise=True)
        write_plan_log(plan, tmp_path / "x.csv")
        logged = json.loads((tmp_path / "x.plan.json").read_text())["cell_seeds"]
        assert logged == [
            {"statistic": stat.value, "mechanism": cfg.mechanism.value,
             "setting": cfg.setting.value, "seed": cfg.seed}
            for stat, cfg in plan.cells()
        ]
        assert all(cfg.zero_noise for _, cfg in plan.cells())


class TestRunExperiment:
    def test_rows_sorted_and_complete(self, tmp_path):
        rows = run_experiment(_plan(), tmp_path / "out.csv")
        assert len(rows) == 2 * 1 * 1 * 2 * 2
        assert [r.key() for r in rows] == sorted(r.key() for r in rows)
        assert {r.statistic for r in rows} == {"dispersion", "i_squared"}
        assert {r.profile for r in rows} == {"uniform-2", "skewed-2"}

    def test_csv_round_trips_exactly(self, tmp_path):
        path = tmp_path / "out.csv"
        rows = run_experiment(_plan(), path)
        assert read_result_csv(path) == rows
        header = path.read_text().splitlines()[0]
        assert tuple(header.split(",")) == CSV_COLUMNS

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_experiment(_plan(), a)
        run_experiment(_plan(), b)
        assert a.read_bytes() == b.read_bytes()

    def test_creates_missing_output_directories(self, tmp_path):
        nested = tmp_path / "results" / "deep" / "out.csv"
        rows = run_experiment(_plan(), nested, svg_dir=tmp_path / "charts" / "svg")
        assert read_result_csv(nested) == rows
        assert nested.with_suffix(".plan.json").exists()
        assert any((tmp_path / "charts" / "svg").iterdir())
        cmp_path = tmp_path / "cmp" / "rows.csv"
        run_heterogeneity_comparison(_plan(statistics=(Statistic.DISPERSION,)), cmp_path)
        assert cmp_path.exists()

    def test_plan_log_resolves_everything(self, tmp_path):
        path = tmp_path / "out.csv"
        plan = _plan()
        run_experiment(plan, path)
        log = json.loads((tmp_path / "out.plan.json").read_text())
        assert log["dataset"]["name"] == "syn"
        assert log["variance_floor"] == 1e-9
        assert log["budget_rule"].startswith("equal split")
        assert len(log["cell_seeds"]) == 2
        by_name = {p["name"]: p for p in log["profiles"]}
        assert by_name["uniform-2"]["sample_seed"] == _sample_seed(plan, UNIFORM2)
        assert by_name["skewed-2"]["ratios"] == [99, 1]

    @pytest.mark.parametrize("dataset", [
        SYNTH,
        DatasetDescriptor(format=DataFormat.CIFAR100_BIN, name="c100", paths=("a.bin", "b.bin"),
                          d=3072, label_scheme=LabelScheme.COARSE_BUCKETED),
    ])
    def test_plan_log_rebuilds_dataset_and_profiles(self, tmp_path, dataset):
        # The log is read back the way perfbench/checks.py reads it.
        plan = _plan(dataset=dataset, profiles=(("uniform-5", UNIFORM5), ("skewed-2", SKEWED2)))
        write_plan_log(plan, tmp_path / "x.csv")
        log = json.loads((tmp_path / "x.plan.json").read_text())
        ds = log["dataset"]
        assert DatasetDescriptor(
            format=DataFormat(ds["format"]), name=ds["name"], paths=tuple(ds["paths"]),
            d=ds["d"], label_scheme=LabelScheme(ds["label_scheme"]), synth_n=ds["synth_n"],
            heterogeneity=ds["heterogeneity"], synth_seed=ds["synth_seed"],
        ) == plan.dataset
        rebuilt = [
            (entry["name"], HeterogeneityProfile(
                tuple(entry["ratios"]), entry["label_count"], entry["sample_fraction"]
            ), entry["sample_seed"])
            for entry in log["profiles"]
        ]
        assert rebuilt == [(name, profile, _sample_seed(plan, profile))
                           for name, profile in plan.profiles]

    def test_explicit_fractions_logged(self, tmp_path):
        plan = _plan(statistics=(Statistic.DISPERSION,), budget_fractions=(0.75, 0.25))
        write_plan_log(plan, tmp_path / "x.csv")
        log = json.loads((tmp_path / "x.plan.json").read_text())
        assert log["budget_rule"] == "explicit fractions"
        assert log["budget_fractions"] == [0.75, 0.25]

    def test_zero_noise_zeroes_every_error_column(self, tmp_path):
        rows = run_experiment(_plan(zero_noise=True), tmp_path / "out.csv")
        for row in rows:
            assert (row.emse, row.tmse, row.cmse) == (0.0, 0.0, 0.0)
            assert (row.sd_emse, row.sd_tmse, row.ci_half_width) == (0.0, 0.0, 0.0)
            assert row.true_value > 0

    def test_dispersion_emse_shared_across_profiles(self, tmp_path):
        # Common random numbers: the dispersion's empirical error is a pure
        # noise functional, so paired profiles agree to rounding error.
        rows = run_experiment(_plan(), tmp_path / "out.csv")
        disp = [r for r in rows if r.statistic == "dispersion"]
        for epsilon in (0.5, 1.0):
            vals = [r.emse for r in disp if r.epsilon == epsilon]
            assert len(vals) == 2
            assert abs(vals[0] - vals[1]) <= 1e-12 * max(vals)

    def test_capacity_error_names_profile(self, tmp_path):
        big = HeterogeneityProfile((99, 1), sample_fraction=0.9)
        plan = _plan(profiles=(("skewed-2", big),))
        with pytest.raises(SampleCapacityError, match="profile skewed-2: bucket 0"):
            run_experiment(plan, tmp_path / "out.csv")

    def test_true_value_columns_are_run_constant(self, tmp_path):
        rows = run_experiment(_plan(), tmp_path / "out.csv")
        assert len({(r.dispersion_min, r.q_mean, r.i_squared_min) for r in rows}) == 1
        for row in rows:
            assert row.dispersion_min <= row.dispersion_mean
            assert row.i_squared_min <= row.i_squared_mean <= 1.0


class TestCharts:
    def test_one_chart_per_statistic_with_data_comments(self, tmp_path):
        plan = _plan()
        run_experiment(plan, tmp_path / "out.csv", svg_dir=tmp_path / "charts")
        files = sorted(p.name for p in (tmp_path / "charts").glob("*.svg"))
        assert files == ["emse_dispersion_syn.svg", "emse_i_squared_syn.svg"]
        text = (tmp_path / "charts" / "emse_dispersion_syn.svg").read_text()
        assert text.count("<!-- series ") == 2
        assert "uniform-2/analytic/distributed" in text
        assert "epsilon" in text

    def test_chart_handles_nonpositive_values(self):
        svg = emse_chart_svg("t", {"a": [(0.5, 0.0), (1.0, 2.0)]})
        assert svg.startswith("<svg")
        assert "<!-- series a:" in svg

    def test_chart_requires_points(self):
        with pytest.raises(ValueError, match="at least one point"):
            emse_chart_svg("t", {})

    def test_names_with_xml_metacharacters_parse(self):
        # Dataset and profile names come from the command line; the chart
        # stays well-formed XML and its text shows the names as given.
        title = "EMSE vs epsilon: q on a<b&c>--d---"
        label = "p<1>&--x/analytic/distributed"
        svg = emse_chart_svg(title, {label: [(0.5, 1.0), (1.0, 2.0)]})
        root = ET.fromstring(svg)
        texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
        assert title in texts
        assert label in texts


class TestHeterogeneityComparison:
    def test_ratio_and_label_count_rows(self, tmp_path):
        plan = _plan(
            profiles=(
                ("uniform-2", UNIFORM2),
                ("skewed-2", SKEWED2),
                ("uniform-5", UNIFORM5),
                ("skewed-5", SKEWED5),
            ),
            statistics=(Statistic.I_SQUARED,),
        )
        rows = run_heterogeneity_comparison(plan, tmp_path / "cmp.csv")
        kinds = [(r.kind, r.subject) for r in rows]
        assert kinds == [("label_count", "5-vs-2"), ("ratio", "2"), ("ratio", "5")]
        header = (tmp_path / "cmp.csv").read_text().splitlines()[0]
        assert tuple(header.split(",")) == COMPARISON_COLUMNS
        assert (tmp_path / "cmp.plan.json").exists()

    def test_identical_pair_changes_by_exactly_zero(self, tmp_path):
        twin = HeterogeneityProfile((1, 1), sample_fraction=0.25)
        plan = _plan(profiles=(("balanced", UNIFORM2), ("balanced-copy", twin)))
        rows = run_heterogeneity_comparison(plan, tmp_path / "cmp.csv")
        assert all(r.pct_change_emse == 0.0 for r in rows)

    def test_equal_sample_sizes_change_dispersion_by_exactly_zero(self, tmp_path):
        # A dispersion release's noise reads the sample only through n, so
        # profiles of one size have bit-identical dispersion EMSE.
        profiles = tuple(
            (name, HeterogeneityProfile(profile.ratios, sample_fraction=0.15))
            for name, profile in (("uniform-2", UNIFORM2), ("skewed-2", SKEWED2),
                                  ("uniform-5", UNIFORM5), ("skewed-5", SKEWED5))
        )
        plan = _plan(profiles=profiles, statistics=(Statistic.DISPERSION, Statistic.Q),
                     mechanisms=tuple(Mechanism), settings=tuple(Setting),
                     epsilons=(0.9, 0.25, 0.5), trials=4)
        assert len({ctx.n for ctx, _ in _materialize_samples(plan).values()}) == 1
        emse = {}
        for row in run_experiment(plan, tmp_path / "sweep.csv"):
            if row.statistic == "dispersion":
                emse.setdefault((row.mechanism, row.setting, row.epsilon), set()).add(row.emse)
        assert len(emse) == 12 and all(len(values) == 1 for values in emse.values())
        rows = run_heterogeneity_comparison(plan, tmp_path / "cmp.csv")
        dispersion = [r.pct_change_emse for r in rows if r.statistic == "dispersion"]
        assert len(dispersion) == 12 and set(dispersion) == {0.0}
        assert all(r.pct_change_emse != 0.0 for r in rows if r.statistic == "q")

    def test_unpaired_profiles_rejected(self, tmp_path):
        plan = _plan(profiles=(("uniform-2", UNIFORM2),))
        with pytest.raises(ValueError, match="exactly a balanced/skewed pair"):
            run_heterogeneity_comparison(plan, tmp_path / "cmp.csv")

    def test_baseline_is_the_balanced_profile(self, tmp_path):
        # Listing the skewed profile first must not flip the comparison's
        # direction: the balanced profile stays the baseline.
        forward = _plan(profiles=(("uniform-2", UNIFORM2), ("skewed-2", SKEWED2)))
        flipped = _plan(profiles=(("skewed-2", SKEWED2), ("uniform-2", UNIFORM2)))
        a = run_heterogeneity_comparison(forward, tmp_path / "a.csv")
        b = run_heterogeneity_comparison(flipped, tmp_path / "b.csv")
        assert [r.pct_change_emse for r in a] == [r.pct_change_emse for r in b]

    def test_pairing_checked_before_loading(self, tmp_path):
        missing = DatasetDescriptor(
            format=DataFormat.IDX_IMAGES,
            name="missing",
            paths=(str(tmp_path / "no-images"), str(tmp_path / "no-labels")),
        )
        plan = _plan(dataset=missing, profiles=(("uniform-2", UNIFORM2),))
        with pytest.raises(ValueError, match="exactly a balanced/skewed pair"):
            run_heterogeneity_comparison(plan, tmp_path / "cmp.csv")

    def test_equals_reduction_of_experiment_rows(self, tmp_path):
        # The comparison is the sweep's own EMSE, averaged in grid order.
        plan = _plan(
            profiles=(
                ("skewed-5", SKEWED5),
                ("uniform-2", UNIFORM2),
                ("uniform-5", UNIFORM5),
                ("skewed-2", SKEWED2),
            ),
            statistics=tuple(Statistic),
            mechanisms=(Mechanism.ANALYTIC, Mechanism.CLASSICAL),
            settings=(Setting.DISTRIBUTED, Setting.CENTRALIZED),
            epsilons=(0.9, 0.25, 0.5),
            trials=4,
        )
        emse = {
            (r.statistic, r.mechanism, r.setting, r.profile, r.epsilon): r.emse
            for r in run_experiment(plan, tmp_path / "sweep.csv")
        }
        expected = []
        for stat in ("dispersion", "q", "i_squared"):
            for mech in ("analytic", "classical"):
                for setting in ("distributed", "centralized"):
                    for kind, subject, base, other in (
                        ("ratio", "2", "uniform-2", "skewed-2"),
                        ("ratio", "5", "uniform-5", "skewed-5"),
                        ("label_count", "5-vs-2", "uniform-5", "uniform-2"),
                    ):
                        total = 0.0
                        for eps in (0.9, 0.25, 0.5):
                            b = emse[stat, mech, setting, base, eps]
                            o = emse[stat, mech, setting, other, eps]
                            total += 0.0 if o == b else (o - b) / b * 100.0
                        expected.append(
                            ComparisonRow(kind, subject, stat, mech, setting, total / 3)
                        )
        rows = run_heterogeneity_comparison(plan, tmp_path / "cmp.csv")
        assert rows == sorted(expected, key=ComparisonRow.key)


class TestOneSampleAtATime:
    """A study draws each profile's sample, reduces it to its context and
    true values, and drops it before the next draw: no sample outlives its
    turn, and none is alive once calibration starts."""

    def _held(self, monkeypatch, plan):
        samples = []
        real_sample = hetdp.experiment.stratified_sample
        real_sigmas = hetdp.experiment.stage_sigmas

        def sampling(data, profile, **kwargs):
            assert all(ref() is None for ref in samples), "the previous sample is still alive"
            sample = real_sample(data, profile, **kwargs)
            samples.append(weakref.ref(sample))
            return sample

        def calibrating(*args):
            assert all(ref() is None for ref in samples), "a sample is alive at calibration"
            return real_sigmas(*args)

        monkeypatch.setattr(hetdp.experiment, "stratified_sample", sampling)
        monkeypatch.setattr(hetdp.experiment, "stage_sigmas", calibrating)
        rows = _cell_rows(plan)
        assert len(samples) == len(plan.profiles)
        return rows

    def test_cifar_shaped_file(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(4)
        data = VectorDataset(rng.integers(0, 256, (200, 3072)) / 255.0, np.arange(200) % 10)
        write_cifar(data, tmp_path / "batch.bin", CifarVariant.TEN)
        plan = _plan(
            dataset=DatasetDescriptor(DataFormat.CIFAR10_BIN, "c10", (str(tmp_path / "batch.bin"),)),
            profiles=(("uniform-2", HeterogeneityProfile((1, 1), sample_fraction=0.1)),
                      ("uniform-5", HeterogeneityProfile((1,) * 5, sample_fraction=0.1))),
            statistics=tuple(Statistic), trials=3,
        )
        assert len(self._held(monkeypatch, plan)) == 2 * 3 * 2

    def test_synthetic_data(self, monkeypatch):
        plan = _plan(**TestSharedCellNormals.PLAN)
        expected = _cell_rows(plan)
        assert self._held(monkeypatch, plan) == expected


class TestSharedCellNormals:
    """Each (statistic, mechanism, setting) cell draws one block of trial
    draws and shares it across its profiles and epsilons, and only there."""

    PLAN = dict(
        profiles=(("uniform-2", UNIFORM2), ("skewed-2", SKEWED2), ("uniform-5", UNIFORM5)),
        statistics=tuple(Statistic),
        mechanisms=(Mechanism.ANALYTIC, Mechanism.CLASSICAL),
        settings=(Setting.DISTRIBUTED, Setting.CENTRALIZED),
        epsilons=(0.5, 0.25, 0.9),
        trials=4,
    )

    def test_rows_equal_separate_reports_with_their_own_draws(self):
        plan = _plan(**self.PLAN)
        rows = _cell_rows(plan)
        assert len(rows) == 3 * 2 * 2 * 3 * 3
        samples = _own_samples(plan)
        contexts = {name: build_context(sample) for name, sample in samples.items()}
        configs = {(stat.value, cfg.mechanism.value, cfg.setting.value): cfg
                   for stat, cfg in plan.cells()}
        for row in rows:
            stat = Statistic(row.statistic)
            cfg = configs[row.statistic, row.mechanism, row.setting]
            budget = stat.budget(row.epsilon, plan.delta, plan.budget_fractions)
            sample, ctx = samples[row.profile], contexts[row.profile]
            report = asdict(error_report(stat, sample, ctx, cfg, budget, plan.trials))
            assert report == {name: getattr(row, name) for name in report}, row.key()

    def test_budget_rule_runs_once_per_statistic_and_epsilon(self, monkeypatch):
        plan = _plan(**self.PLAN)
        calls = []
        real = Statistic.budget

        def counting(stat, epsilon, delta, fractions=None):
            calls.append((stat, epsilon))
            return real(stat, epsilon, delta, fractions)

        monkeypatch.setattr(Statistic, "budget", counting)
        assert len(_cell_rows(plan)) == 108
        # 3 statistics x 3 epsilons, not once more per profile or cell
        assert len(calls) == 9 and set(calls) == set(product(plan.statistics, plan.epsilons))

    def test_one_block_per_cell(self, monkeypatch):
        blocks = []
        real = hetdp.estimators.trial_draws

        def counting(statistic, cfg, d, trials):
            blocks.append((statistic, cfg.mechanism, cfg.setting, trials))
            return real(statistic, cfg, d, trials)

        monkeypatch.setattr(hetdp.experiment, "trial_draws", counting)
        rows = _cell_rows(_plan(**self.PLAN))
        assert len(rows) == 108
        assert len(blocks) == len(set(blocks)) == 12
        assert {trials for *_, trials in blocks} == {4}

    def test_scores_read_no_row_of_a_sample(self, monkeypatch):
        # Once its context is built, no score reads a sample's rows: every
        # row is the same when the samples' rows are zeroed after build_context.
        plan = _plan(**self.PLAN)
        full = _cell_rows(plan)
        real = hetdp.experiment.build_context

        def blanking(sample):
            ctx = real(sample)
            sample.rows.setflags(write=True)
            sample.rows[...] = 0.0
            return ctx

        monkeypatch.setattr(hetdp.experiment, "build_context", blanking)
        assert _cell_rows(plan) == full

    def test_i_squared_plan_rows_equal_the_full_plan_rows(self):
        # A cell's rows depend on its own draws only: an I^2-only plan
        # reports the I^2 rows of the full plan.
        full = [r for r in _cell_rows(_plan(**self.PLAN)) if r.statistic == "i_squared"]
        rows = _cell_rows(_plan(**dict(self.PLAN, statistics=(Statistic.I_SQUARED,))))
        assert len(rows) == 3 * 4 * 3 and rows == full

    def test_one_release_call_per_profile_and_cell(self, monkeypatch):
        calls = []
        real = hetdp.estimators.release_noise

        def counting(*args):
            calls.append((args[1].n, args[2].central.shape))
            return real(*args)

        monkeypatch.setattr(hetdp.errors, "release_noise", counting)
        plan = _plan(**dict(self.PLAN, profiles=self.PLAN["profiles"][:2]))
        rows = _cell_rows(plan)
        assert len(rows) == 2 * 12 * 3
        # every epsilon of a cell is scored by the same call
        assert len(calls) == len(plan.profiles) * 12 == 24
        samples = _own_samples(plan)
        sizes = [samples[name].n for name, _ in plan.profiles]
        assert [n for n, _ in calls] == [size for size in sizes for _ in range(12)]
        assert {shape for _, shape in calls} == {(4,)}
