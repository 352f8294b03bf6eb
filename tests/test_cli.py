import dataclasses
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import prefeval
from conftest import count_grade_reads, judgment_rows, make_session, with_judgments
from prefeval import cli, data_io
from prefeval.cli import main
from prefeval.config import Metric, MetricConfig
from prefeval.data_io import FILE_NAMES, load_dataset, write_dataset
from prefeval.dataset import ValidationMode, Variant
from prefeval.implicit import ImplicitMeasure, SessionEndpoint, implicit_pir
from prefeval.metrics import ApNorm, esl
from prefeval.oracle import judged_lists, metric_score, oracle_pir
from prefeval.pir import CATEGORIES, DEFAULT_CUTOFFS, DEFAULT_THRESHOLDS, pir_sweep
from prefeval.scales import DiscountFunction, DiscountKind, RelevanceScale
from prefeval.synth import SynthSpec, generate_synthetic

# `eval --metric ndcg --cutoff 5` on the synth_dir dataset (three raters)
EVAL_NDCG_C5 = (
    "query\tA\tB\n"
    "q001\t0.6705\t0.4923\n"
    "q002\t0.7094\t0.4753\n"
    "q003\t0.8849\t0.6033\n"
    "q004\t0.9152\t0.6882\n"
    "q005\t0.7888\t0.5634\n"
    "q006\t0.8239\t0.7419\n"
    "q007\t0.8504\t0.6927\n"
    "q008\t0.7871\t0.7432\n"
    "mean\t0.8038\t0.6251\n"
)
# the same with every judgment of q001's top variant-A result removed, --lenient
EVAL_NDCG_C5_LENIENT_GAP = EVAL_NDCG_C5.replace(
    "q001\t0.6705\t0.4923", "q001\t0.3993\t0.5253"
).replace("mean\t0.8038\t0.6251", "mean\t0.7699\t0.6292")


def run_cli(argv):
    """Run the CLI in a fresh interpreter, so an uncaught exception shows as a traceback."""
    env = dict(os.environ, PYTHONPATH=str(Path(prefeval.__file__).parent.parent))
    return subprocess.run([sys.executable, "-m", "prefeval.cli", *map(str, argv)],
                          capture_output=True, text=True, env=env)


@pytest.fixture
def synth_dir(tmp_path):
    out = tmp_path / "ds"
    assert main(["synth", "--out", str(out), "--queries", "8", "--raters", "3",
                 "--seed", "5", "--preferences", "16"]) == 0
    return out


class TestValidateCommand:
    def test_valid_dataset_exits_zero(self, synth_dir, capsys):
        assert main(["validate", str(synth_dir)]) == 0
        out = capsys.readouterr().out
        assert "errors=0" in out

    def test_counts_one_judgment_per_rater(self, synth_dir, capsys):
        # the grade index holds a rater map per (query, result); the count is of its raters
        lines = (synth_dir / FILE_NAMES["judgments"]).read_text().splitlines()
        assert main(["validate", str(synth_dir)]) == 0
        assert f" judgments={len(lines) - 1} " in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["validate", "stats"])
    def test_duplicate_judgment_line_exits_one_with_location(self, synth_dir, capsys, command):
        path = synth_dir / FILE_NAMES["judgments"]
        lines = path.read_text().splitlines()
        qid, rid, rater = lines[1].split("\t")[:3]
        path.write_text("\n".join([*lines, lines[1]]) + "\n")
        assert main([command, str(synth_dir)]) == 1
        assert capsys.readouterr().err == (
            f"{path}:{len(lines) + 1}: rater {rater!r} judged ({qid!r}, {rid!r}) twice\n")

    def test_grade_out_of_range_exits_one_with_location(self, synth_dir, capsys):
        path = synth_dir / FILE_NAMES["judgments"]
        lines = path.read_text().splitlines()
        lines[3] = lines[3].rsplit("\t", 2)[0] + "\t9\ttrue"
        path.write_text("\n".join(lines) + "\n")
        assert main(["validate", str(synth_dir)]) == 1
        err = capsys.readouterr().err
        assert ":4:" in err and "grade" in err

    @pytest.mark.parametrize("command", ["validate", "sweep"])
    def test_non_utf8_byte_exits_one_with_location(self, synth_dir, tmp_path, capsys, command):
        path = synth_dir / FILE_NAMES["judgments"]
        data = path.read_bytes()
        path.write_bytes(data + b"\xff")
        argv = [command, str(synth_dir)]
        if command == "sweep":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        line = data.count(b"\n") + 1
        assert err.startswith(f"{path}:{line}: not valid UTF-8 (byte 0xff")
        assert len(err.splitlines()) == 1

    def test_missing_judgment_strict_vs_lenient(self, synth_dir, capsys):
        path = synth_dir / FILE_NAMES["judgments"]
        lines = path.read_text().splitlines()
        victim = "\t".join(lines[-1].split("\t")[:2])  # (query_id, result_id)
        kept = [line for line in lines if not line.startswith(victim + "\t")]
        path.write_text("\n".join(kept) + "\n")
        assert main(["validate", str(synth_dir)]) == 1
        assert "missing-judgment" in capsys.readouterr().err
        assert main(["validate", str(synth_dir), "--lenient"]) == 0
        assert "warning" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", list(ValidationMode))
    def test_validates_once_in_requested_mode(self, synth_dir, monkeypatch, mode):
        modes = []
        original = data_io.validate

        def counted(*args, **kwargs):
            report = original(*args, **kwargs)
            modes.append(report.mode)
            return report

        monkeypatch.setattr(cli, "validate", counted)
        monkeypatch.setattr(data_io, "validate", counted)
        lenient = ["--lenient"] if mode is ValidationMode.LENIENT else []
        assert main(["validate", str(synth_dir), *lenient]) == 0
        assert modes == [mode]

    def test_structural_error_lists_issue_and_summary(self, synth_dir, capsys):
        path = synth_dir / FILE_NAMES["queries"]
        lines = path.read_text().splitlines()
        path.write_text("\n".join([*lines, lines[1]]) + "\n")
        capsys.readouterr()
        for lenient in ([], ["--lenient"]):
            assert main(["validate", str(synth_dir), *lenient]) == 1
            out, err = capsys.readouterr()
            assert err == "error: duplicate-query: query 'q001' defined more than once\n"
            assert out.rstrip().endswith("errors=1 warnings=0")

    def test_missing_directory_is_one_line(self, tmp_path, capsys):
        missing = tmp_path / "nowhere"
        assert main(["validate", str(missing)]) == 1
        assert capsys.readouterr() == ("", f"missing file: {missing / FILE_NAMES['queries']}\n")

    def test_malformed_lists_exits_one_with_location(self, synth_dir, capsys):
        path = synth_dir / FILE_NAMES["lists"]
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace("\t2\t", "\ttwo\t", 1)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["validate", str(synth_dir)]) == 1
        assert capsys.readouterr() == ("", f"{path}:3: rank must be an integer, got 'two'\n")

    @pytest.mark.parametrize("command", ["validate", "eval"])
    def test_empty_result_id_exits_one_with_location(self, synth_dir, capsys, command):
        victim = load_dataset(synth_dir).list_pairs[0].variant_a[0]
        for kind in ("lists", "judgments"):
            path = synth_dir / FILE_NAMES[kind]
            lines = path.read_text().splitlines()
            blanked = ["\t".join("" if f == victim else f for f in line.split("\t")) for line in lines]
            path.write_text("\n".join(blanked) + "\n")
        line = next(i for i, (a, b) in enumerate(zip(lines, blanked), start=1) if a != b)
        argv = [command, str(synth_dir)] + (["--metric", "ndcg"] if command == "eval" else [])
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"{path}:{line}: result_id is empty\n")

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestEvalCommand:
    def test_map_worked_example(self, tmp_path, two_query_map_dataset, capsys):
        write_dataset(two_query_map_dataset, tmp_path)
        code = main(["eval", str(tmp_path), "--metric", "map", "--discount", "rank",
                     "--norm", "known-relevant", "--cutoff", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "qa\t0.9167" in out
        assert "qb\t0.4778" in out
        assert "mean\t0.6972" in out

    def test_perfectly_ordered_ndcg_is_one(self, tmp_path, two_query_map_dataset, capsys):
        # order each variant A by grade so the actual equals the ideal ranking
        ds = two_query_map_dataset
        pairs = []
        for pair in ds.list_pairs:
            graded = sorted(
                pair.variant_a,
                key=lambda rid: ds.grades[(pair.query_id, rid)]["r1"],
            )
            pairs.append(dataclasses.replace(pair, variant_a=tuple(graded)))
        write_dataset(dataclasses.replace(ds, list_pairs=tuple(pairs)), tmp_path)
        assert main(["eval", str(tmp_path), "--metric", "ndcg", "--cutoff", "5"]) == 0
        out_lines = capsys.readouterr().out.splitlines()
        for line in out_lines[1:3]:
            assert line.split("\t")[1] == "1.0000"

    def test_esl_matches_direct_module_call(self, synth_dir, capsys):
        # every printed row of every metric and AP norm equals the reference
        ds = load_dataset(synth_dir)
        for metric in Metric:
            for norm in ApNorm:
                esl_n = ["--n", "2.5"] if metric is Metric.ESL else []
                ap_norm = ["--norm", norm.value] if metric is Metric.MAP else []
                assert main(["eval", str(synth_dir), "--metric", metric.value, *esl_n, *ap_norm,
                             "--discount", "rank", "--cutoff", "10"]) == 0
                out = capsys.readouterr().out
                cfg = MetricConfig(metric, DiscountFunction(DiscountKind.RANK), ap_norm=norm,
                                   esl_n=2.5 if metric is Metric.ESL else None)
                want = []
                for pair in ds.list_pairs:
                    rels_a, rels_b, pool = judged_lists(ds, pair.query_id, None, cfg)
                    scores = [metric_score(rels, pool, cfg) for rels in (rels_a, rels_b)]
                    if scores[0] is None:
                        assert scores[1] is None
                        continue
                    want.append("\t".join([pair.query_id, *(f"{v:.4f}" for v in scores)]))
                    if metric is Metric.ESL and pair is ds.list_pairs[0]:
                        assert scores[0] == esl(rels_a, 10, DiscountFunction(DiscountKind.RANK),
                                                n=2.5)
                got = out.splitlines()[1:-1]
                assert got == want, (metric, norm)  # the CLI prints the reference values verbatim
                assert got

    @pytest.mark.parametrize("lenient", [[], ["--lenient"]])
    def test_multi_rater_table_is_pinned(self, synth_dir, capsys, lenient):
        capsys.readouterr()
        assert main(["eval", str(synth_dir), "--metric", "ndcg", "--cutoff", "5", *lenient]) == 0
        assert capsys.readouterr() == (EVAL_NDCG_C5, "")

    def test_unjudged_result_strict_vs_lenient_is_pinned(self, synth_dir, capsys):
        victim = load_dataset(synth_dir).list_pairs[0].variant_a[0]
        path = synth_dir / FILE_NAMES["judgments"]
        lines = path.read_text().splitlines()
        path.write_text("".join(f"{line}\n" for line in lines if line.split("\t")[1] != victim))
        argv = ["eval", str(synth_dir), "--metric", "ndcg", "--cutoff", "5"]
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr() == ("", (
            "dataset validation failed:\n"
            f"error: missing-judgment: result {victim!r} of query 'q001' appears at rank <= 5"
            " but has no judgment\n"
        ))
        assert main([*argv, "--lenient"]) == 0
        assert capsys.readouterr() == (EVAL_NDCG_C5_LENIENT_GAP, "")

    def test_looks_up_each_distinct_result_once(self, synth_dir, monkeypatch):
        # one grade-index read per (query, distinct result), A's results first, then B's unseen
        calls = []
        original = cli.load_dataset
        monkeypatch.setattr(cli, "load_dataset",
                            lambda *args, **kwargs: count_grade_reads(original(*args, **kwargs),
                                                                      calls))
        assert main(["eval", str(synth_dir), "--metric", "ndcg", "--cutoff", "5"]) == 0
        assert calls == [
            (pair.query_id, rid)
            for pair in load_dataset(synth_dir).list_pairs
            for rid in dict.fromkeys((*pair.variant_a[:5], *pair.variant_b[:5]))
        ]

    def test_no_preferences_needed_for_eval(self, tmp_path, two_query_map_dataset, capsys):
        ds = dataclasses.replace(two_query_map_dataset, preferences=())
        write_dataset(ds, tmp_path)
        assert main(["eval", str(tmp_path), "--metric", "precision", "--cutoff", "5"]) == 0

    def test_takes_no_rating_source(self, synth_dir, capsys):
        # eval has no preference rater: it always averages over all raters
        with pytest.raises(SystemExit) as exc:
            main(["eval", str(synth_dir), "--metric", "ndcg",
                  "--rating-source", "other-users"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --rating-source" in capsys.readouterr().err


class TestSweepCommand:
    def test_worked_example_grid_values(self, tmp_path, sample_pir_dataset):
        data = tmp_path / "data"
        out = tmp_path / "out"
        write_dataset(sample_pir_dataset, data)
        code = main(["sweep", str(data), "--out", str(out),
                     "--metrics", "precision", "--thresholds", "0,0.15,0.35",
                     "--cutoffs", "10"])
        assert code == 0
        grid_text = (out / "grid_precision_none_six_same-user.tsv").read_text()
        lines = [line.split("\t") for line in grid_text.splitlines()]
        assert lines[0] == ["threshold", "c10"]
        assert [row[1] for row in lines[1:]] == ["0.7500", "0.8750", "0.6250"]
        best = (out / "best_threshold_pir.tsv").read_text().splitlines()
        assert best[1].split("\t") == ["10", "0.8750"]
        best_t = (out / "best_threshold_value.tsv").read_text().splitlines()
        assert best_t[1].split("\t") == ["10", "0.1500"]
        zero = (out / "zero_threshold_pir.tsv").read_text().splitlines()
        assert zero[1].split("\t") == ["10", "0.7500"]

    def test_cutoff_one_identical_top_grades_flat_series(self, tmp_path, sample_pir_dataset):
        # every variant leads with a grade-1 result, so at cut-off 1 all
        # score differences vanish and the series is flat at baseline
        data, out = tmp_path / "d", tmp_path / "o"
        write_dataset(sample_pir_dataset, data)
        assert main(["sweep", str(data), "--out", str(out),
                     "--metrics", "precision", "--cutoffs", "1"]) == 0
        rows = (out / "grid_precision_none_six_same-user.tsv").read_text().splitlines()
        assert {row.split("\t")[1] for row in rows[1:]} == {"0.5000"}

    def test_default_grid_shape_and_counts_files(self, synth_dir, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", str(synth_dir), "--out", str(out)]) == 0
        grids = sorted(out.glob("grid_*.tsv"))
        assert len(grids) == 6
        for path in grids:
            rows = path.read_text().splitlines()
            assert len(rows) == 1 + 31
            assert len(rows[0].split("\t")) == 1 + 10
        counts = sorted(out.glob("counts_*.tsv"))
        assert len(counts) == 6
        body = counts[0].read_text().splitlines()
        assert len(body) == 1 + 10 * 31

    def test_plot_flag_writes_svg(self, synth_dir, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", str(synth_dir), "--out", str(out), "--metrics", "ndcg",
                     "--cutoffs", "1-3", "--plot"]) == 0
        assert (out / "grid_ndcg_log2_six_same-user.svg").exists()
        assert (out / "best_threshold_pir.svg").read_text().startswith("<svg")

    def test_query_type_filter_flag(self, synth_dir, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", str(synth_dir), "--out", str(out), "--metrics", "precision",
                     "--query-type", "informational", "--cutoffs", "1-2"]) == 0
        assert (out / "grid_precision_none_six_same-user_informational.tsv").exists()

    def test_other_users_rating_source(self, synth_dir, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", str(synth_dir), "--out", str(out), "--metrics", "ndcg",
                     "--rating-source", "other-users", "--cutoffs", "1-3"]) == 0
        assert (out / "grid_ndcg_log2_six_other-users.tsv").exists()

    def test_click_based_discount_from_weight_file(self, synth_dir, tmp_path):
        weights = tmp_path / "weights.txt"
        weights.write_text("".join(f"{r} {1 / r}\n" for r in range(1, 11)))
        out = tmp_path / "sweep"
        assert main(["sweep", str(synth_dir), "--out", str(out), "--metrics", "ndcg",
                     "--discounts", "click", "--click-weights", str(weights),
                     "--cutoffs", "1-3"]) == 0
        assert (out / "grid_ndcg_click_six_same-user.tsv").exists()

    def test_other_users_with_one_rater_exits_one_without_traceback(self, tmp_path):
        # validates clean, but no result has a second rater to average over
        data = tmp_path / "one_rater"
        assert main(["synth", "--out", str(data), "--queries", "4", "--raters", "1",
                     "--seed", "3"]) == 0
        assert main(["validate", str(data)]) == 0
        proc = run_cli(["sweep", data, "--rating-source", "other-users", "--out", tmp_path / "out"])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stdout + proc.stderr
        assert proc.stderr.startswith("missing judgment: no rater besides 'u01' judged")
        assert len(proc.stderr.splitlines()) == 1

    @pytest.mark.parametrize("command", ["validate", "sweep", "eval", "implicit", "stats"])
    def test_verdict_without_list_pair_exits_one_without_traceback(self, synth_dir, tmp_path,
                                                                     command):
        lists = synth_dir / FILE_NAMES["lists"]
        lines = lists.read_text().splitlines(keepends=True)
        lists.write_text("".join(line for line in lines if not line.startswith("q001\t")))
        argv = {"sweep": ["--out", tmp_path / "out"], "eval": ["--metric", "ndcg"],
                "implicit": ["--measure", "clicks"]}.get(command, [])
        proc = run_cli([command, synth_dir, *argv])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stdout + proc.stderr
        assert ("error: unpaired-preference: rater 'u01' has a verdict for query 'q001',"
                " which has no list pair") in proc.stdout + proc.stderr

    @pytest.mark.parametrize("source", ["same-user", "other-users"])
    def test_judgments_to_rank_five_sweep_to_cutoff_five(self, tmp_path, source):
        # a sweep resolves its lists only as deep as its deepest cut-off
        ds = generate_synthetic(SynthSpec(n_queries=6, n_raters=3, seed=11, n_preferences=12))
        top5 = {p.query_id: {*p.variant_a[:5], *p.variant_b[:5]} for p in ds.list_pairs}
        shallow = with_judgments(ds, [row for row in judgment_rows(ds) if row[1] in top5[row[0]]])
        assert len(shallow.judgments) < len(ds.judgments)
        data = tmp_path / "data"
        write_dataset(shallow, data)
        assert main(["validate", str(data)]) == 1
        assert main(["validate", str(data), "--max-cutoff", "5"]) == 0
        assert main(["sweep", str(data), "--rating-source", source, "--cutoffs", "1-5",
                     "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / f"grid_ndcg_log2_six_{source}.tsv").exists()

    def test_scale_flag_cells_equal_oracle(self, synth_dir, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", str(synth_dir), "--out", str(out), "--metrics", "ndcg",
                     "--scale", "r2_3"]) == 0
        cfg = MetricConfig(Metric.NDCG, DiscountFunction(DiscountKind.LOG2),
                           scale=RelevanceScale.R2_3)
        ds = load_dataset(synth_dir)
        rows = (out / f"grid_{cfg.label()}.tsv").read_text().splitlines()[1:]
        assert len(rows) == len(DEFAULT_THRESHOLDS)
        for t, row in zip(DEFAULT_THRESHOLDS, rows):
            want = [f"{oracle_pir(ds, cfg, t, cutoff=c):.4f}" for c in DEFAULT_CUTOFFS]
            assert row.split("\t") == [f"{t:.4f}", *want]


    def test_every_file_matches_the_grid(self, tmp_path):
        ds = generate_synthetic(SynthSpec(n_queries=6, n_raters=2, seed=2, n_preferences=12))
        # q001's top three results of both variants are all grade 6, so its
        # verdicts drop out of the cut-off 3 rows (no ideal gain, no known
        # relevant result) and stay in the cut-off 7 rows
        pair = ds.list_pairs[0]
        top3 = {*pair.variant_a[:3], *pair.variant_b[:3]}
        ds = with_judgments(ds, [(qid, rid, rater, 6 if qid == pair.query_id and rid in top3 else g)
                                 for qid, rid, rater, g in judgment_rows(ds)])
        write_dataset(ds, tmp_path / "data")
        out = tmp_path / "sweep"
        assert main(["sweep", str(tmp_path / "data"), "--out", str(out), "--plot",
                     "--metrics", "ndcg,map", "--discounts", "log2,rank",
                     "--norm", "known-relevant", "--cutoffs", "7,3",
                     "--thresholds", "0,0.1,0.2"]) == 0

        thresholds, cutoffs = (0, 0.1, 0.2), (7, 3)
        configs = [MetricConfig(metric, DiscountFunction(kind), ap_norm=ApNorm.BY_KNOWN_RELEVANT)
                   for metric in (Metric.NDCG, Metric.MAP)
                   for kind in (DiscountKind.LOG2, DiscountKind.RANK)]
        grid = pir_sweep(load_dataset(tmp_path / "data"), configs, thresholds, cutoffs)
        labels = [cfg.label() for cfg in configs]
        summaries = ["best_threshold_pir", "best_threshold_value", "zero_threshold_pir"]
        assert sorted(path.name for path in out.iterdir()) == sorted(
            [f"{kind}_{label}.{ext}" for label in labels
             for kind, ext in (("grid", "tsv"), ("counts", "tsv"), ("grid", "svg"))]
            + [f"{name}.tsv" for name in summaries]
            + ["best_threshold_pir.svg", "zero_threshold_pir.svg"])
        excluded = {c: grid.row(configs[0], c).excluded for c in cutoffs}
        assert excluded[7] == 0 < excluded[3]

        def table(name):
            return [line.split("\t") for line in (out / name).read_text().splitlines()]

        for cfg in configs:
            rows = {c: grid.row(cfg, c) for c in cutoffs}
            assert table(f"grid_{cfg.label()}.tsv") == [["threshold", "c7", "c3"]] + [
                [f"{t:.4f}"] + [f"{rows[c].cells[i].pir:.4f}" for c in cutoffs]
                for i, t in enumerate(thresholds)]
            assert table(f"counts_{cfg.label()}.tsv") == [
                ["cutoff", "threshold", "pir", *CATEGORIES, "excluded_pairs"]] + [
                [str(c), f"{cell.threshold:.4f}", f"{cell.pir:.4f}"]
                + [str(getattr(cell, name)) for name in CATEGORIES]
                + [str(rows[c].excluded)]
                for c in cutoffs for cell in rows[c].cells]
            svg = (out / f"grid_{cfg.label()}.svg").read_text()
            assert svg.count("<polyline") == len(cutoffs)
        stats = {
            "best_threshold_pir": lambda row: f"{row.best_threshold()[1]:.4f}",
            "best_threshold_value": lambda row: f"{row.best_threshold()[0]:.4f}",
            "zero_threshold_pir": lambda row: f"{row.cells[0].pir:.4f}",
        }
        for name, stat in stats.items():
            assert table(f"{name}.tsv") == [["cutoff", *labels]] + [
                [str(c)] + [stat(grid.row(cfg, c)) for cfg in configs] for c in cutoffs]
        for name in ("best_threshold_pir", "zero_threshold_pir"):
            assert (out / f"{name}.svg").read_text().count("<polyline") == len(configs)


class TestClickTableEncoding:
    @pytest.mark.parametrize("command", ["eval", "sweep", "breakdown"])
    def test_non_utf8_table_exits_two_naming_file_line_and_byte(self, synth_dir, tmp_path,
                                                                 capsys, command):
        weights = tmp_path / "weights.txt"
        weights.write_bytes(b"1 1.0\n2 0.5\n# r\xe9sum\xe9\n3 0.4\n")
        argv = {
            "eval": ["eval", synth_dir, "--metric", "ndcg", "--discount", "click"],
            "sweep": ["sweep", synth_dir, "--discounts", "click", "--out", tmp_path / "out"],
            "breakdown": ["breakdown", synth_dir, "--metric", "map", "--discount", "click",
                          "--threshold", "0"],
        }[command]
        capsys.readouterr()
        assert main([*map(str, argv), "--click-weights", str(weights)]) == 2
        assert capsys.readouterr() == ("", (
            f"usage error: {weights}:3: not valid UTF-8"
            " (byte 0xe9 at offset 15: invalid continuation byte)\n"))

    def test_byte_order_mark_is_dropped(self, synth_dir, tmp_path, capsys):
        # as the reader of every dataset file drops it; the offset of a bad byte still counts it
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        table = b"1 1.0\n2 0.5\n3 0.4\n4 0.3\n5 0.2\n6 0.2\n7 0.1\n8 0.1\n9 0.1\n10 0.1\n"
        plain.write_bytes(table)
        marked.write_bytes(b"\xef\xbb\xbf" + table)
        argv = ["eval", str(synth_dir), "--metric", "ndcg", "--discount", "click"]
        capsys.readouterr()
        assert main([*argv, "--click-weights", str(plain)]) == 0
        want = capsys.readouterr()
        assert main([*argv, "--click-weights", str(marked)]) == 0
        assert capsys.readouterr() == want
        marked.write_bytes(b"\xef\xbb\xbf1 1.0\n# r\xe9sum\xe9\n")
        assert main([*argv, "--click-weights", str(marked)]) == 2
        assert capsys.readouterr() == ("", (
            f"usage error: {marked}:2: not valid UTF-8"
            " (byte 0xe9 at offset 12: invalid continuation byte)\n"))


class TestShortClickTable:
    """A click table must weigh every rank the command evaluates, whatever the data."""

    @pytest.fixture
    def three_ranks(self, tmp_path):
        data = tmp_path / "data"
        assert main(["synth", "--out", str(data), "--queries", "8", "--raters", "3",
                     "--seed", "1"]) == 0
        weights = tmp_path / "weights.txt"
        weights.write_text("1 1.0\n2 0.5\n3 0.4\n")
        return data, weights

    @pytest.mark.parametrize("metric", [m.value for m in Metric])
    @pytest.mark.parametrize("command", ["eval", "sweep", "breakdown"])
    def test_exits_two_before_loading(self, three_ranks, tmp_path, capsys, monkeypatch,
                                      command, metric):
        data, weights = three_ranks
        loads = []
        original = cli.load_dataset

        def counted(*args, **kwargs):
            loads.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "load_dataset", counted)
        argv = {
            "eval": ["eval", data, "--metric", metric, "--discount", "click", "--cutoff", "5"],
            "sweep": ["sweep", data, "--metrics", metric, "--discounts", "click",
                      "--out", tmp_path / "out"],
            "breakdown": ["breakdown", data, "--metric", metric, "--discount", "click",
                          "--threshold", "0"],
        }[command]
        capsys.readouterr()
        assert main([*map(str, argv), "--click-weights", str(weights)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "usage error: click table has no weight for rank 4\n"
        assert loads == []

    def test_table_covering_the_cutoff_is_accepted(self, three_ranks, capsys):
        data, weights = three_ranks
        assert main(["eval", str(data), "--metric", "map", "--discount", "click",
                     "--cutoff", "3", "--click-weights", str(weights)]) == 0


class TestRequestedCutoffs:
    """Every requested cut-off and config, and the threshold grid, are checked before loading."""

    @pytest.mark.parametrize("argv, message", [
        (["eval", "--metric", "ndcg", "--cutoff", "11"], "cut-off must be in 1..10, got 11"),
        (["eval", "--metric", "ndcg", "--cutoff", "0"], "cut-off must be in 1..10, got 0"),
        (["breakdown", "--metric", "map", "--threshold", "0", "--cutoff", "11"],
         "cut-off must be in 1..10, got 11"),
        (["sweep", "--cutoffs", "1-11"], "cut-off must be in 1..10, got 11"),
        (["sweep", "--cutoffs", "3-1"], "no cut-off given"),
        (["sweep", "--cutoffs", "2,2"], "duplicate cut-off 2"),
        (["validate", "--max-cutoff", "0"], "cut-off must be in 1..10, got 0"),
        (["implicit", "--measure", "clicks", "--max-cutoff", "0"],
         "cut-off must be in 1..10, got 0"),
        (["stats", "--max-cutoff", "11"], "cut-off must be in 1..10, got 11"),
        # configs and the threshold grid need no dataset either
        (["sweep", "--metrics", "ndcg,ndcg"], "duplicate configuration 'ndcg_log2_six_same-user'"),
        (["sweep", "--metrics", "ndcg", "--discounts", "log2,log2"],
         "duplicate configuration 'ndcg_log2_six_same-user'"),
        (["eval", "--metric", "esl", "--n", "0"],
         "ESL requires a positive cumulative relevance target esl_n"),
        (["breakdown", "--metric", "ndcg", "--threshold", "-1"], "threshold grid must start at 0"),
        (["sweep", "--thresholds", "0.1,0.2"], "threshold grid must start at 0"),
        (["sweep", "--thresholds", "0,0.2,0.1"], "threshold grid must be strictly increasing"),
        (["breakdown", "--metric", "ndcg", "--threshold", "nan"],
         "--threshold must be a finite number, got 'nan'"),
        (["breakdown", "--metric", "ndcg", "--threshold", "inf"],
         "--threshold must be a finite number, got 'inf'"),
        (["eval", "--metric", "esl", "--n", "nan"], "--n must be a finite number, got 'nan'"),
        (["eval", "--metric", "esl", "--n", "inf"], "--n must be a finite number, got 'inf'"),
        (["sweep", "--metrics", "esl", "--n", "nan"], "--n must be a finite number, got 'nan'"),
        (["breakdown", "--metric", "ndcg", "--threshold", "x"],
         "--threshold must be a finite number, got 'x'"),
        (["eval", "--metric", "esl", "--n", "2,5"], "--n must be a finite number, got '2,5'"),
        # --n that no config would read
        (["eval", "--metric", "ndcg", "--n", "5"], "--n is only meaningful for esl, not ndcg"),
        (["breakdown", "--metric", "map", "--threshold", "0", "--n", "5"],
         "--n is only meaningful for esl, not map"),
        (["sweep", "--metrics", "ndcg,map", "--n", "5"],
         "--n is only meaningful for esl, not ndcg,map"),
        (["implicit", "--measure", "clicks", "--thresholds", "2,1"],
         "threshold grid must be strictly increasing"),
        (["implicit", "--measure", "clicks", "--thresholds=-1,0"],
         "threshold must be >= 0, got -1.0"),
        # --norm and --click-weights that no config would read
        (["eval", "--metric", "precision", "--cutoff", "5", "--norm", "known-relevant"],
         "--norm is only meaningful for map, not precision"),
        (["breakdown", "--metric", "ndcg", "--threshold", "0", "--norm", "evaluated-count"],
         "--norm is only meaningful for map, not ndcg"),
        (["sweep", "--metrics", "ndcg,esl", "--norm", "known-relevant"],
         "--norm is only meaningful for map, not ndcg,esl"),
        (["eval", "--metric", "ndcg", "--click-weights", "/nonexistent/w.txt"],
         "--click-weights is only meaningful for the click discount, not log2"),
        (["breakdown", "--metric", "map", "--threshold", "0", "--click-weights", "w.txt"],
         "--click-weights is only meaningful for the click discount, not rank"),
        (["sweep", "--metrics", "ndcg,map", "--click-weights", "w.txt"],
         "--click-weights is only meaningful for the click discount, not log2,rank"),
    ])
    def test_exits_two_before_loading(self, tmp_path, capsys, monkeypatch, argv, message):
        data = tmp_path / "data"
        assert main(["synth", "--out", str(data), "--queries", "3", "--raters", "2",
                     "--seed", "1"]) == 0
        loads = []
        monkeypatch.setattr(cli, "load_dataset", lambda *args, **kwargs: loads.append(args))
        monkeypatch.setattr(cli, "read_dataset", lambda *args, **kwargs: loads.append(args))
        command, *options = argv
        if command == "sweep":
            options += ["--out", str(tmp_path / "out")]
        capsys.readouterr()
        assert main([command, str(data), *options]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"usage error: {message}\n"
        assert loads == []
        assert not (tmp_path / "out").exists()


class TestArgumentErrors:
    """argparse's own errors are one usage line too; help is untouched."""

    @pytest.mark.parametrize("argv, message", [
        (["eval", "D", "--metric", "ndcg", "--cutoff", "x"],
         "argument --cutoff: invalid int value: 'x'"),
        (["eval", "D", "--metric", "nope"], "argument --metric: invalid choice: 'nope'"),
        (["eval", "D"], "the following arguments are required: --metric"),
        (["stats", "D", "--max-cutoff", "x"], "argument --max-cutoff: invalid int value: 'x'"),
        (["synth", "--out", "D", "--queries", "x", "--raters", "2", "--seed", "1"],
         "argument --queries: invalid int value: 'x'"),
        (["eval", "D", "--metric", "ndcg", "--rating-source", "same-user"],
         "unrecognized arguments: --rating-source same-user"),
        (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
    ])
    def test_is_one_line(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"usage error: {message}")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_help_is_unchanged(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--help"])
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: prefeval eval [-h]") and "--cutoff CUTOFF" in out
        assert err == ""


THRESHOLDS_FORM = "START:STOP:STEP or a comma list of numbers"


class TestMalformedListOptions:
    """A malformed list option is one usage line naming its accepted form, before loading."""

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--cutoffs", "1-3-5"],
         "--cutoffs must be LO-HI or a comma list of integers, got '1-3-5'"),
        (["sweep", "--cutoffs", "1,x"],
         "--cutoffs must be LO-HI or a comma list of integers, got '1,x'"),
        (["sweep", "--thresholds", "0:0.3"], f"--thresholds must be {THRESHOLDS_FORM}, got '0:0.3'"),
        (["sweep", "--thresholds", "0:0.3:0"], "step must be positive"),
        (["sweep", "--thresholds", "0:inf:1"], f"--thresholds must be {THRESHOLDS_FORM}, got '0:inf:1'"),
        (["sweep", "--thresholds", "0,nan"], f"--thresholds must be {THRESHOLDS_FORM}, got '0,nan'"),
        (["breakdown", "--metric", "ndcg", "--threshold", "0", "--thresholds", "0,a"],
         f"--thresholds must be {THRESHOLDS_FORM}, got '0,a'"),
        (["implicit", "--measure", "clicks", "--thresholds", "0:1:x"],
         f"--thresholds must be {THRESHOLDS_FORM}, got '0:1:x'"),
        (["implicit", "--measure", "clicks", "--band", "5"], "--band must be LO:HI, got '5'"),
        (["implicit", "--measure", "clicks", "--band", "5:1"],
         "band must be LO:HI with LO <= HI, got 5:1"),
        (["synth", "--queries", "2", "--raters", "1", "--seed", "1", "--grades-a", "x"],
         "--grades-a must be a comma list of numbers, got 'x'"),
        (["sweep", "--thresholds", "0:1e400:1"],
         f"--thresholds must be {THRESHOLDS_FORM}, got '0:1e400:1'"),
        (["synth", "--queries", "2", "--raters", "1", "--seed", "1", "--equal-margin", "nan"],
         "equal_margin must be finite and >= 0"),
        (["synth", "--queries", "2", "--raters", "1", "--seed", "1", "--click-rate=-1"],
         "click_rate must be in [0, 1]"),
    ])
    def test_exits_two_before_loading(self, tmp_path, capsys, monkeypatch, argv, message):
        loads = []
        monkeypatch.setattr(cli, "load_dataset", lambda *args, **kwargs: loads.append(args))
        command, *options = argv
        if command != "synth":
            options.insert(0, str(tmp_path / "data"))
        if command in ("sweep", "synth"):
            options += ["--out", str(tmp_path / "out")]
        assert main([command, *options]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"usage error: {message}\n"
        assert loads == []
        assert not (tmp_path / "out").exists()



class TestEmptyOptionValues:
    """A typed empty value is a usage error, not the option's absence, before loading."""

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--thresholds="], f"--thresholds must be {THRESHOLDS_FORM}, got ''"),
        (["breakdown", "--metric", "ndcg", "--threshold", "0", "--thresholds="],
         f"--thresholds must be {THRESHOLDS_FORM}, got ''"),
        (["implicit", "--measure", "clicks", "--thresholds="],
         f"--thresholds must be {THRESHOLDS_FORM}, got ''"),
        (["implicit", "--measure", "clicks", "--band="], "--band must be LO:HI, got ''"),
        (["sweep", "--discounts="], "'' is not a valid DiscountKind"),
        (["synth", "--queries", "2", "--raters", "1", "--seed", "1", "--grades-a="],
         "--grades-a must be a comma list of numbers, got ''"),
        (["synth", "--queries", "2", "--raters", "1", "--seed", "1", "--grades-b="],
         "--grades-b must be a comma list of numbers, got ''"),
    ], ids=["sweep-thresholds", "breakdown-thresholds", "implicit-thresholds", "band",
            "discounts", "grades-a", "grades-b"])
    def test_exits_two_before_loading(self, tmp_path, capsys, monkeypatch, argv, message):
        loads = []
        monkeypatch.setattr(cli, "load_dataset", lambda *args, **kwargs: loads.append(args))
        command, *options = argv
        if command != "synth":
            options.insert(0, str(tmp_path / "data"))
        if command in ("sweep", "synth"):
            options += ["--out", str(tmp_path / "out")]
        assert main([command, *options]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"usage error: {message}\n"
        assert loads == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, option", [
        (["validate", ""], "dataset"),
        (["eval", "{data}", "--metric", "ndcg", "--click-weights="], "--click-weights"),
        (["sweep", "{data}", "--discounts", "click", "--click-weights=", "--out", "{out}"],
         "--click-weights"),
        (["sweep", "{data}", "--out="], "--out"),
        (["breakdown", "{data}", "--metric", "ndcg", "--threshold", "0", "--series="],
         "--series"),
        (["implicit", "{data}", "--measure", "clicks", "--out="], "--out"),
        (["synth", "--queries", "2", "--raters", "1", "--seed", "1", "--out="], "--out"),
    ], ids=["dataset", "eval-click-weights", "sweep-click-weights", "sweep-out", "series",
            "implicit-out", "synth-out"])
    def test_empty_path_is_not_the_current_directory(self, synth_dir, tmp_path, capsys,
                                                     monkeypatch, argv, option):
        loads = []
        monkeypatch.setattr(cli, "load_dataset", lambda *args, **kwargs: loads.append(args))
        monkeypatch.chdir(tmp_path)
        argv = [arg.replace("{data}", str(synth_dir)).replace("{out}", "out") for arg in argv]
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"usage error: argument {option}: must name a file or directory, got ''\n"
        assert loads == []
        assert sorted(path.name for path in tmp_path.iterdir()) == ["ds"]


class TestModuleEntryPoint:
    """``python -m prefeval`` runs the command line with its exit codes."""

    def run(self, *argv):
        env = dict(os.environ, PYTHONPATH=str(Path(prefeval.__file__).parent.parent))
        return subprocess.run([sys.executable, "-m", "prefeval", *argv],
                              capture_output=True, text=True, env=env)

    def test_help_exits_zero(self):
        proc = self.run("--help")
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: prefeval [-h]")

    def test_usage_error_exits_two(self):
        proc = self.run("frobnicate")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("usage error: argument command: invalid choice")
        assert proc.stderr.count("\n") == 1


class TestNegativeZeroThreshold:
    """A typed -0 threshold reads as 0, so no output labels it -0.0000."""

    @pytest.mark.parametrize("argv, zero_label", [
        (["breakdown", "--metric", "ndcg", "--cutoff", "5", "--threshold", "-0",
          "--series", "{out}"], "threshold 0.0000\n"),
        (["implicit", "--measure", "clicks", "--thresholds=-0,1", "--out", "{out}"],
         "\n0.0000\t"),
        (["sweep", "--metrics", "ndcg", "--cutoffs", "5", "--thresholds=-0,0.1", "--out", "{out}"],
         "\n5\t0.0000\n"),
    ], ids=["breakdown", "implicit", "sweep"])
    def test_prints_as_zero(self, synth_dir, tmp_path, capsys, argv, zero_label):
        out = tmp_path / "out"
        command, *options = (arg.replace("{out}", str(out)) for arg in argv)
        capsys.readouterr()
        assert main([command, str(synth_dir), *options]) == 0
        written = sorted(out.iterdir()) if out.is_dir() else [out]
        text = capsys.readouterr().out + "".join(path.read_text() for path in written)
        assert zero_label in text
        assert "-0.0000" not in text


class TestStepGrid:
    """The points of a START:STOP:STEP grid are the decimals typed, not accumulated floats."""

    def test_points_are_the_typed_decimals(self):
        assert cli._parse_float_grid("0:0.3:0.05") == (0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3)
        assert cli._parse_float_grid("0:0.3:0.01") == DEFAULT_THRESHOLDS

    def test_a_grid_point_is_not_repeated_as_the_threshold(self, synth_dir, tmp_path):
        series = tmp_path / "series.tsv"
        assert main(["breakdown", str(synth_dir), "--metric", "ndcg", "--threshold", "0.15",
                     "--thresholds", "0:0.3:0.05", "--series", str(series)]) == 0
        rows = series.read_text().splitlines()[1:]
        assert [row.split("\t")[0] for row in rows] == [
            "0.0000", "0.0500", "0.1000", "0.1500", "0.2000", "0.2500", "0.3000"]

    @pytest.mark.parametrize("command, grid", [
        ("sweep", "0:1e300:1e-300"),
        ("implicit", "0:1e300:1e-300"),
        ("sweep", f"0:{cli.MAX_GRID_POINTS}:1"),  # one point over the cap
        ("implicit", "1:0:1"),  # empty
    ], ids=["overflow-sweep", "overflow-implicit", "cap-plus-one", "empty"])
    def test_unbuildable_grid_exits_two_without_traceback(self, synth_dir, tmp_path, command,
                                                          grid):
        extra = ["--out", tmp_path / "out"] if command == "sweep" else ["--measure", "clicks"]
        proc = run_cli([command, synth_dir, "--thresholds", grid, *extra])
        message = (f"--thresholds START:STOP:STEP must have STOP >= START and at most"
                   f" {cli.MAX_GRID_POINTS} points, got '{grid}'")
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"usage error: {message}\n")

    @pytest.mark.parametrize("argv, points", [
        (["sweep", "--metrics", "ndcg", "--cutoffs", "5", "--thresholds", "0:0.36:0.1",
          "--out", "{out}"], 4),
        (["breakdown", "--metric", "ndcg", "--threshold", "0", "--thresholds", "0:0.55:0.1",
          "--series", "{out}"], 6),
        (["implicit", "--measure", "clicks", "--thresholds", "0:11:3", "--out", "{out}"], 4),
    ], ids=["sweep", "breakdown", "implicit"])
    def test_last_point_does_not_pass_stop(self, synth_dir, tmp_path, argv, points):
        out = tmp_path / "out"
        command, *options = (arg.replace("{out}", str(out)) for arg in argv)
        stop, step = options[options.index("--thresholds") + 1].split(":")[1:]
        assert main([command, str(synth_dir), *options]) == 0
        table = next(out.glob("grid_*.tsv")) if out.is_dir() else out
        got = [row.split("\t")[0] for row in table.read_text().splitlines()[1:]]
        assert got == [f"{k * float(step):.4f}" for k in range(points)]
        assert float(got[-1]) <= float(stop) < float(got[-1]) + float(step)

    def test_cap_counts_points(self, monkeypatch):
        monkeypatch.setattr(cli, "MAX_GRID_POINTS", 5)
        assert cli._parse_float_grid("0:0.4:0.1") == (0.0, 0.1, 0.2, 0.3, 0.4)
        with pytest.raises(ValueError, match="at most 5 points"):
            cli._parse_float_grid("0:0.5:0.1")


class TestBreakdownCommand:
    def test_category_table(self, tmp_path, sample_pir_dataset, capsys):
        write_dataset(sample_pir_dataset, tmp_path)
        code = main(["breakdown", str(tmp_path), "--metric", "precision",
                     "--threshold", "0", "--cutoff", "10"])
        assert code == 0
        out = capsys.readouterr().out
        assert "correct_pref\t3\t0.6000" in out
        assert "reversed_pref\t1\t0.2000" in out
        assert "pir\t0.7500" in out

    def test_series_file(self, tmp_path, sample_pir_dataset):
        data = tmp_path / "d"
        write_dataset(sample_pir_dataset, data)
        series = tmp_path / "series.tsv"
        assert main(["breakdown", str(data), "--metric", "precision",
                     "--threshold", "0.15", "--series", str(series)]) == 0
        rows = series.read_text().splitlines()
        assert rows[0].split("\t")[:2] == ["threshold", "correct_pref"]
        assert len(rows) == 1 + 31

    def test_no_preferences_exits_three(self, tmp_path, two_query_map_dataset):
        ds = dataclasses.replace(two_query_map_dataset, preferences=())
        write_dataset(ds, tmp_path)
        assert main(["breakdown", str(tmp_path), "--metric", "precision",
                     "--threshold", "0", "--cutoff", "5"]) == 3

    def test_rating_source_changes_the_outcomes(self, tmp_path, capsys):
        data = tmp_path / "noisy"
        assert main(["synth", "--out", str(data), "--queries", "8", "--raters", "3",
                     "--seed", "5", "--preferences", "16", "--rater-noise", "0.5"]) == 0
        tables = {}
        for source in ("same-user", "other-users"):
            capsys.readouterr()
            assert main(["breakdown", str(data), "--metric", "ndcg", "--cutoff", "5",
                         "--threshold", "0.1", "--rating-source", source]) == 0
            # the first line names the config, rating source included
            tables[source] = capsys.readouterr().out.splitlines()[1:]
        assert tables["same-user"] != tables["other-users"]

    def test_negative_threshold_is_usage_error(self, synth_dir, capsys):
        capsys.readouterr()
        assert main(["breakdown", str(synth_dir), "--metric", "ndcg", "--threshold", "-0.1"]) == 2
        assert capsys.readouterr() == ("", "usage error: threshold grid must start at 0\n")


class TestBreakdownIsASweepRow:
    """breakdown's counts and PIR equal the matching counts_<label>.tsv row of a sweep."""

    # flags for both commands, breakdown's --threshold and --thresholds, sweep's --thresholds
    SCENARIOS = {
        "same-user": ([], "0.05", None, None),
        "other-users": (["--rating-source", "other-users"], "0.05", None, None),
        "query-type": (["--query-type", "informational"], "0.05", None, None),
        "lenient-unjudged": (["--lenient"], "0.05", None, None),
        "off-grid-threshold": ([], "0.15", "0,0.1,0.2", "0,0.1,0.15,0.2"),
    }

    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("metric", [m.value for m in Metric])
    def test_counts_and_pir_match(self, synth_dir, tmp_path, capsys, metric, scenario):
        flags, threshold, grid, sweep_grid = self.SCENARIOS[scenario]
        if scenario == "lenient-unjudged":
            victim = load_dataset(synth_dir).list_pairs[0].variant_a[0]
            path = synth_dir / FILE_NAMES["judgments"]
            lines = path.read_text().splitlines()
            path.write_text("".join(f"{line}\n" for line in lines if line.split("\t")[1] != victim))
        breakdown = ["breakdown", str(synth_dir), "--metric", metric, "--cutoff", "5",
                     "--threshold", threshold, *flags]
        sweep = ["sweep", str(synth_dir), "--metrics", metric, "--cutoffs", "5",
                 "--out", str(tmp_path / "sweep"), *flags]
        if grid:
            breakdown += ["--thresholds", grid]
            sweep += ["--thresholds", sweep_grid]
        capsys.readouterr()
        assert main(breakdown) == 0
        out, err = capsys.readouterr()
        lines = out.splitlines()
        label = lines[0].split()[1]
        printed = dict(line.split("\t")[:2] for line in lines[2:])
        excluded = err.removeprefix("excluded pairs: ").strip() or "0"
        assert main(sweep) == 0
        rows = (tmp_path / "sweep" / f"counts_{label}.tsv").read_text().splitlines()
        (row,) = [r.split("\t") for r in rows[1:] if r.split("\t")[1] == f"{float(threshold):.4f}"]
        assert row == ["5", f"{float(threshold):.4f}", printed["pir"],
                       *(printed[name] for name in CATEGORIES), excluded]


class TestImplicitCommand:
    def test_series_and_out_file(self, synth_dir, tmp_path, capsys):
        out_file = tmp_path / "implicit.tsv"
        code = main(["implicit", str(synth_dir), "--measure", "mean-click-rank",
                     "--out", str(out_file)])
        assert code == 0
        assert "best" in capsys.readouterr().out
        assert out_file.read_text().startswith("threshold\tpir")

    def test_no_sessions_exits_three(self, tmp_path, sample_pir_dataset):
        write_dataset(sample_pir_dataset, tmp_path)
        assert main(["implicit", str(tmp_path), "--measure", "clicks"]) == 3

    def test_direction_flag(self, synth_dir, capsys):
        assert main(["implicit", str(synth_dir), "--measure", "duration",
                     "--direction", "higher-better", "--thresholds", "0,30"]) == 0

    @pytest.mark.parametrize("measure", ["duration", "clicks", "mean-click-rank",
                                         "first-click-rank"])
    def test_default_direction_is_lower_better(self, synth_dir, capsys, measure):
        argv = ["implicit", str(synth_dir), "--measure", measure]
        capsys.readouterr()
        assert main(argv) == 0
        default = capsys.readouterr()
        assert main([*argv, "--direction", "lower-better"]) == 0
        assert capsys.readouterr() == default

    def test_band_filter(self, synth_dir, capsys):
        code = main(["implicit", str(synth_dir), "--measure", "duration",
                     "--band", "0:45", "--thresholds", "0,10"])
        assert code in (0, 3)  # narrow bands may leave nothing to compare
        assert main(["implicit", str(synth_dir), "--measure", "duration",
                     "--band", "45:0"]) == 2

    @pytest.mark.parametrize("grid", ["3,1,2", "0,1,1"])
    def test_grid_must_increase_strictly(self, synth_dir, capsys, grid):
        capsys.readouterr()
        assert main(["implicit", str(synth_dir), "--measure", "clicks",
                     "--thresholds", grid]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "usage error: threshold grid must be strictly increasing\n"

    def test_last_click_endpoint_table(self, synth_dir, capsys):
        capsys.readouterr()
        assert main(["implicit", str(synth_dir), "--measure", "duration",
                     "--endpoint", "last-click"]) == 0
        lines = capsys.readouterr().out.splitlines()
        ds = load_dataset(synth_dir)
        series = implicit_pir(ds, ImplicitMeasure.DURATION, endpoint=SessionEndpoint.LAST_CLICK)
        assert lines[1:-1] == [f"{cell.threshold:.4f}\t{cell.pir:.4f}" for cell in series.cells]
        # the flag matters on this dataset: the explicit end gives other cells
        assert series.cells != implicit_pir(ds, ImplicitMeasure.DURATION).cells


class TestOutputPathErrors:
    """An unusable output path is exit 1 with one line on stderr, never a traceback."""

    # {file} is an existing regular file, {dir} an existing directory
    CASES = {
        "sweep-out-is-file": ["sweep", "{ds}", "--metrics", "mrr", "--cutoffs", "1",
                              "--out", "{file}"],
        "sweep-out-under-file": ["sweep", "{ds}", "--metrics", "mrr", "--cutoffs", "1",
                                 "--out", "{file}/sub"],
        "implicit-out-is-dir": ["implicit", "{ds}", "--measure", "clicks", "--out", "{dir}"],
        "breakdown-series-is-dir": ["breakdown", "{ds}", "--metric", "mrr", "--threshold", "0",
                                    "--series", "{dir}"],
        "synth-out-is-file": ["synth", "--out", "{file}", "--queries", "3", "--raters", "2",
                              "--seed", "1"],
    }

    @pytest.mark.parametrize("case", CASES)
    def test_exits_one_without_traceback(self, synth_dir, tmp_path, case):
        (tmp_path / "file").write_text("taken\n")
        (tmp_path / "dir").mkdir()
        argv = [arg.format(ds=synth_dir, file=tmp_path / "file", dir=tmp_path / "dir")
                for arg in self.CASES[case]]
        proc = run_cli(argv)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("file error: ")
        assert len(proc.stderr.splitlines()) == 1


class TestRemovedOptions:
    @pytest.mark.parametrize("command", [
        ["eval", "--metric", "mrr"],
        ["sweep", "--metrics", "mrr", "--out", "unused"],
        ["breakdown", "--metric", "mrr", "--threshold", "0"],
    ], ids=lambda command: command[0])
    def test_rr_threshold_is_usage_error(self, synth_dir, capsys, command):
        # MRR counts a result as relevant when its unit relevance is above 0
        with pytest.raises(SystemExit) as exc:
            main([command[0], str(synth_dir), *command[1:], "--rr-threshold", "0.2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --rr-threshold" in capsys.readouterr().err


class TestStatsCommand:
    def test_report_sections(self, synth_dir, capsys):
        assert main(["stats", str(synth_dir)]) == 0
        out = capsys.readouterr().out
        assert "variant A" in out and "variant B" in out
        assert "zero-click share" in out
        assert "query type informational" in out

    def test_sessionless_dataset(self, tmp_path, sample_pir_dataset, capsys):
        write_dataset(sample_pir_dataset, tmp_path)
        assert main(["stats", str(tmp_path)]) == 0
        assert "undefined (no sessions)" in capsys.readouterr().out


class TestSynthCommand:
    def test_written_dataset_loads_strict(self, synth_dir):
        ds = load_dataset(synth_dir)
        assert len(ds.queries) == 8
        assert len(ds.preferences) == 16

    def test_deterministic_across_runs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["synth", "--out", str(out), "--queries", "4", "--raters", "2",
                         "--seed", "123"]) == 0
        for name in FILE_NAMES.values():
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_infeasible_spec_is_usage_error(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path / "x"), "--queries", "2",
                     "--raters", "1", "--seed", "1", "--preferences", "4"]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_warns_when_other_users_cannot_sweep_the_output(self, tmp_path, capsys):
        # one verdict per query: its rater is the query's only judge
        data = tmp_path / "ds"
        assert main(["synth", "--out", str(data), "--queries", "20", "--raters", "4",
                     "--seed", "3"]) == 0
        captured = capsys.readouterr()
        assert captured.out == (f"wrote 20 queries, 400 judgments, 20 preferences,"
                                f" 40 sessions to {data}\n")
        assert captured.err == (
            "warning: --rating-source other-users cannot sweep this dataset: no rater besides"
            " 'u01' judged ('q001', 'q001-a01'); give each query two or more verdicts"
            " (--preferences >= 2 x --queries)\n")
        assert main(["sweep", str(data), "--rating-source", "other-users",
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(
            "missing judgment: no rater besides 'u01' judged ('q001', 'q001-a01')")

    @pytest.mark.parametrize("seed", [901, 2010])
    def test_study_shaped_output_sweeps_with_other_users_silently(self, tmp_path, capsys, seed):
        data = tmp_path / "ds"
        assert main(["synth", "--out", str(data), "--queries", "42", "--raters", "31",
                     "--seed", str(seed), "--preferences", "147"]) == 0
        assert capsys.readouterr().err == ""
        assert main(["sweep", str(data), "--rating-source", "other-users", "--metrics", "ndcg",
                     "--out", str(tmp_path / "out")]) == 0


class TestSessionsInCli:
    def test_sessions_round_trip_through_cli_files(self, tmp_path, sample_pir_dataset):
        ds = dataclasses.replace(
            sample_pir_dataset,
            sessions=(
                make_session(qid="q1", variant=Variant.A, start=100, end=160,
                             click_ranks_ts=((1, 110), (2, 130)), satisfied=True),
                make_session(qid="q1", variant=Variant.B, start=100, end=120,
                             satisfied=False),
            ),
        )
        write_dataset(ds, tmp_path)
        assert load_dataset(tmp_path) == ds


GOLDEN_CLEAN = Path(__file__).resolve().parent / "fixtures" / "golden" / "clean"


def _malformed_session(root):
    path = root / FILE_NAMES["sessions"]
    lines = path.read_text().splitlines(keepends=True)
    lines[1] = lines[1].split("\t", 1)[0] + "\n"  # a session record of one field
    path.write_text("".join(lines))


def _orphan_click(root):
    with open(root / FILE_NAMES["clicks"], "a") as fh:
        fh.write("q001\tnobody\tA\t1\t1500000012\n")


def _non_utf8_click(root):
    path = root / FILE_NAMES["clicks"]
    path.write_bytes(path.read_bytes().replace(b"\tA\t", b"\t\xffA\t", 1))


SESSION_FAULTS = {"malformed-session": ("sessions", _malformed_session),
                  "orphan-click": ("clicks", _orphan_click),
                  "non-utf8-click": ("clicks", _non_utf8_click)}


class TestSessionFilesAreReadOnlyByTheCommandsThatUseThem:
    """A damaged session or click file fails validate/implicit/stats and no scoring command."""

    def run(self, tmp_path, capsys, command, fault=None):
        """Exit code, stdout, stderr and written bytes of ``command`` on a copy of ``clean``."""
        data, out = tmp_path / f"data-{fault}", tmp_path / f"out-{fault}"
        shutil.copytree(GOLDEN_CLEAN, data)
        out.mkdir()
        if fault is not None:
            SESSION_FAULTS[fault][1](data)
        code = main([word.format(data=data, out=out) for word in command.split()])
        captured = capsys.readouterr()
        files = {path.relative_to(out): path.read_bytes()
                 for path in sorted(out.rglob("*")) if path.is_file()}
        return (code, captured.out.replace(str(out), "{out}"),
                captured.err.replace(str(out), "{out}"), files)

    @pytest.mark.parametrize("fault", SESSION_FAULTS)
    @pytest.mark.parametrize("command", [
        "sweep {data} --plot --out {out}",
        "eval {data} --metric ndcg --cutoff 5",
        "breakdown {data} --metric ndcg --cutoff 5 --threshold 0.1 --series {out}/series.tsv",
    ])
    def test_scoring_commands_do_not_see_the_fault(self, tmp_path, capsys, command, fault):
        clean = self.run(tmp_path, capsys, command)
        assert clean[0] == 0
        assert self.run(tmp_path, capsys, command, fault) == clean

    @pytest.mark.parametrize("fault", SESSION_FAULTS)
    @pytest.mark.parametrize("command", [
        "validate {data}", "implicit {data} --measure clicks", "stats {data}",
    ])
    def test_session_commands_fail_on_one_located_line(self, tmp_path, capsys, command, fault):
        code, stdout, stderr, _ = self.run(tmp_path, capsys, command, fault)
        path = tmp_path / f"data-{fault}" / FILE_NAMES[SESSION_FAULTS[fault][0]]
        assert (code, stdout) == (1, "")
        assert re.fullmatch(re.escape(str(path)) + r":\d+: [^\n]+\n", stderr), stderr
