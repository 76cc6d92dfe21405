"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess

import pytest

from qsrbench.cli import main
from qsrbench.dataio import read_records
from qsrbench.solver import TIGHTNESS_KINDS

GEN_ARGS = [
    "generate",
    "--n", "4",
    "--m", "3",
    "--d", "81",
    "--setting", "O2+D2",
    "--qtype", "YN",
    "--count", "6",
    "--seed", "11",
]


def run_generate(tmp_path, name="ds.jsonl", extra=(), args=None):
    out = tmp_path / name
    argv = list(args or GEN_ARGS) + list(extra) + ["--out", str(out)]
    assert main(argv) == 0
    return out


class TestGenerate:
    def test_writes_dataset_and_summary(self, tmp_path, capsys):
        out = run_generate(tmp_path)
        printed = capsys.readouterr().out
        assert "wrote 6 instances" in printed
        assert "sha256:" in printed
        assert "yes fraction:" in printed
        assert len(read_records(out)) == 6

    def test_deterministic_across_runs(self, tmp_path, capsys):
        a = run_generate(tmp_path, "a.jsonl")
        b = run_generate(tmp_path, "b.jsonl")
        assert a.read_bytes() == b.read_bytes()
        out = capsys.readouterr().out
        shas = [line for line in out.splitlines() if line.startswith("sha256:")]
        assert len(set(shas)) == 1

    def test_invalid_m_is_usage_error(self, tmp_path, capsys):
        argv = [
            "generate", "--n", "5", "--m", "10", "--d", "81",
            "--setting", "O2", "--qtype", "YN", "--count", "1",
            "--seed", "0", "--out", str(tmp_path / "x.jsonl"),
        ]
        assert main(argv) == 1
        assert "error" in capsys.readouterr().err

    def test_invalid_d_is_usage_error(self, tmp_path):
        argv = [
            "generate", "--n", "3", "--m", "2", "--d", "100",
            "--setting", "O2", "--qtype", "YN", "--count", "1",
            "--seed", "0", "--out", str(tmp_path / "x.jsonl"),
        ]
        assert main(argv) == 1

    def test_missing_required_flag_exits_one(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["generate", "--n", "4"])
        assert err.value.code == 1

    def test_unknown_command_exits_one(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 1

    @pytest.mark.parametrize(
        "setting, qtype, sha256, unsat",
        [
            pytest.param(setting, qtype, sha256, unsat, id=f"{setting}-{qtype}-{sha256}")
            for setting, qtype, sha256, unsat in [
                # the YN No and Yes branches, no unary constraints
                ("O2+D2", "YN", "efa44f6183faf5df65d9a75a50ac5ad82f74e5974a9177abbd1d3f3669d10a79", 0),
                # the FR base solve and gold probe, with region unaries
                ("O2+D3+Layout", "FR", "8c07f711fbffb3595f401bc9b5ed006ec6dac0201b4ea1fa9541818772664a29", 7),
                ("TPP", "FR", "07e63f094a987597e247324ffcb74c13ad0cf1d0bd48e63286e45a6fe3f0ffc8", 6),
            ]
        ],
    )
    def test_pinned_dataset_bytes(self, tmp_path, capsys, setting, qtype, sha256, unsat):
        # a solver or generator change that keeps datasets byte-identical
        # must keep these; a deliberate change re-pins them
        args = [
            "generate", "--seed", "0", "--count", "150", "--n", "5", "--m", "4",
            "--d", "144", "--setting", setting, "--qtype", qtype,
        ]
        out = run_generate(tmp_path, args=args)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256
        assert f"unsatisfiable stories: {unsat}\n" in capsys.readouterr().out


class TestStats:
    def test_dataset_summary(self, tmp_path, capsys):
        out = run_generate(tmp_path)
        capsys.readouterr()
        assert main(["stats", "--dataset", str(out)]) == 0
        printed = capsys.readouterr().out
        assert printed.startswith("6 instances;")
        assert "O2+D2" in printed
        assert "n=4 m=3 d=81" in printed
        assert "labels:" in printed

    def test_sweep_to_stdout(self, capsys):
        argv = [
            "stats", "--sweep", "--seed", "2", "--rooms", "2",
            "--setting", "O2", "--d", "81",
        ]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        lines = printed.strip().splitlines()
        assert lines[0].startswith("sweep,setting,d,n,m,count,")
        assert len(lines) == 1 + 5 + 9  # header + n-sweep + m-sweep
        assert all(line.split(",")[5] == "2" for line in lines[1:])

    def test_sweep_to_file(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        argv = [
            "stats", "--sweep", "--seed", "2", "--rooms", "2",
            "--setting", "O2", "--d", "81", "--out", str(out),
        ]
        assert main(argv) == 0
        assert "wrote 14 sweep cells" in capsys.readouterr().out
        assert out.read_text().startswith("sweep,setting,")

    def test_requires_dataset_or_sweep(self, capsys):
        assert main(["stats"]) == 1
        assert "provide --dataset or --sweep" in capsys.readouterr().err

    def test_bad_record_exits_one_with_file_and_line(self, tmp_path, capsys):
        ds = run_generate(tmp_path)
        lines = ds.read_text().splitlines(keepends=True)
        rec = json.loads(lines[2])
        del rec["story"]
        lines[2] = json.dumps(rec) + "\n"
        ds.write_text("".join(lines), encoding="utf-8")
        capsys.readouterr()
        assert main(["stats", "--dataset", str(ds)]) == 1
        assert f"{ds}:3: missing field 'story'" in capsys.readouterr().err


class TestGrade:
    def _answer_file(self, tmp_path, dataset, mutate=None):
        rows = read_records(dataset)
        answers = {rec["id"]: rec["gold"]["yn_label"] for rec in rows}
        if mutate:
            mutate(answers)
        path = tmp_path / "answers.jsonl"
        path.write_text(
            "".join(
                json.dumps({"id": k, "text": v}) + "\n" for k, v in answers.items()
            ),
            encoding="utf-8",
        )
        return path

    def test_grades_gold_answers_perfectly(self, tmp_path, capsys):
        ds = run_generate(tmp_path)
        answers = self._answer_file(tmp_path, ds)
        capsys.readouterr()
        assert main(["grade", "--dataset", str(ds), "--answers", str(answers)]) == 0
        printed = capsys.readouterr().out
        assert "graded 6 answers; overall accuracy 1.000" in printed

    def test_unknown_answer_id_exits_two(self, tmp_path, capsys):
        ds = run_generate(tmp_path)

        def add_stray(answers):
            answers[99] = "Yes"

        answers = self._answer_file(tmp_path, ds, add_stray)
        capsys.readouterr()
        assert main(["grade", "--dataset", str(ds), "--answers", str(answers)]) == 2
        assert "answer id 99 does not appear" in capsys.readouterr().err

    def test_missing_answer_exits_two(self, tmp_path, capsys):
        ds = run_generate(tmp_path)

        def drop_first(answers):
            del answers[0]

        answers = self._answer_file(tmp_path, ds, drop_first)
        capsys.readouterr()
        assert main(["grade", "--dataset", str(ds), "--answers", str(answers)]) == 2
        assert "no answer for instance id 0" in capsys.readouterr().err

    def test_repeated_instance_ids_exit_one(self, tmp_path, capsys):
        ds = run_generate(tmp_path)
        answers = self._answer_file(tmp_path, ds)
        doubled = tmp_path / "doubled.jsonl"
        doubled.write_text(ds.read_text() * 2, encoding="utf-8")
        capsys.readouterr()
        assert main(["grade", "--dataset", str(doubled), "--answers", str(answers)]) == 1
        assert "instance id 0 appears more than once" in capsys.readouterr().err

    def test_metrics_output_json_and_csv(self, tmp_path, capsys):
        ds = run_generate(tmp_path)
        answers = self._answer_file(tmp_path, ds)
        as_json = tmp_path / "metrics.json"
        as_csv = tmp_path / "metrics.csv"
        assert main(
            ["grade", "--dataset", str(ds), "--answers", str(answers),
             "--out", str(as_json)]
        ) == 0
        assert main(
            ["grade", "--dataset", str(ds), "--answers", str(answers),
             "--out", str(as_csv)]
        ) == 0
        payload = json.loads(as_json.read_text())
        assert payload[0]["accuracy"] == 1.0
        assert as_csv.read_text().startswith("n,m,d,setting,view,qtype,")


class TestEval:
    def test_gold_stub_end_to_end(self, tmp_path, capsys):
        ds = run_generate(tmp_path)
        records = tmp_path / "records.jsonl"
        metrics = tmp_path / "metrics.csv"
        manifest = tmp_path / "manifest.json"
        argv = [
            "eval", "--dataset", str(ds), "--stub", "gold",
            "--out", str(records), "--metrics", str(metrics),
            "--manifest", str(manifest),
        ]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        assert "accuracy: 1.000" in printed
        rows = read_records(records)
        assert [r["id"] for r in rows] == list(range(6))
        assert all(r["error"] is None for r in rows)
        assert metrics.read_text().startswith("n,m,d,")
        payload = json.loads(manifest.read_text())
        assert payload["mode"] == "stub:gold"
        assert payload["count"] == 6
        assert "dataset_sha256" in payload

    def test_random_stub_repeatable(self, tmp_path, capsys):
        ds = run_generate(tmp_path)
        first = tmp_path / "r1.jsonl"
        second = tmp_path / "r2.jsonl"
        for out in (first, second):
            argv = [
                "eval", "--dataset", str(ds), "--stub", "random",
                "--stub-seed", "9", "--out", str(out),
            ]
            assert main(argv) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_repeated_instance_ids_exit_one_before_writing(self, tmp_path, capsys):
        ds = run_generate(tmp_path)
        doubled = tmp_path / "doubled.jsonl"
        doubled.write_text(ds.read_text() * 2, encoding="utf-8")
        records = tmp_path / "records.jsonl"
        capsys.readouterr()
        argv = [
            "eval", "--dataset", str(doubled), "--stub", "random",
            "--out", str(records),
        ]
        assert main(argv) == 1
        assert "instance id 0 appears more than once" in capsys.readouterr().err
        assert not records.exists()

    def test_endpoint_requires_key_before_reading_dataset(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.delenv("QSRBENCH_API_KEY", raising=False)
        records = tmp_path / "records.jsonl"
        argv = [
            "eval", "--dataset", str(tmp_path / "missing.jsonl"),
            "--base-url", "https://api.example.test", "--model", "demo",
            "--out", str(records),
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "QSRBENCH_API_KEY" in err
        assert not records.exists()

    def test_requires_stub_or_endpoint(self, tmp_path, capsys):
        ds = run_generate(tmp_path)
        capsys.readouterr()
        argv = ["eval", "--dataset", str(ds), "--out", str(tmp_path / "r.jsonl")]
        assert main(argv) == 1
        assert "provide --stub or both" in capsys.readouterr().err


class TestTightness:
    def test_prints_table(self, capsys):
        assert main(["tightness", "--d", "81"]) == 0
        printed = capsys.readouterr().out
        lines = printed.strip().splitlines()
        assert len(lines) == 1 + len(TIGHTNESS_KINDS)
        assert lines[0].split() == ["constraint", "analytic", "empirical", "abs", "error"]

    @pytest.mark.parametrize("d", ["0", "-9", "22500"])
    def test_bad_grid_size_is_usage_error(self, capsys, d):
        # 22500 is a valid grid, too large for the exhaustive count
        assert main(["tightness", "--d", d]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("qsrbench: error:")


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        exe = shutil.which("qsrbench")
        if exe is None:
            pytest.skip("console script not installed")
        out = tmp_path / "ds.jsonl"
        result = subprocess.run(
            [exe, *GEN_ARGS, "--out", str(out)],
            capture_output=True,
            text=True,
            check=False,
        )
        assert result.returncode == 0
        assert "wrote 6 instances" in result.stdout
