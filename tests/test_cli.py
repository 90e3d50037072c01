"""Command-line interface: subcommand behavior, option precedence, and the
documented exit codes."""

import hashlib
import json
import os
import signal
import subprocess
import sys

import pytest

from pidf import PidfReport, SubsetCapError, cli, estimators, population_table, render_json


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_writes_csv_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--dataset", "rvq", "--n", "5", "--seed", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "f0,f1,f2,target"
        assert len(lines) == 6

    def test_writes_csv_to_file(self, capsys, tmp_path):
        path = tmp_path / "data.csv"
        code, out, err = run_cli(
            capsys, "gen", "--dataset", "svq", "--n", "8", "--out", str(path)
        )
        assert code == 0
        assert out == ""
        assert "8 rows" in err
        assert path.read_text().startswith("f0,f1,target")

    def test_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "gen", "--dataset", "msq", "--n", "20", "--seed", "3")
        _, second, _ = run_cli(capsys, "gen", "--dataset", "msq", "--n", "20", "--seed", "3")
        assert first == second

    def test_requires_dataset(self, capsys):
        code, _, err = run_cli(capsys, "gen")
        assert code == 2
        assert "dataset" in err


class TestAnalyze:
    def test_generated_dataset_to_stdout(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "--dataset", "rvq", "--n", "400", "--seed", "0"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["dataset"]["n_samples"] == 400
        assert payload["selection"]["selected"] == ["f0", "f1"]

    def test_round_trip_through_csv(self, capsys, tmp_path):
        path = tmp_path / "rvq.csv"
        run_cli(capsys, "gen", "--dataset", "rvq", "--n", "400", "--seed", "0",
                "--out", str(path))
        code, out, _ = run_cli(capsys, "analyze", "--input", str(path))
        assert code == 0
        from_csv = json.loads(out)
        _, direct_out, _ = run_cli(
            capsys, "analyze", "--dataset", "rvq", "--n", "400", "--seed", "0"
        )
        direct = json.loads(direct_out)
        # same numbers either way; only the dataset source differs
        assert from_csv["features"] == direct["features"]
        assert from_csv["selection"] == direct["selection"]

    def test_json_file_and_svg(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        svg_path = tmp_path / "chart.svg"
        code, out, _ = run_cli(
            capsys, "analyze", "--dataset", "svq", "--n", "300",
            "--out", str(out_path), "--svg", str(svg_path),
        )
        assert code == 0
        assert out == ""
        payload = json.loads(out_path.read_text())
        assert payload["selection"]["selected"] == ["f0", "f1"]
        assert svg_path.read_text().startswith("<svg ")

    def test_units_bits(self, capsys):
        _, nats_out, _ = run_cli(
            capsys, "analyze", "--dataset", "rvq", "--n", "500", "--seed", "2"
        )
        _, bits_out, _ = run_cli(
            capsys, "analyze", "--dataset", "rvq", "--n", "500", "--seed", "2",
            "--units", "bits",
        )
        nats = json.loads(nats_out)
        bits = json.loads(bits_out)
        assert bits["units"] == "bits"
        ratio = nats["features"][0]["mi"] / bits["features"][0]["mi"]
        assert ratio == pytest.approx(0.6931471805599453, rel=1e-12)

    def test_dup_flag_appends_copy(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "--dataset", "rvq", "--n", "300", "--dup", "0"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["dataset"]["feature_names"] == ["f0", "f1", "f2", "f0_dup"]

    def test_byte_identical_repeat_runs(self, capsys):
        argv = ("analyze", "--dataset", "sg", "--n", "300", "--seed", "5")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_input_and_dataset_conflict(self, capsys, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,target\n0,1\n1,0\n")
        code, _, err = run_cli(
            capsys, "analyze", "--input", str(path), "--dataset", "rvq"
        )
        assert code == 2
        assert "exactly one" in err


class TestConfigFile:
    def test_file_supplies_options(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("# settings\ndataset=rvq\nn=300\nseed=4\n")
        code, out, _ = run_cli(capsys, "analyze", "--config", str(conf))
        assert code == 0
        assert json.loads(out)["dataset"]["n_samples"] == 300

    def test_flag_overrides_file(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("dataset=rvq\nn=300\n")
        code, out, _ = run_cli(capsys, "analyze", "--config", str(conf), "--n", "200")
        assert code == 0
        assert json.loads(out)["dataset"]["n_samples"] == 200

    def test_dashes_normalized(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("dataset=terc1\nterc-rule=pair\nn=100\n")
        code, out, _ = run_cli(capsys, "analyze", "--config", str(conf))
        assert code == 0
        assert json.loads(out)["dataset"]["n_features"] == 6

    def test_unknown_key(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("dataset=rvq\nbogus=1\n")
        code, _, err = run_cli(capsys, "analyze", "--config", str(conf))
        assert code == 2
        assert "bogus" in err

    def test_malformed_line(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("dataset rvq\n")
        code, _, err = run_cli(capsys, "analyze", "--config", str(conf))
        assert code == 2
        assert "key=value" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--config", "/nonexistent.conf")
        assert code == 2

    @pytest.mark.parametrize("command,entries,key", [
        ("analyze", "dataset=rvq\nn=0\n", "n"),
        ("analyze", "dataset=rvq\nalpha=2\n", "alpha"),
        ("analyze", "dataset=rvq\neps-zero=nan\n", "eps_zero"),
        ("analyze", "dataset=rvq\nconfig=x\n", "config"),
        ("gen", "dataset=rvq\nhelp=1\n", "help"),
        ("bench", "datasets=rvq,zzz\n", "zzz"),
        ("bench", "datasets=\n", "datasets"),
        ("verify", "datasets=,\n", "datasets"),
    ])
    def test_entries_checked_as_flags(self, capsys, tmp_path, command, entries, key):
        conf = tmp_path / "run.conf"
        conf.write_text(entries)
        code, out, err = run_cli(capsys, command, "--config", str(conf))
        assert (code, out) == (2, "")
        assert key in err


def bench_in_child(argv, one_cpu):
    """Exit code, stdout and number of forks of cli.main(argv) in a fresh
    interpreter, held to one CPU if one_cpu."""
    script = (
        "import os, sys\n"
        f"if {one_cpu!r}:\n"
        "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "forks, real_fork = [], os.fork\n"
        "def fork():\n"
        "    forks.append(1)\n"
        "    return real_fork()\n"
        "os.fork = fork\n"
        "from pidf import cli\n"
        f"code = cli.main({argv!r})\n"
        "sys.stdout.flush()\n"
        "print(code, len(forks), file=sys.stderr)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    code, forks = proc.stderr.split()[-2:]
    return int(code), proc.stdout, int(forks)


def repetition_threads(_):
    """The thread count of this process's repetition pool."""
    return estimators._pool()._max_workers


class TestBench:
    def test_small_run_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--datasets", "rvq,svq", "--seeds", "2", "--n", "500"
        )
        assert code == 0
        assert "rvq: 2/2 seeds matched" in out
        assert "svq: 2/2 seeds matched" in out
        # one line per seed plus the summary
        assert out.count("rvq seed=") == 2

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="needs sched_setaffinity")
    def test_pool_prints_the_one_cpu_lines(self):
        # Forks are counted in a fresh interpreter; on one CPU there are none.
        argv = ["bench", "--datasets", "rvq,wt,ubr", "--seeds", "3", "--n", "300"]
        pool = bench_in_child(argv, one_cpu=False)
        alone = bench_in_child(argv, one_cpu=True)
        assert alone == (0, pool[1], 0)
        # One worker per usable CPU, at most one per analysis.
        workers = min(cli.usable_cpus(), 9)
        assert pool[::2] == (0, workers if workers > 1 else 0)
        assert pool[1].count(" ok\n") == 9

    @pytest.mark.skipif(not hasattr(os, "fork") or cli.usable_cpus() < 2,
                        reason="needs fork and 2 usable CPUs")
    def test_workers_run_repetitions_on_one_thread(self):
        # The workers already fill every usable CPU; this process keeps one
        # repetition thread per CPU.
        with cli._task_map(2) as task_map:
            assert list(task_map(repetition_threads, range(2))) == [1, 1]
        assert repetition_threads(None) == cli.usable_cpus()

    def test_estimator_error_in_a_run(self, capsys):
        code, out, err = run_cli(
            capsys, "bench", "--datasets", "wt", "--n", "8", "--estimator", "ksg"
        )
        assert code == 4
        assert out == ""
        assert err.startswith("estimator error: ") and "more than k" in err

    @pytest.mark.skipif(not hasattr(os, "fork") or cli.usable_cpus() < 2,
                        reason="needs fork and 2 usable CPUs")
    def test_dead_worker_is_an_error_message(self, capsys, monkeypatch):
        # The forked workers inherit the patch; this process never runs it.
        def killed(*args, **kwargs):
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(cli, "run_pidf", killed)
        code, out, err = run_cli(capsys, "bench", "--datasets", "rvq", "--seeds", "2")
        assert code == 4
        assert out == ""
        assert err.startswith("estimator error: a bench worker process died")
        assert "Traceback" not in err

    def test_unknown_dataset(self, capsys):
        code, _, err = run_cli(capsys, "bench", "--datasets", "rvq,unknown")
        assert code == 2

    @pytest.mark.parametrize("ids", ["", ",", " , "])
    def test_empty_dataset_list(self, capsys, ids):
        code, out, err = run_cli(capsys, "bench", "--datasets", ids)
        assert (code, out) == (2, "")
        assert "at least one dataset id" in err

    @pytest.mark.parametrize("ids", ["terc1,terc2", "rvq,terc2"])
    def test_terc_under_pair_has_no_truth(self, capsys, ids):
        # The terc ground truth {f0,f1,f2} is the all_equal rule's; under
        # pair the target ignores f0.
        code, out, err = run_cli(capsys, "bench", "--terc-rule", "pair",
                                 "--datasets", ids, "--seeds", "3")
        assert (code, out) == (2, "")
        assert "no ground truth under --terc-rule pair" in err


class TestEstimatorFlag:
    @pytest.mark.parametrize("name", [n for n in cli.ESTIMATOR_NAMES if n != "auto"])
    def test_kind_carries_its_name(self, name):
        args = cli.build_parser().parse_args(["analyze", "--estimator", name])
        data = population_table("rvq")
        cfg = cli._estimator_config(args, data, 0)
        assert cfg.kind_name == name
        # The report JSON names the kind the same way.
        report = PidfReport(results=(), feature_names=(), target_name="target",
                            n_samples=data.n_samples, estimator=cfg, alpha=0.05,
                            eps_zero=0.01)
        assert json.loads(render_json(report))["config"]["estimator"]["kind"] == name


class TestVerify:
    def test_all_checks_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        assert "verify: all checks passed" in out
        assert "FAIL" not in out

    def test_synergy_datasets_skip_bound_checks(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "--datasets", "msq")
        assert "bounds not applicable" in out

    def test_clean_datasets_run_bound_checks(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "--datasets", "rvq")
        assert "bound violations 0" in out

    def test_reports_maximizers(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "--datasets", "pairsum")
        assert "f0 max-synergy sets: {f1}, {f3}, {f1,f3}" in out

    @pytest.mark.parametrize("ids", ["", ","])
    def test_empty_dataset_list(self, capsys, ids):
        code, out, err = run_cli(capsys, "verify", "--datasets", ids)
        assert (code, out) == (2, "")
        assert "at least one dataset id" in err

    def test_unknown_dataset(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--datasets", "rvq,zzz")
        assert (code, out) == (2, "")
        assert "'zzz'" in err


class TestExitCodes:
    def test_bad_flag_value(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--dataset", "nonsense")
        assert code == 2

    def test_bad_alpha(self, capsys):
        code, _, err = run_cli(
            capsys, "analyze", "--dataset", "rvq", "--alpha", "2.0"
        )
        assert code == 2

    @pytest.mark.parametrize("command", ["analyze", "bench"])
    @pytest.mark.parametrize("eps_zero", ["-1", "nan", "inf"])
    def test_bad_eps_zero(self, capsys, command, eps_zero):
        argv = ["--dataset", "rvq"] if command == "analyze" else ["--datasets", "rvq"]
        code, out, err = run_cli(capsys, command, *argv, "--n", "300",
                                 "--eps-zero", eps_zero)
        assert (code, out) == (2, "")
        assert "eps_zero" in err

    def test_missing_input_file(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--input", "/no/such/file.csv")
        assert code == 3
        assert "dataset error" in err

    def test_csv_without_feature_columns(self, capsys, tmp_path):
        path = tmp_path / "target_only.csv"
        path.write_text("target\n0\n1\n")
        code, out, err = run_cli(capsys, "analyze", "--input", str(path))
        assert (code, out) == (3, "")
        assert "dataset error" in err

    def test_unwritable_output(self, capsys):
        code, _, err = run_cli(
            capsys, "gen", "--dataset", "rvq", "--n", "5",
            "--out", "/no/such/dir/out.csv",
        )
        assert code == 3

    def test_estimator_failure(self, capsys):
        # mine estimator with batch larger than the dataset
        code, _, err = run_cli(
            capsys, "analyze", "--dataset", "wt", "--n", "50",
            "--estimator", "mine", "--reps", "1",
        )
        assert code == 4
        assert "estimator error" in err

    def test_cap_exit_code(self, capsys, monkeypatch):
        def blow_up(args):
            raise SubsetCapError("too many features for exhaustive search")

        monkeypatch.setattr(cli, "cmd_analyze", blow_up)
        code, _, err = run_cli(capsys, "analyze", "--dataset", "rvq")
        assert code == 5
        assert "unsupported" in err

    def test_no_command(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 2


# The exit code and the sha256 of stdout of command lines whose bytes must
# not change; bench prints the same lines on one CPU and on a pool.
PINNED = [
    (("analyze", "--dataset", "rvq", "--n", "300"),
     0, "e407674d44a34686eafebae31d95b9ce8311f5bdc4db0ddf9f0f8a55a8e05099"),
    (("analyze", "--dataset", "wt", "--n", "300", "--reps", "3"),
     0, "6ed59123618177ae73dfd907436f170d571b94fd551accb0bf0c2fcaecec204c"),
    (("analyze", "--dataset", "terc1", "--terc-rule", "pair", "--units", "bits",
      "--dup", "2"),
     0, "ecf40626bfacaf144e0947969dc029e19e7cfc65b1637f740c45958b57a0ccb3"),
    (("gen", "--dataset", "sg", "--n", "20", "--seed", "3"),
     0, "d94528fa686d6891eff6ba4159e2e57cd5abfc5f3d5e5dcd7cfb488356111f55"),
    (("bench", "--seeds", "2"),
     0, "daff8c9d975e507dccc5c7a6c914fc838c8ac728cf4891980238e725ef1edc9f"),
    (("verify",),
     0, "b676d9251ad2b12c0513760a9f103dcbc621548f3d5efbd36261e1916d2bd69b"),
]


class TestPinnedOutput:
    @pytest.mark.parametrize("argv,code,digest", PINNED,
                             ids=[" ".join(p[0]) for p in PINNED])
    def test_stdout_and_exit_code(self, capsys, argv, code, digest):
        got, out, _ = run_cli(capsys, *argv)
        assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


class TestModuleEntry:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pidf", "gen", "--dataset", "rvq", "--n", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("f0,f1,f2,target")

    def test_import_leaves_scipy_stats_unloaded(self):
        # scipy.stats costs about half a second to import and pidf needs
        # nothing from it.
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, pidf; print('scipy.stats' in sys.modules)"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


def state_after(statement):
    """The scipy modules loaded and the number of live threads in a fresh
    interpreter after running statement, with stdout discarded."""
    script = (
        "import contextlib, io, json, sys, threading\n"
        "from pidf import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    {statement}\n"
        "print(json.dumps([sorted(m for m in sys.modules\n"
        "                         if m == 'scipy' or m.startswith('scipy.')),\n"
        "                  threading.active_count()]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestColdStart:
    """scipy loads only where ksg or a t-test runs, so import and every
    discrete run skip its import cost."""

    def test_import_loads_no_scipy(self):
        assert state_after("import pidf")[0] == []

    @pytest.mark.parametrize("argv", [
        ["analyze", "--dataset", "rvq", "--n", "300"],
        ["verify"],
    ])
    def test_discrete_commands_load_no_scipy(self, argv):
        assert state_after(f"assert cli.main({argv!r}) == 0")[0] == []

    def test_continuous_analyze_loads_scipy(self):
        loaded, _ = state_after(
            "assert cli.main(['analyze', '--dataset', 'wt', '--n', '300']) == 0"
        )
        assert {"scipy.spatial", "scipy.special"} <= set(loaded)

    @pytest.mark.parametrize("statement,pool", [
        ("import pidf", False),
        ("assert cli.main(['analyze', '--dataset', 'rvq', '--n', '300']) == 0", False),
        ("assert cli.main(['verify']) == 0", False),
        ("assert cli.main(['analyze', '--dataset', 'wt', '--n', '300']) == 0", True),
    ])
    def test_only_repeated_estimates_start_threads(self, statement, pool):
        """The repetition pool starts on first use; its idle threads outlive
        the run."""
        _, threads = state_after(statement)
        assert (threads > 1) == pool
