"""Experiment drivers and CLI surface."""
import json
import time

import pytest

from mdflow.compiler import compile_skeleton, parse_skeleton
from mdflow.harness import (
    EXIT_INFRA,
    EXIT_OK,
    ExperimentConfig,
    bench_adapt,
    grain_csv,
    parse_config_file,
    parse_fault_script,
    parse_overload_script,
    parse_workers,
    run_experiment,
    run_oracle,
    template_cost_ms,
)
from mdflow.manager import ParDegree, Throughput
from mdflow.ops import default_registry
from mdflow.protocol import WorkerServer
from mdflow import cli


def test_zero_tasks_is_vacuous_success():
    report = run_experiment(ExperimentConfig(tasks=0, workers=["local"]))
    assert report.emitted == 0 and report.exit_code == EXIT_OK


def test_run_matches_oracle_per_seq():
    program = "pipe(farm(seq:f),farm(seq:g))"
    config = ExperimentConfig(program=program, tasks=50, workers=["local"] * 4)
    report = run_experiment(config)
    assert report.emitted == 50 and report.failures == 0
    assert report.results == run_oracle(program, list(range(50)))


def test_normalize_flag_preserves_results():
    program = "pipe(seq:inc,pipe(seq:double,seq:inc))"
    inputs = list(range(30))
    plain = run_experiment(ExperimentConfig(program=program, tasks=30,
                                            workers=["local"] * 2))
    normed = run_experiment(ExperimentConfig(program=program, tasks=30,
                                             workers=["local"] * 2, normalize=True))
    assert plain.results == normed.results == run_oracle(program, inputs)


def test_fault_script_run_still_matches_oracle():
    program = "farm(seq:f)"
    config = ExperimentConfig(program=program, tasks=200, grain_ms=2.0,
                              workers=["local"] * 4, fault_script=[(0.05, 0)])
    report = run_experiment(config)
    assert report.emitted == 200
    assert report.results == run_oracle(program, list(range(200)))


def test_unfinished_run_is_infra_failure():
    config = ExperimentConfig(program="farm(seq:work)", tasks=50, grain_ms=500.0,
                              workers=["local"], drain_timeout_s=0.2)
    report = run_experiment(config)
    assert report.emitted < 50
    assert report.exit_code == EXIT_INFRA


def test_report_json_shape():
    report = run_experiment(ExperimentConfig(tasks=5, workers=["local"]))
    doc = json.loads(report.to_json())
    for key in ("completion_ms", "emitted", "efficiency", "throughput_series",
                "escalated", "exit_code"):
        assert key in doc


def test_efficiency_in_noise_band_for_one_worker():
    config = ExperimentConfig(program="farm(seq:work)", tasks=100,
                              grain_ms=20.0, workers=["local"])
    report = run_experiment(config)
    assert report.efficiency is not None
    assert 0 < report.efficiency <= 1.05


def test_run_arms_contract_after_its_delay():
    t_before = time.time()
    report = run_experiment(ExperimentConfig(
        program="farm(seq:work)", tasks=20, grain_ms=50.0, workers=["local"],
        contract=ParDegree(1), contract_delay_s=0.5))
    armed = [e["ts"] for e in report.events if e["kind"] == "contract"]
    assert len(armed) == 1 and armed[0] - t_before >= 0.5


def test_bench_adapt_applies_fault_script():
    # the contract is never armed: only the scripted kill changes the pool
    report = bench_adapt(ExperimentConfig(
        program="farm(seq:work)", tasks=100, grain_ms=50.0, workers=["local"] * 2,
        contract=Throughput(0.1), contract_delay_s=10.0, run_duration_s=1.5,
        fault_script=[(0.3, 0)]))
    counts = [n for _, n in report.worker_series]
    assert counts[0] == 2 and counts[-1] == 1


def test_template_cost_ms():
    reg = default_registry(grain_ms=7.0)
    t = compile_skeleton(parse_skeleton("pipe(seq:f,seq:g)"))
    assert template_cost_ms(t, reg) == 14.0


def test_grain_csv_format_and_monotone_note():
    rows = [
        {"grain": 3, "workers": 1, "efficiency": 0.74},
        {"grain": 3, "workers": 2, "efficiency": 0.73},
        {"grain": 3, "workers": 4, "efficiency": 0.40},
    ]
    csv = grain_csv(rows)
    lines = csv.strip().splitlines()
    assert lines[0] == "grain,workers,efficiency"
    assert lines[1] == "3,1,0.7400"
    assert "# monotone_nonincreasing grain=3: True" in lines
    rows[2]["efficiency"] = 0.9
    assert "# monotone_nonincreasing grain=3: False" in grain_csv(rows)


def test_run_oracle_skeleton_forms():
    assert run_oracle("farm(seq:identity)", [1, 2, 3]) == {0: 1, 1: 2, 2: 3}
    assert run_oracle("pipe(seq:f,seq:g)", [10]) == {0: 22}


def test_run_oracle_workflow_file(tmp_path):
    nodes = [
        {"name": "a", "opcode": "split2", "args": ["$input"]},
        {"name": "b", "opcode": "add2", "args": ["$a.0", "$a.1"]},
    ]
    path = tmp_path / "wf.json"
    path.write_text(json.dumps(nodes))
    assert run_oracle(f"wf:@{path}", [5]) == {0: 11}


def test_parse_workers():
    assert parse_workers("local:3") == ["local", "local", "local"]
    assert parse_workers("local,host1:7000") == ["local", ("host1", 7000)]
    assert parse_workers("local:2,remote:127.0.0.1:7000") == \
        ["local", "local", ("127.0.0.1", 7000)]


def test_parse_config_and_scripts(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment\n"
        "contract = throughput:1.5\n"
        "kill = 10:0\n"
        "kill = 20:1\n"
        "overload = 60:0:4\n"
    )
    pairs = parse_config_file(str(path))
    assert ("contract", "throughput:1.5") in pairs
    assert parse_fault_script(pairs) == [(10.0, 0), (20.0, 1)]
    assert parse_overload_script(pairs) == [(60.0, 0, 4.0)]


# -- CLI ----------------------------------------------------------------------

def test_cli_run_writes_report(tmp_path):
    out = tmp_path / "report.json"
    rc = cli.main(["run", "--program", "farm(seq:inc)", "--tasks", "10",
                   "--workers", "local:2", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["emitted"] == 10 and doc["exit_code"] == 0


def test_cli_oracle(tmp_path):
    infile = tmp_path / "in.json"
    outfile = tmp_path / "out.json"
    infile.write_text(json.dumps([1, 2, 3]))
    rc = cli.main(["oracle", "--program", "seq:double", "--in", str(infile),
                   "--out", str(outfile)])
    assert rc == 0
    assert json.loads(outfile.read_text()) == {"0": 2, "1": 4, "2": 6}


def test_cli_bench_grain_tiny(tmp_path):
    out = tmp_path / "grain.csv"
    rc = cli.main(["bench-grain", "--grains", "2", "--workers", "1,2",
                   "--tasks", "30", "--comm", "0.2", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "grain,workers,efficiency"
    assert len([ln for ln in lines if not ln.startswith("#")]) == 3


def test_cli_bench_adapt_control_run(tmp_path):
    cfg = tmp_path / "adapt.cfg"
    cfg.write_text(
        "program = farm(seq:work)\n"
        "tasks = 400\n"
        "grain = 50\n"
        "workers = local:2\n"
        "spares = local:1\n"
        "contract = throughput:0.1\n"
        "duration = 3\n"
        "contract_delay = 1\n"
        "window = 2\n"
    )
    out = tmp_path / "adapt.json"
    rc = cli.main(["bench-adapt", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    # healthy rate, no overload script: zero reconfigurations
    assert doc["reconfigurations"] == []
    assert doc["escalations"] == []


def test_cli_run_applies_fault_and_overload_files(tmp_path, monkeypatch):
    reports = []

    def spy(config):
        reports.append(run_experiment(config))
        return reports[-1]

    monkeypatch.setattr(cli, "run_experiment", spy)
    # each file's other key is ignored: --faults only kills, --overload only slows
    faults = tmp_path / "f.cfg"
    faults.write_text("kill = 0.1:0\noverload = 0.05:0:9\n")
    overload = tmp_path / "o.cfg"
    overload.write_text("overload = 0.05:1:2\nkill = 0.05:1\n")
    server = WorkerServer(default_registry()).start()
    try:
        # 60 dispatches of 5 ms each over the shared link outlast both scripts
        rc = cli.main(["run", "--program", "farm(seq:f)", "--tasks", "60",
                       "--grain", "2", "--comm", "5",
                       "--workers", f"local:2,remote:127.0.0.1:{server.port}",
                       "--faults", str(faults), "--overload", str(overload)])
    finally:
        server.stop()
    assert rc == 0
    report = reports[0]
    assert report.results == run_oracle("farm(seq:f)", list(range(60)))
    assert [e["detail"] for e in report.events if e["kind"] == "overload"] == \
        [{"worker": 2, "factor": 2.0}]
