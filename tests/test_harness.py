"""Experiment drivers and CLI surface."""
import json
import time

import pytest

from mdflow.compiler import compile_skeleton, parse_skeleton
from mdflow.core import ArityMismatch, UnknownOpcode, dump
from mdflow.harness import (
    EXIT_ESCALATED,
    EXIT_INFRA,
    EXIT_OK,
    SAMPLE_S,
    ExperimentConfig,
    RunReport,
    bench_adapt,
    grain_csv,
    parse_config_file,
    parse_workers,
    run_experiment,
    run_oracle,
    template_cost_ms,
)
from mdflow.manager import ParDegree, Throughput, parse_contract
from mdflow.ops import default_registry
from mdflow.protocol import WorkerServer
from mdflow.runtime import Runtime
from mdflow.taskpool import TaskPool
from mdflow.workflow import WorkflowFileError
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


def test_default_run_of_a_pipe_matches_oracle():
    program = "pipe(seq:inc,pipe(seq:double,seq:inc))"
    report = run_experiment(ExperimentConfig(program=program, tasks=30,
                                             workers=["local"] * 2))
    assert report.failures == 0
    assert report.results == run_oracle(program, list(range(30)))


@pytest.mark.parametrize("program,expected", [
    ("pipe(seq:pair,seq:app)", lambda x: [x, x, 0]),
    ("pipe(seq:split2,seq:echo)", lambda x: [x, x + 1]),
], ids=["pair_app", "split2_echo"])
def test_fused_run_gives_the_oracle_s_results(program, expected):
    # the session runs one chain opcode where the oracle runs two stages
    reg = default_registry()
    reg.register("pair", lambda x: (x, x))
    reg.register("app", lambda x: x + [0])
    report = run_experiment(ExperimentConfig(program=program, tasks=20,
                                             workers=["local"] * 2), registry=reg)
    assert report.failures == 0
    assert report.results == run_oracle(program, list(range(20)), reg) == \
        {x: expected(x) for x in range(20)}


@pytest.fixture
def submitted(monkeypatch):
    """The templates a session submits, one entry per task."""
    templates = []
    submit = TaskPool.submit_task

    def spy(pool, template, payload):
        templates.append(template)
        return submit(pool, template, payload)

    monkeypatch.setattr(TaskPool, "submit_task", spy)
    return templates


def test_session_template_of_a_farm_is_compile_skeleton_s(submitted):
    run_experiment(ExperimentConfig(program="farm(seq:work)", tasks=3))
    want = dump(compile_skeleton(parse_skeleton("farm(seq:work)")))
    assert [dump(t) for t in submitted] == [want] * 3


def test_session_refuses_a_bad_template_before_any_submit(submitted, tmp_path):
    # split3 gives three outputs to two dests
    bad_split = tmp_path / "split.graph"
    bad_split.write_text("1 _ split3 [_] -> [(_,2,1),(_,2,2)]\n2 _ add2 [_,_] -> [OUT]\n")
    for program, error in [("pipe(seq:f,seq:nope)", UnknownOpcode),
                           ("seq:add2", ArityMismatch),
                           (f"custom:@{bad_split}", ArityMismatch)]:
        with pytest.raises(error):
            run_experiment(ExperimentConfig(program=program, tasks=50))
    assert submitted == []
    assert cli.main(["run", "--program", "seq:add2", "--tasks", "5"]) == EXIT_INFRA


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


def test_run_treats_a_raising_predicate_as_a_violation():
    # on one worker the predicate divides by zero; the plan to add one is valid
    report = run_experiment(ExperimentConfig(
        program="farm(seq:work)", tasks=20, grain_ms=50.0, workers=["local"],
        spare_workers=["local"], tick_s=0.2,
        contract=parse_contract("qos: V=workers,throughput; E=throughput/(workers-1) > 0")))
    assert report.exit_code == EXIT_OK and report.emitted == 20
    violations = [e["detail"] for e in report.events if e["kind"] == "violation"]
    assert len(violations) == 1 and "ZeroDivisionError" in violations[0]["detail"]
    added = [e["detail"] for e in report.events if e["kind"] == "add_worker"]
    assert added == [{"requested": 1, "recruited": 1}]


def test_bench_adapt_applies_fault_script():
    # the contract is never armed: only the scripted kill changes the pool
    report = bench_adapt(ExperimentConfig(
        program="farm(seq:work)", tasks=100, grain_ms=50.0, workers=["local"] * 2,
        contract=Throughput(0.1), contract_delay_s=10.0, run_duration_s=1.5,
        fault_script=[(0.3, 0)]))
    counts = [n for _, _, n in report.samples]
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


def test_run_oracle_checks_the_workflow_file_as_load_workflow_does(tmp_path):
    # b is used before it is defined
    nodes = [
        {"name": "a", "opcode": "add2", "args": ["$input", "$b"]},
        {"name": "b", "opcode": "inc", "args": ["$input"]},
    ]
    path = tmp_path / "wf.json"
    path.write_text(json.dumps(nodes))
    with pytest.raises(WorkflowFileError, match="references 'b' before definition"):
        run_oracle(f"wf:@{path}", [5])


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
    config = ExperimentConfig.from_pairs(pairs)
    assert config.fault_script == [(10.0, 0), (20.0, 1)]
    assert config.overload_script == [(60.0, 0, 4.0)]


def test_from_pairs_names_every_unknown_key(tmp_path):
    path = tmp_path / "adapt.cfg"
    path.write_text("windw = 3\nspraes = local:8\ntasks 5\nnormalize = 1\ntick = 1\n")
    with pytest.raises(ValueError) as exc_info:
        ExperimentConfig.from_pairs(parse_config_file(str(path)))
    assert str(exc_info.value) == "unknown config keys: normalize, spraes, tasks 5, windw"


@pytest.mark.parametrize("key,value", [
    ("tasks", "ten"), ("workers", "local:x"), ("contract", "speed:9000"),
    ("kill", "1"), ("overload", "1:0"),
    ("window", "0"), ("tick", "0"), ("duration", "0"), ("duration", "-2"),
    ("tasks", "-1"), ("grain", "-1"), ("comm", "-0.5"), ("contract_delay", "-1"),
    ("workers", ""), ("workers", "local:0"), ("spares", "local:0"),
])
def test_from_pairs_names_the_key_of_a_bad_value(key, value):
    with pytest.raises(ValueError, match=f"bad value for {key}: '{value}'"):
        ExperimentConfig.from_pairs([("tasks", "5"), (key, value)])


def test_from_pairs_reads_an_empty_spares_as_no_spares():
    assert ExperimentConfig.from_pairs([("spares", "")]).spare_workers == []


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


@pytest.mark.parametrize("text,cause", [
    (None, "No such file"),
    ("[{", "Expecting"),
    ('[{"name": "a", "opcode": "add2", "args": ["$input", "$b"]},'
     ' {"name": "b", "opcode": "inc", "args": ["$input"]}]', "before definition"),
    ('[{"name": "a", "opcode": "inc", "args": ["$input.x"]}]', "non-negative integer"),
], ids=["missing_file", "bad_json", "forward_reference", "bad_part"])
def test_cli_oracle_bad_workflow_file_exits_3(text, cause, tmp_path, capsys):
    wf = tmp_path / "wf.json"
    if text is not None:
        wf.write_text(text)
    infile, outfile = tmp_path / "in.json", tmp_path / "out.json"
    infile.write_text("[1, 2]")
    rc = cli.main(["oracle", "--program", f"wf:@{wf}", "--in", str(infile),
                   "--out", str(outfile)])
    err = capsys.readouterr().err
    assert rc == EXIT_INFRA
    assert len(err.splitlines()) == 1 and cause in err
    assert not outfile.exists()


def test_cli_bench_grain_tiny(tmp_path):
    out = tmp_path / "grain.csv"
    rc = cli.main(["bench-grain", "--grains", "2", "--workers", "1,2",
                   "--tasks", "30", "--comm", "0.2", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "grain,workers,efficiency"
    assert len([ln for ln in lines if not ln.startswith("#")]) == 3


@pytest.mark.parametrize("grains,workers", [("0", "1"), ("2,-1", "1"), ("2", "0..2")])
def test_cli_bench_grain_refuses_a_sweep_it_cannot_report(grains, workers, capsys,
                                                          recruited):
    # a grain of 0 has no efficiency for the CSV; a row of 0 workers never drains
    rc = cli.main(["bench-grain", "--grains", grains, "--workers", workers,
                   "--tasks", "20", "--comm", "0"])
    err = capsys.readouterr().err
    assert rc == EXIT_INFRA and recruited == []
    assert len(err.splitlines()) == 1


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
    assert not [e for e in doc["events"] if e["kind"] in ("add_worker", "remove_worker")]
    assert doc["escalated"] is False


#: the keys of the one report that `run` and `bench-adapt` both write
REPORT_KEYS = {"completion_ms", "tasks", "emitted", "failures", "workers", "efficiency",
               "latency_ms_p50", "throughput_series", "samples", "escalated",
               "exit_code", "events"}


@pytest.mark.parametrize("command,function", [("run", "run_experiment"),
                                              ("bench-adapt", "bench_adapt")])
def test_run_and_bench_adapt_write_one_report(command, function, tmp_path, monkeypatch):
    # no plan reaches the contract, so the first violation escalates
    reports = []
    run = getattr(cli, function)

    def spy(config):
        reports.append(run(config))
        return reports[-1]

    monkeypatch.setattr(cli, function, spy)
    cfg = tmp_path / "adapt.cfg"
    cfg.write_text("program = farm(seq:work)\ntasks = 200\ngrain = 20\n"
                   "workers = local:2\nspares = local:1\n"
                   "contract = throughput:1000000\nduration = 1.5\n")
    out = tmp_path / "report.json"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_ESCALATED
    doc = json.loads(out.read_text())
    assert set(doc) == REPORT_KEYS
    report, = reports
    assert isinstance(report, RunReport) and report.escalated
    assert doc["samples"] == [list(sample) for sample in report.samples]
    times = [t for t, _, _ in report.samples]
    assert times[0] < SAMPLE_S and times == sorted(times)
    assert all(isinstance(rate, float) and rate >= 0 and n == 2
               for _, rate, n in report.samples)


@pytest.fixture
def recruited(monkeypatch):
    """The worker specs a command recruits, in order."""
    specs = []
    recruit = Runtime.recruit

    def spy(runtime, spec):
        specs.append(spec)
        return recruit(runtime, spec)

    monkeypatch.setattr(Runtime, "recruit", spy)
    return specs


@pytest.mark.parametrize("command", ["run", "bench-adapt"])
@pytest.mark.parametrize("text,cause", [
    (None, "No such file"),
    ("contract = throughput:0.1\nwindw = 3\n", "unknown config keys: windw"),
    ("contract = throughput:0.1\ntasks = ten\n", "bad value for tasks: 'ten'"),
    ("contract = throughput:0.1\nwindow = 0\n", "bad value for window: '0'"),
], ids=["missing_file", "unknown_key", "bad_value", "zero_window"])
def test_cli_bad_config_exits_3_before_recruiting(command, text, cause, tmp_path,
                                                   capsys, submitted, recruited):
    cfg = tmp_path / "bad.cfg"
    if text is not None:
        cfg.write_text(text)
    rc = cli.main([command, "--config", str(cfg)])
    err = capsys.readouterr().err
    assert rc == EXIT_INFRA
    assert len(err.splitlines()) == 1 and cause in err
    assert submitted == [] and recruited == []


@pytest.mark.parametrize("key", ["spares", "contract", "out"])
def test_cli_run_bare_known_key_exits_3_before_recruiting(key, tmp_path, capsys,
                                                          recruited):
    # a line without `=` sets nothing: it is an error, not an empty value
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"tasks = 10\n{key}\n")
    rc = cli.main(["run", "--program", "farm(seq:f)", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert rc == EXIT_INFRA and recruited == []
    assert len(err.splitlines()) == 1 and f"no '=' after {key}" in err
    if key != "out":
        with pytest.raises(ValueError, match=f"^no '=' after {key}$"):
            ExperimentConfig.from_pairs(parse_config_file(str(cfg)))


@pytest.mark.parametrize("contract", ["", "pardegree:2"])
def test_cli_bench_adapt_without_throughput_contract_exits_3(contract, tmp_path,
                                                             capsys, recruited):
    cfg = tmp_path / "adapt.cfg"
    cfg.write_text(f"contract = {contract}\nduration = 1\n")
    assert cli.main(["bench-adapt", "--config", str(cfg)]) == EXIT_INFRA
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Throughput contract" in err
    assert recruited == []


def test_cli_run_reads_its_config_file_and_flags_override_it(tmp_path):
    out = tmp_path / "report.json"
    cfg = tmp_path / "run.cfg"
    # 20 ms tasks on one worker: 200 tasks take 4 s, so the file's duration ends the run
    cfg.write_text(f"program = farm(seq:work)\ntasks = 1000\ngrain = 20\n"
                   f"workers = local\nduration = 0.4\nout = {out}\n")
    assert cli.main(["run", "--config", str(cfg), "--tasks", "200"]) == 0
    doc = json.loads(out.read_text())
    assert doc["tasks"] == 200 and doc["workers"] == 1
    assert 0 < doc["emitted"] < 200 and doc["completion_ms"] < 2000


def test_cli_bench_adapt_out_flag_overrides_the_file_s_out(tmp_path):
    file_out, flag_out = tmp_path / "file.json", tmp_path / "flag.json"
    cfg = tmp_path / "adapt.cfg"
    cfg.write_text(f"tasks = 20\ngrain = 5\ncontract = throughput:0.1\n"
                   f"contract_delay = 10\nduration = 0.5\nout = {file_out}\n")
    assert cli.main(["bench-adapt", "--config", str(cfg), "--out", str(flag_out)]) == 0
    assert json.loads(flag_out.read_text())["emitted"] == 20
    assert not file_out.exists()


def test_cli_run_applies_fault_and_overload_files(tmp_path, monkeypatch):
    reports = []

    def spy(config):
        reports.append(run_experiment(config))
        return reports[-1]

    monkeypatch.setattr(cli, "run_experiment", spy)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kill = 0.1:0\noverload = 0.05:1:2\n")
    server = WorkerServer(default_registry()).start()
    try:
        # 60 dispatches of 5 ms each over the shared link outlast both scripts
        rc = cli.main(["run", "--program", "farm(seq:f)", "--tasks", "60",
                       "--grain", "2", "--comm", "5",
                       "--workers", f"local:2,remote:127.0.0.1:{server.port}",
                       "--config", str(cfg)])
    finally:
        server.stop()
    assert rc == 0
    report = reports[0]
    assert report.results == run_oracle("farm(seq:f)", list(range(60)))
    assert [e["detail"] for e in report.events if e["kind"] == "overload"] == \
        [{"worker": 2, "factor": 2.0}]


@pytest.mark.parametrize("line", ["kill = 0.1:5", "overload = 0.1:-1:2"])
def test_script_entry_for_a_worker_the_run_lacks_exits_3_before_recruiting(
        line, tmp_path, capsys, recruited):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    rc = cli.main(["run", "--program", "farm(seq:f)", "--tasks", "10", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert rc == EXIT_INFRA and recruited == []
    assert len(err.splitlines()) == 1 and "only 2 workers" in err


def test_overload_of_remote_worker_is_rejected_before_start():
    server = WorkerServer(default_registry()).start()
    try:
        config = ExperimentConfig(
            tasks=10, workers=["local", ("127.0.0.1", server.port)],
            overload_script=[(0.0, 1, 4.0)])
        with pytest.raises(ValueError, match="worker 1"):
            run_experiment(config)
    finally:
        server.stop()
