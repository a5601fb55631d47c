"""CLI: subcommands, exit codes, output files."""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
import yaml

import storbind
from storbind.cli import main
from storbind.scenarios import scenario_path

MINI = textwrap.dedent(
    """
    duration_s: 20
    nodes:
      - node_id: n1
        disks: {count: 4, capacity: 100G}
    volume_types:
      plain: {jbod: 1, app-copies: 1}
    requests:
      - {time: 0, op: create, id: r1, type: plain, size: 100G}
      - {time: 0, op: create, id: r2, type: plain, size: 100G}
    """
)


def write_mini(tmp_path: Path) -> Path:
    path = tmp_path / "mini.yaml"
    path.write_text(MINI)
    return path


def test_run_writes_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--scenario", str(scenario_path("table3")), "--out", str(out)])
    assert code == 0
    assert (out / "events.jsonl").is_file()
    assert (out / "timeseries.csv").is_file()
    assert (out / "summary.json").is_file()
    stdout = capsys.readouterr().out
    assert "table3" in stdout
    assert "provisioned 3" in stdout

    summary = json.loads((out / "summary.json").read_text())
    assert summary["scenario"] == "table3"
    assert summary["counts"]["admitted"] == 6

    first = (out / "events.jsonl").read_text().splitlines()[0]
    assert json.loads(first)["kind"] == "request-arrived"

    header = (out / "timeseries.csv").read_text().splitlines()[0]
    assert header == "time_s,volume_id,demand_iops,achieved_iops,cap_iops"


def test_timeseries_quotes_volume_ids_the_csv_way(tmp_path):
    ids = ["a,b", 'say "hi"', "two\nlines", "nul\0byte", "crlf\r\n"]
    creates = "".join(
        f"  - {{time: 0, op: create, id: {json.dumps(i)}, type: plain, size: 1G}}\n" for i in ids
    )
    path = tmp_path / "ids.yaml"
    path.write_text(MINI.split("requests:")[0] + "requests:\n" + creates)
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == 0
    with open(out / "timeseries.csv", newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["time_s", "volume_id", "demand_iops", "achieved_iops", "cap_iops"]
    assert {row[1] for row in rows[1:]} == {f"vol-{i}" for i in ids}


def test_run_writes_the_same_bytes_in_an_ascii_locale(tmp_path):
    path = tmp_path / "accented.yaml"
    accented = "  - {time: 0, op: create, id: \u00e91, type: plain, size: 1G}\n"
    path.write_text("name: d\u00e9mo\n" + MINI + accented, encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
    # storbind's own source first, then the caller's path, which may supply PyYAML
    src = str(Path(storbind.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    outs = []
    ascii_locale = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    for locale in (ascii_locale, {"PYTHONUTF8": "1"}):
        out = tmp_path / f"out-{len(outs)}"
        argv = ["run", "--scenario", str(path), "--out", str(out)]
        cli = [sys.executable, "-m", "storbind.cli"]
        done = subprocess.run(cli + argv, env={**env, **locale}, capture_output=True)
        assert done.returncode == 0, done.stderr
        outs.append((done.stdout, out))
    (ascii_stdout, ascii_out), (_, utf8_out) = outs
    # the summary's name is escaped where the locale cannot print it
    assert ascii_stdout.startswith(b"scenario d\\xe9mo: seed 0")
    assert "vol-\u00e91" in (utf8_out / "timeseries.csv").read_text(encoding="utf-8")
    for filename in ("events.jsonl", "timeseries.csv"):
        assert (ascii_out / filename).read_bytes() == (utf8_out / filename).read_bytes()
    summaries = [json.loads((out / "summary.json").read_bytes()) for out in (ascii_out, utf8_out)]
    for summary in summaries:
        del summary["decision_latency"]  # wall-clock time
    assert summaries[0] == summaries[1]


def test_run_is_reproducible_byte_for_byte(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(
            ["run", "--scenario", str(scenario_path("noisy-neighbor")),
             "--seed", "3", "--out", str(out)]
        ) == 0
        outs.append(out)
    for filename in ("events.jsonl", "timeseries.csv"):
        assert (outs[0] / filename).read_bytes() == (outs[1] / filename).read_bytes()


def test_validate_ok(tmp_path, capsys):
    path = write_mini(tmp_path)
    assert main(["validate", "--scenario", str(path)]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_reports_every_problem(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("duration_s: -1\nnodes: []\nvolume_types: {}\n")
    assert main(["validate", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert "duration_s" in err
    assert "nodes" in err
    assert "volume_types" in err


def test_unknown_keys_of_mixed_types_exit_2(tmp_path, capsys):
    path = tmp_path / "mixed.yaml"
    path.write_text(MINI + "1: x\nfoo: y\ncontrol: {2: x, bar: y}\n")
    assert main(["validate", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: document: unknown key 'foo'",
        "error: document: unknown key 1",
        "error: control: unknown key 'bar'",
        "error: control: unknown key 2",
    ]


def test_misspelled_volume_type_key_exits_2(tmp_path, capsys):
    path = tmp_path / "misspelled.yaml"
    guarded = "  guarded: {raid: 6, width: 4, min_iops: 100}\n"
    path.write_text(MINI.replace("requests:", guarded + "requests:"))
    assert main(["validate", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == "error: volume_types['guarded']: unknown key 'min_iops'\n"


def test_run_rejects_bad_scenario(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("duration_s: 10\n")
    assert main(["run", "--scenario", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


NAN, INF = float("nan"), float("inf")
HUGE = 10**400  # an integer too large for a float
R1, R2 = yaml.safe_load(MINI)["requests"]
# (top-level keys to set on the mini scenario, the diagnostic it must give)
NON_FINITE = {
    "duration-nan": ({"duration_s": NAN}, "duration_s: must be finite, got nan"),
    "duration-inf": ({"duration_s": INF}, "duration_s: must be finite, got inf"),
    "duration-huge": ({"duration_s": HUGE}, "duration_s: int too large to convert to float"),
    "interval-nan": (
        {"control": {"interval_s": NAN}}, "control.interval_s: must be finite, got nan"
    ),
    "interval-inf": (
        {"control": {"interval_s": INF}}, "control.interval_s: must be finite, got inf"
    ),
    "interval-huge": (
        {"control": {"interval_s": HUGE}}, "control.interval_s: int too large to convert to float"
    ),
    "gc-period-nan": (
        {"control": {"gc_period_s": NAN}}, "control.gc_period_s: must be finite, got nan"
    ),
    "create-time-nan": (
        {"requests": [R1, {**R2, "time": NAN}]}, "requests[1].time: must be finite, got nan"
    ),
    "constant-nan": (
        {"workloads": [{"volume": "vol-r1", "constant": NAN}]},
        "workloads[0].constant: constant demand must be finite and >= 0, got nan",
    ),
    "constant-inf": (
        {"workloads": [{"volume": "vol-r1", "constant": INF}]},
        "workloads[0].constant: constant demand must be finite and >= 0, got inf",
    ),
    "constant-huge": (
        {"workloads": [{"volume": "vol-r1", "constant": HUGE}]},
        "workloads[0].constant: int too large to convert to float",
    ),
    "trace-value-nan": (
        {"workloads": [{"volume": "vol-r1", "trace": [[0, NAN]]}]},
        "workloads[0].trace: trace demand must be finite and >= 0, got nan",
    ),
    "trace-value-huge": (
        {"workloads": [{"volume": "vol-r1", "trace": [[0, HUGE]]}]},
        "workloads[0].trace: int too large to convert to float",
    ),
    "trace-time-nan": (
        {"workloads": [{"volume": "vol-r1", "trace": [[0, 5], [NAN, 7]]}]},
        "workloads[0].trace: trace times must be finite and increasing, got nan after 0.0",
    ),
    "trace-time-huge": (
        {"workloads": [{"volume": "vol-r1", "trace": [[0, 5], [HUGE, 7]]}]},
        "workloads[0].trace: int too large to convert to float",
    ),
    "walk-mean-inf": (
        {"workloads": [{"volume": "vol-r1", "walk": {"mean": INF, "jitter": 1}}]},
        "workloads[0].walk.mean: must be finite, got inf",
    ),
    "walk-mean-huge": (
        {"workloads": [{"volume": "vol-r1", "walk": {"mean": HUGE, "jitter": 1}}]},
        "workloads[0].walk.mean: int too large to convert to float",
    ),
    "walk-jitter-nan": (
        {"workloads": [{"volume": "vol-r1", "walk": {"mean": 5, "jitter": NAN}}]},
        "workloads[0].walk.jitter: must be finite, got nan",
    ),
}


def write_mini_with(tmp_path: Path, keys: dict) -> Path:
    path = tmp_path / "non-finite.yaml"
    path.write_text(yaml.safe_dump({**yaml.safe_load(MINI), **keys}))
    return path


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_number_is_an_input_error(tmp_path, capsys, case):
    keys, diag = NON_FINITE[case]
    path = write_mini_with(tmp_path, keys)
    assert main(["validate", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {diag}\n"
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {diag}\n"
    assert not (tmp_path / "out").exists()


def test_every_non_finite_number_is_listed(tmp_path, capsys):
    cases = ("duration-inf", "gc-period-nan", "create-time-nan", "walk-jitter-nan")
    keys = {k: v for case in cases for k, v in NON_FINITE[case][0].items()}
    assert main(["validate", "--scenario", str(write_mini_with(tmp_path, keys))]) == 2
    err = capsys.readouterr().err.splitlines()
    assert sorted(err) == sorted(f"error: {NON_FINITE[case][1]}" for case in cases)


# Today's PyYAML text for five malformed files: line, column and snippet for
# the three that do not parse, and the ValueError PyYAML's constructors raise
# for the two values they cannot build.
MALFORMED_YAML = {
    "unclosed-flow-sequence": (
        "duration_s: 20\nnodes: [a, b\n",
        [
            "while parsing a flow sequence",
            '  in "<unicode string>", line 2, column 8:',
            "    nodes: [a, b",
            "           ^",
            "expected ',' or ']', but got '<stream end>'",
            '  in "<unicode string>", line 3, column 1:',
            "    ",
            "    ^",
        ],
    ),
    "bad-indent": (
        "duration_s: 20\nnodes:\n  - node_id: n1\n   disks: 4\n",
        [
            "while parsing a block collection",
            '  in "<unicode string>", line 3, column 3:',
            "      - node_id: n1",
            "      ^",
            "expected <block end>, but found '<block mapping start>'",
            '  in "<unicode string>", line 4, column 4:',
            "       disks: 4",
            "       ^",
        ],
    ),
    "unclosed-flow-mapping": (
        "duration_s: 20\ncontrol: {interval_s: 5\n",
        [
            "while parsing a flow mapping",
            '  in "<unicode string>", line 2, column 10:',
            "    control: {interval_s: 5",
            "             ^",
            "expected ',' or '}', but got '<stream end>'",
            '  in "<unicode string>", line 3, column 1:',
            "    ",
            "    ^",
        ],
    ),
    "impossible-date": (
        "duration_s: 2020-13-45\n",
        [
            "month must be in 1..12",
            '  in "<unicode string>", line 1, column 13:',
            "    duration_s: 2020-13-45",
            "                ^",
        ],
    ),
    "over-long-integer": (
        "duration_s: " + "9" * 5000 + "\n",
        [
            "Exceeds the limit (4300 digits) for integer string conversion: value has 5000"
            " digits; use sys.set_int_max_str_digits() to increase the limit",
            '  in "<unicode string>", line 1, column 13:',
            "    duration_s: " + "9" * 32 + " ... ",
            "                ^",
        ],
    ),
    "bool-not-a-bool": (
        "duration_s: !!bool maybe\n",
        [
            "expected a !!bool scalar, got 'maybe'",
            '  in "<unicode string>", line 1, column 13:',
            "    duration_s: !!bool maybe",
            "                ^",
        ],
    ),
    "empty-int": (
        "duration_s: !!int\n",
        [
            "expected a !!int scalar, got ''",
            '  in "<unicode string>", line 1, column 13:',
            "    duration_s: !!int",
            "                ^",
        ],
    ),
    "timestamp-not-a-date": (
        "duration_s: !!timestamp x\n",
        [
            "expected a !!timestamp scalar, got 'x'",
            '  in "<unicode string>", line 1, column 13:',
            "    duration_s: !!timestamp x",
            "                ^",
        ],
    ),
    "float-not-a-number": (
        "duration_s: !!float x\n",
        [
            "could not convert string to float: 'x'",
            '  in "<unicode string>", line 1, column 13:',
            "    duration_s: !!float x",
            "                ^",
        ],
    ),
    "lone-surrogate": (
        'name: "\\ud800"\n',
        [
            "'utf-8' codec can't encode character '\\ud800' in position 0: surrogates not allowed",
            '  in "<unicode string>", line 1, column 7:',
            '    name: "\\ud800"',
            "          ^",
        ],
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_YAML))
def test_malformed_yaml_diagnostic_text_is_pinned(tmp_path, capsys, case):
    text, message = MALFORMED_YAML[case]
    path = tmp_path / "malformed.yaml"
    path.write_text(text)
    first, *rest = message
    expected = [f"error: {path}: not parseable as YAML: {first}", *rest]
    for command in ("validate", "run"):
        assert main([command, "--scenario", str(path)]) == 2
        assert capsys.readouterr().err == "\n".join(expected) + "\n"


# MALFORMED_YAML's lone-surrogate case covers the run's name
SURROGATE_PROBES = {
    # a create id, which ends up in timeseries.csv
    "create-id": ("run", MINI.replace("id: r1", 'id: "\\ud800"')),
    # a volume-type name, which ends up in compare-static's summary line
    "type-name": ("compare-static", MINI.replace("plain", '"\\ud800"')),
}


@pytest.mark.parametrize("case", sorted(SURROGATE_PROBES))
def test_lone_surrogate_string_is_a_yaml_diagnostic(tmp_path, capsys, case):
    command, text = SURROGATE_PROBES[case]
    path = tmp_path / "surrogate.yaml"
    path.write_text(text)
    out = tmp_path / "out"
    layout = ["--layout", "rep:3"] if command == "compare-static" else []
    assert main([command, "--scenario", str(path), *layout, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not parseable as YAML: ")
    assert "surrogates not allowed" in err
    assert not out.exists()


@pytest.mark.parametrize("value, code", [("1.7e+308", 2), ("4.0e+306", 0)], ids=["overflows", "fits"])
def test_walk_that_can_overflow_is_an_input_error(tmp_path, capsys, value, code):
    # 100 s at 5 s intervals is 20 intervals, and 4e306 + 2 * 4e306 * 20 is finite
    path = tmp_path / "walk.yaml"
    path.write_text(
        MINI.replace("duration_s: 20", "duration_s: 100")
        + f"workloads: [{{volume: vol-r1, walk: {{mean: {value}, jitter: {value}}}}}]\n"
    )
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == code
    if code == 2:
        assert capsys.readouterr().err == (
            "error: workloads[0].walk: mean + 2 x jitter x 20 intervals is not finite\n"
        )
        assert not out.exists()
    else:
        assert (out / "timeseries.csv").is_file()


@pytest.mark.parametrize(
    "demand",
    ["constant: -0.0", "trace: [[0, -0.0]]", "walk: {mean: -0.0, jitter: 0}"],
    ids=["constant", "trace", "walk"],
)
def test_a_negative_zero_demand_is_written_as_zero(tmp_path, demand):
    path = tmp_path / "zero.yaml"
    path.write_text(MINI + f"workloads: [{{volume: vol-r1, {demand}}}]\n")
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == 0
    rows = (out / "timeseries.csv").read_text().splitlines()[1:]
    assert [row.split(",")[2] for row in rows if ",vol-r1," in row] == ["0.000000"] * 4
    assert "-0.000000" not in "".join(rows)


def test_missing_scenario_file_is_a_user_error(tmp_path):
    assert main(["run", "--scenario", str(tmp_path / "nope.yaml")]) == 2


def test_non_utf8_scenario_file_is_a_user_error(tmp_path, capsys):
    path = tmp_path / "latin1.yaml"
    path.write_bytes(b"duration_s: 20\n\xff\n")
    assert main(["validate", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: 'utf-8' codec can't decode byte 0xff in position 15: invalid start byte\n"
    )


def test_compare_static_writes_comparison(tmp_path, capsys):
    out = tmp_path / "cmp"
    code = main(
        ["compare-static", "--scenario", str(scenario_path("overhead")),
         "--layout", "rep:3", "--out", str(out)]
    )
    assert code == 0
    comparison = json.loads((out / "comparison.json").read_text())
    assert comparison["dynamic"]["overhead_total"] == 6
    assert comparison["static"]["overhead_total"] == 12
    assert (out / "dynamic" / "events.jsonl").is_file()
    assert (out / "static" / "events.jsonl").is_file()
    stdout = capsys.readouterr().out
    assert "dynamic: total 6x" in stdout
    assert "static: total 12x" in stdout


def test_compare_static_says_when_a_side_stores_no_volume(tmp_path, capsys):
    # dynamically both creates reject; static rep:3 pools n1's disks and admits the 1T one
    path = Path(__file__).parent / "data" / "reject-ladder.yaml"
    out = tmp_path / "cmp"
    assert main(
        ["compare-static", "--scenario", str(path), "--layout", "rep:3", "--out", str(out)]
    ) == 0
    comparison = json.loads((out / "comparison.json").read_text())
    assert comparison["dynamic"] == {"overhead_by_class": {}, "overhead_total": None}
    assert capsys.readouterr().out.splitlines()[:2] == [
        "dynamic: no volume stored",
        "static: total 4.1953125x (big=4.1953125x)",
    ]


def test_compare_static_identical_when_layout_matches_use(tmp_path):
    path = write_mini(tmp_path)
    out = tmp_path / "cmp"
    assert main(
        ["compare-static", "--scenario", str(path), "--layout", "jbod", "--out", str(out)]
    ) == 0
    comparison = json.loads((out / "comparison.json").read_text())
    assert comparison["dynamic"] == comparison["static"]
    assert comparison["dynamic"]["overhead_total"] == 1


def test_compare_static_bad_layout(tmp_path, capsys):
    path = write_mini(tmp_path)
    assert main(["compare-static", "--scenario", str(path), "--layout", "raid:zz"]) == 2
    assert "layout" in capsys.readouterr().err


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
def test_unusable_out_is_a_user_error(tmp_path, capsys, under):
    scenario = str(write_mini(tmp_path))
    taken = tmp_path / "taken"
    taken.write_text("")
    out = str(taken / "x" if under else taken)
    for argv in (
        ["run", "--scenario", scenario, "--out", out],
        ["compare-static", "--scenario", scenario, "--layout", "jbod", "--out", out],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno ") and f"'{out}" in err


def write_named(tmp_path: Path, name: str) -> Path:
    path = tmp_path / "named.yaml"
    path.write_text(f"name: {json.dumps(name)}\n" + MINI)
    return path


def test_default_out_is_under_out(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = write_named(tmp_path, "plain")
    assert main(["run", "--scenario", str(path)]) == 0
    assert main(["compare-static", "--scenario", str(path), "--layout", "jbod"]) == 0
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["plain", "plain-compare"]


@pytest.mark.parametrize("name", ["a\0b", "absolute", "../escaped", "..", "."])
def test_name_that_is_not_one_path_component_needs_out(tmp_path, capsys, monkeypatch, name):
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    if name == "absolute":
        name = str(tmp_path / "escaped")
    path = write_named(tmp_path, name)
    for argv in (
        ["run", "--scenario", str(path)],
        ["compare-static", "--scenario", str(path), "--layout", "jbod"],
    ):
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: name: {name!r} is not one plain path component; give --out\n"
        )
    assert not any(work.iterdir()) and not (tmp_path / "escaped").exists()
    # with --out the name is not restricted
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "given")]) == 0
    assert json.loads((tmp_path / "given" / "summary.json").read_text())["scenario"] == name


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
