import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import autoserve
from autoserve.cli import main
from autoserve.sim import SimConfig, run_sim
from autoserve.wire import NodeState, SystemStateUpdate, encode_frame

BASE_CONFIG = {
    "n_uavs": 1,
    "n_lps": 1,
    "duration_s": 900,
    "seed": 3,
    "spawn_radius_m": 0.0,
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "network.json"
    path.write_text(json.dumps(BASE_CONFIG))
    return str(path)


def test_run_pass_exit_code_and_outputs(tmp_path, config_path, capsys):
    report_path = tmp_path / "report.json"
    trace_path = tmp_path / "trace.jsonl"
    code = main(
        [
            "run",
            "--config",
            config_path,
            "--trace",
            str(trace_path),
            "--report",
            str(report_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "outcome=PASS" in out
    report = json.loads(report_path.read_text())
    assert report["outcome"] == "PASS"
    assert report["config"]["n_uavs"] == 1
    first_line = trace_path.read_text().splitlines()[0]
    assert "header" in json.loads(first_line)


def test_run_fail_exit_code(tmp_path, capsys):
    path = tmp_path / "doomed.json"
    path.write_text(
        json.dumps(
            {
                "n_uavs": 1,
                "n_lps": 1,
                "duration_s": 20,
                "consumption_pct_per_s": [4.9, 5.0],
                "initial_battery_pct": [16.0, 16.0],
                "spawn_radius_m": 0.0,
            }
        )
    )
    assert main(["run", "--config", str(path)]) == 2
    assert "outcome=FAIL" in capsys.readouterr().out


def test_run_prints_one_line_per_drop_reason_after_the_failures(tmp_path, capsys):
    path = tmp_path / "hungry.json"
    path.write_text(json.dumps({"duration_s": 900, "consumption_pct_per_s": [0.35, 0.45]}))
    assert main(["run", "--config", str(path)]) == 2
    lines = capsys.readouterr().out.splitlines()
    failures = [i for i, line in enumerate(lines) if line.startswith("failure ")]
    assert len(failures) == 2
    # Both vehicles cleared to board fail before they land.
    assert lines[failures[-1] + 1 :] == ["drop reason=lp_boarding_timeout count=2"]


@pytest.mark.parametrize("seed", [0, 20])
def test_run_prints_every_failure_battery_below_the_threshold(tmp_path, capsys, seed):
    # At both seeds a vehicle fails within 0.01 of the 15% threshold.
    path = tmp_path / "hungry.json"
    path.write_text(json.dumps({"duration_s": 900, "consumption_pct_per_s": [0.35, 0.45]}))
    assert main(["run", "--config", str(path), "--seed", str(seed)]) == 2
    batteries = re.findall(r"^failure .* battery=(\S+)$", capsys.readouterr().out, re.M)
    assert batteries
    assert all(float(battery) < 15 for battery in batteries), batteries


def test_run_invalid_config_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"n_uavs": 0}))
    assert main(["run", "--config", str(path)]) == 1
    assert "autoserve-sim:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "document",
    [{"n_uavs": "3"}, {"area_m": 5}, {"lp_positions": [5], "n_lps": 1}],
)
def test_run_mistyped_config_exit_code(tmp_path, capsys, document):
    path = tmp_path / "mistyped.json"
    path.write_text(json.dumps(document))
    assert main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("autoserve-sim: ")
    assert next(iter(document)) in err  # names the mistyped field
    assert "Traceback" not in err


def test_run_unknown_key_exit_code(tmp_path):
    path = tmp_path / "typo.json"
    path.write_text(json.dumps({"n_uav": 3}))
    assert main(["run", "--config", str(path)]) == 1


def test_missing_config_file_exit_code():
    assert main(["run", "--config", "/nonexistent/net.json"]) == 1


def test_non_utf8_config_exit_code(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"n_uavs": 1, "note": "\xff"}')
    assert main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"autoserve-sim: {path}: ")
    assert "0xff" in err
    assert len(err.splitlines()) == 1


def test_usage_error_exit_code(capsys):
    assert main(["run", "--bogus-flag"]) == 1
    assert "error" in capsys.readouterr().err


def test_flag_overrides_config(tmp_path, config_path, capsys):
    report_path = tmp_path / "r.json"
    code = main(
        [
            "run",
            "--config",
            config_path,
            "--uavs",
            "2",
            "--duration",
            "60",
            "--seed",
            "11",
            "--report",
            str(report_path),
        ]
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["config"]["n_uavs"] == 2
    assert report["config"]["duration_s"] == 60
    assert report["config"]["seed"] == 11


def test_run_without_config_uses_defaults(capsys):
    assert main(["run", "--uavs", "1", "--duration", "30"]) == 0
    assert "outcome=" in capsys.readouterr().out


def test_sweep_prints_pass_rate_and_distribution(tmp_path, config_path, capsys):
    report_path = tmp_path / "sweep.json"
    code = main(
        [
            "sweep",
            "--config",
            config_path,
            "--seeds",
            "3",
            "--duration",
            "120",
            "--report",
            str(report_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "pass=3/3" in out
    assert "fleet_min_battery_pct:" in out
    summary = json.loads(report_path.read_text())
    assert summary["total"] == 3
    assert [run["seed"] for run in summary["runs"]] == [3, 4, 5]


def test_sweep_of_one_seed_prints_its_minimum_as_both_ends(config_path, capsys):
    assert main(["sweep", "--config", config_path, "--seeds", "1", "--duration", "120"]) == 0
    out = capsys.readouterr().out
    assert "pass=1/1" in out
    (line,) = [line for line in out.splitlines() if line.startswith("fleet_min_battery_pct:")]
    low, high = re.fullmatch(r"fleet_min_battery_pct: min=(\S+) max=(\S+)", line).groups()
    assert low == high


def test_sweep_of_two_seeds_prints_only_its_ends(capsys):
    argv = ["sweep", "--uavs", "2", "--lps", "1", "--duration", "300", "--seeds", "2"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "fleet_min_battery_pct: min=26.42 max=43.00"
    assert sorted(line.rsplit("=", 1)[1] for line in lines[2:]) == ["26.42", "43.00"]


def test_sweep_stdout_and_report_are_pinned(tmp_path, capsys):
    config = tmp_path / "sweep-config.json"
    config.write_text(json.dumps({"n_uavs": 2, "n_lps": 1, "seed": 3}))
    report_path = tmp_path / "sweep.json"
    argv = ["sweep", "--config", str(config), "--seeds", "4", "--duration", "900"]
    assert main([*argv, "--report", str(report_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "seeds=4 base_seed=3 pass=4/4 (100.0%)",
        "fleet_min_battery_pct: min=28.29 p25=29.17 median=31.85 p75=35.58 max=36.81",
        "seed=3 outcome=PASS min_battery=31.88",
        "seed=4 outcome=PASS min_battery=31.82",
        "seed=5 outcome=PASS min_battery=36.81",
        "seed=6 outcome=PASS min_battery=28.29",
    ]
    digest = hashlib.sha256(report_path.read_bytes()).hexdigest()
    assert digest == "bdf34f9a4186c2c9d0f961e9e07cdf3ca5592e7215c0de80b4a918cb2643cc37"


def test_sweep_past_the_last_seed_fails_before_any_run(tmp_path, capsys):
    report_path = tmp_path / "sweep.json"
    argv = ["sweep", "--uavs", "1", "--lps", "1", "--duration", "60"]
    argv += ["--seed", str(2**64 - 1), "--seeds", "2", "--report", str(report_path)]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "seed must be an unsigned 64-bit integer" in err
    assert not report_path.exists()


def test_dump_prints_fields(capsys):
    frame = encode_frame(SystemStateUpdate(state=NodeState.IDLE), 0, 1, 1)
    assert main(["dump", frame.hex()]) == 0
    out = capsys.readouterr().out
    assert "msg_type=SystemStateUpdate" in out
    assert "sys_id=1" in out


def test_dump_bad_hex(capsys):
    assert main(["dump", "zz"]) == 1


def test_dump_truncated_frame(capsys):
    assert main(["dump", "fd01"]) == 1
    assert "autoserve-sim:" in capsys.readouterr().err


def run_python(code: str, **env_vars: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports this autoserve, with
    env_vars added to its environment."""
    env = dict(os.environ, **env_vars)
    src = str(Path(autoserve.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )


def test_run_needs_no_numpy(tmp_path):
    # None in sys.modules makes every import of numpy raise ImportError.
    report_path = tmp_path / "report.json"
    done = run_python(
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from autoserve.cli import main\n"
        "sys.exit(main(['run', '--uavs', '5', '--lps', '1', '--duration', '600',"
        f" '--report', {str(report_path)!r}]))\n"
    )
    assert done.returncode == 0, done.stderr
    assert "outcome=PASS" in done.stdout.splitlines()
    expected = run_sim(SimConfig(n_uavs=5, n_lps=1, duration_s=600)).to_json() + "\n"
    assert report_path.read_text(encoding="utf-8") == expected


def test_run_does_not_depend_on_string_hashing(tmp_path):
    # A stream seeded from hash() of a string would differ between the two.
    reports = []
    for hash_seed in ("1", "2"):
        report_path = tmp_path / f"report-{hash_seed}.json"
        done = run_python(
            "import sys\n"
            "from autoserve.cli import main\n"
            "sys.exit(main(['run', '--uavs', '20', '--lps', '5', '--duration', '300',"
            f" '--report', {str(report_path)!r}]))\n",
            PYTHONHASHSEED=hash_seed,
        )
        assert done.returncode == 0, done.stderr
        reports.append(report_path.read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("module", ["numpy", "logging", "statistics"])
def test_importing_the_cli_does_not_load(module):
    done = run_python(f"import sys, autoserve.cli; sys.exit({module!r} in sys.modules)")
    assert done.returncode == 0, done.stderr
