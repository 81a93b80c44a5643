import collections
import io
import itertools
import json
import random
import re
import shlex
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest

from engeldim import SequenceFamily, UsageError, cli, construction
from engeldim.cli import _COMMAND_OPTIONS, main, parse_config, run
from engeldim.construction import DEFAULT_LEVEL_LIMIT
from engeldim.dimension import DEFAULT_FIT_LIMIT


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- parsing ----------------------------------------------------------------


def test_parse_digits_minimal():
    cfg = parse_config(["digits", "--x", "3/7"])
    assert cfg.command == "digits"
    assert cfg.x == F(3, 7)
    assert cfg.depth is None
    assert cfg.output == "text"


def test_parse_rejects_missing_required_flag():
    with pytest.raises(UsageError):
        parse_config(["digits"])
    with pytest.raises(UsageError):
        parse_config(["dim", "--family", "geometric", "--s", "4", "--t", "2"])


def test_parse_rejects_unknown_flags_and_commands():
    with pytest.raises(UsageError):
        parse_config(["digits", "--x", "1/2", "--bogus", "3"])
    with pytest.raises(UsageError):
        parse_config(["frobnicate"])
    with pytest.raises(UsageError):
        parse_config([])


def test_parse_rejects_bad_values():
    with pytest.raises(UsageError):
        parse_config(["digits", "--x", "one half"])
    with pytest.raises(UsageError):
        parse_config(["digits", "--x", "1/2", "--depth", "2.5"])
    with pytest.raises(UsageError):
        parse_config(["digits", "--x", "1/2", "--output", "yaml"])
    with pytest.raises(UsageError):
        parse_config(["digits", "--x", "1/0"])


def test_parse_keeps_no_values_between_parses():
    family = ["--family", "geometric", "--s", "4", "--t", "2", "--depth", "3"]
    limited = parse_config(["level", *family, "--limit", "5", "--sample", "2"])
    plain = parse_config(["level", *family])
    assert (limited.limit, limited.sample) == (5, 2)
    assert (plain.limit, plain.sample) == (DEFAULT_LEVEL_LIMIT, None)


def test_parse_builds_each_family_kind():
    cfg = parse_config(
        ["check", "--family", "geometric", "--s", "4", "--t", "2"]
    )
    assert cfg.family.kind == "geometric"
    assert cfg.family.s(2) == 16
    assert cfg.depth == 50  # default depth for check
    cfg = parse_config(
        ["check", "--family", "power-geometric", "--s", "4", "--theta", "1/2"]
    )
    assert cfg.family.t(2) == 4
    cfg = parse_config(
        ["check", "--family", "explicit-pair", "--pairs", "4:2,16:4"]
    )
    assert cfg.family.s(2) == 16
    cfg = parse_config(
        ["check", "--family", "geometric", "--s", "2", "--t", "1", "--t-coef", "2"]
    )
    assert cfg.family.t(5) == 2


def test_parse_rejects_family_mismatches():
    with pytest.raises(UsageError):
        parse_config(["check", "--family", "martian", "--s", "4", "--t", "2"])
    with pytest.raises(UsageError):
        parse_config(
            ["check", "--family", "power-geometric", "--s", "4", "--t", "2"]
        )
    with pytest.raises(UsageError):
        parse_config(
            ["check", "--family", "geometric", "--s", "4", "--t", "2",
             "--theta", "1/2"]
        )
    with pytest.raises(UsageError):
        parse_config(["check", "--family", "explicit-pair", "--pairs", "4;2"])


def test_parse_rejects_too_small_first_window():
    with pytest.raises(UsageError):
        parse_config(["dim", "--family", "geometric", "--s", "1", "--t", "1",
                      "--n-max", "10"])
    with pytest.raises(UsageError):
        parse_config(["check", "--family", "explicit-pair", "--pairs", "3/2:2"])


def test_parse_rejects_irrational_power_family():
    with pytest.raises(UsageError):
        parse_config(
            ["check", "--family", "power-geometric", "--s", "2",
             "--theta", "1/2"]
        )


def test_each_command_accepts_exactly_its_flags():
    family = ["family", "s", "t", "s-coef", "t-coef", "theta", "pairs"]
    expected = {
        "digits": ["x", "depth", "output", "config"],
        "cylinder": ["word", "output", "config"],
        "check": [*family, "depth", "output", "config"],
        "level": [*family, "depth", "limit", "sample", "seed", "output", "config"],
        "quantities": [*family, "depth", "output", "config"],
        "dim": [*family, "n-max", "tail-window", "output", "config"],
        "cover-fit": [*family, "depths", "limit", "output", "config"],
    }
    flags = dict.fromkeys(flag for names in expected.values() for flag in names)
    # a flag a command accepts may still fail later, on its value or on a
    # flag left out; one it does not accept is refused as unrecognized
    accepted = {command: [] for command in expected}
    for command, flag in itertools.product(expected, flags):
        try:
            parse_config([command, f"--{flag}", "1"])
        except UsageError as exc:
            if str(exc) == f"unrecognized arguments: --{flag} 1":
                continue
        accepted[command].append(flag)
    assert {command: set(names) for command, names in accepted.items()} == {
        command: set(names) for command, names in expected.items()}
    # in the order of the command's help
    assert _COMMAND_OPTIONS == {command: tuple(names) for command, names in expected.items()}
    with pytest.raises(UsageError, match=f"choose from {', '.join(expected)}$"):
        parse_config([])


def test_non_positive_pair_is_reported_by_its_values(capsys):
    code, out, err = run_cli(
        capsys, "check", "--family", "explicit-pair", "--pairs", "4:2,16:-1"
    )
    assert (code, out) == (1, "")
    assert err == "usage error: pair 2 must be positive, got (16, -1)\n"


_GEOMETRIC = ["--family", "geometric", "--s", "4", "--t", "2"]

# flags that have a default: an empty value must not quietly stand for it
EMPTY_VALUES = {
    "s-coef": ["check", *_GEOMETRIC],
    "t-coef": ["check", *_GEOMETRIC],
    "limit (level)": ["level", *_GEOMETRIC, "--depth", "1"],
    "seed": ["level", *_GEOMETRIC, "--depth", "1", "--sample", "1"],
    "limit (cover-fit)": ["cover-fit", *_GEOMETRIC],
    "depths": ["cover-fit", *_GEOMETRIC],
    "output": ["digits", "--x", "1/2"],
}


@pytest.mark.parametrize("where", ["flag", "config"])
@pytest.mark.parametrize("case", EMPTY_VALUES)
def test_empty_value_is_a_usage_error(case, where, tmp_path):
    flag = case.split()[0]
    argv = EMPTY_VALUES[case]
    if where == "flag":
        argv = [*argv, f"--{flag}="]
    else:
        path = tmp_path / "run.cfg"
        path.write_text(f"{flag} =\n")
        argv = [*argv, "--config", str(path)]
    with pytest.raises(UsageError, match=f"^--{flag}"):
        parse_config(argv)


# -- config files --------------------------------------------------------------


def test_config_file_supplies_defaults(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# a comment\n"
        "family = geometric\n"
        "s = 4\n"
        "t = 2\n"
        "n-max = 7\n"
        "output = csv\n"
    )
    cfg = parse_config(["dim", "--config", str(path)])
    assert cfg.n_max == 7
    assert cfg.output == "csv"
    assert cfg.family.s(1) == 4


def test_flags_override_config_values(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("family = geometric\ns = 4\nt = 2\nn-max = 7\n")
    cfg = parse_config(["dim", "--config", str(path), "--n-max", "3"])
    assert cfg.n_max == 3


def test_config_file_rejects_unknown_and_duplicate_keys(tmp_path):
    bad_key = tmp_path / "bad.cfg"
    bad_key.write_text("family = geometric\nwavelength = 42\n")
    with pytest.raises(UsageError, match="wavelength"):
        parse_config(["dim", "--config", str(bad_key)])
    duplicate = tmp_path / "dup.cfg"
    duplicate.write_text("s = 4\ns = 5\n")
    with pytest.raises(UsageError, match="duplicate"):
        parse_config(["dim", "--config", str(duplicate)])
    malformed = tmp_path / "broken.cfg"
    malformed.write_text("family geometric\n")
    with pytest.raises(UsageError, match="key = value"):
        parse_config(["dim", "--config", str(malformed)])


def test_config_file_must_exist(tmp_path):
    with pytest.raises(UsageError):
        parse_config(["dim", "--config", str(tmp_path / "absent.cfg")])


def test_config_keys_are_scoped_to_the_command(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("n-max = 7\n")
    with pytest.raises(UsageError, match="n-max"):
        parse_config(["digits", "--x", "1/2", "--config", str(path)])


# -- command output ---------------------------------------------------------------


def test_digits_text_output(capsys):
    code, out, err = run_cli(capsys, "digits", "--x", "3/7")
    assert code == 0
    assert err == ""
    assert out == (
        "x: 3/7\n"
        "digits: [3, 4, 7]\n"
        "count: 3\n"
        "terminated: true\n"
        "remainder: 0\n"
    )


def test_digits_json_output(capsys):
    code, out, _ = run_cli(capsys, "digits", "--x", "3/7", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["digits"] == [3, 4, 7]
    assert doc["terminated"] is True
    assert F(doc["x"]) == F(3, 7)
    assert F(doc["remainder"]) == 0


def test_digits_csv_output(capsys):
    code, out, _ = run_cli(capsys, "digits", "--x", "3/7", "--output", "csv")
    assert code == 0
    assert out == "k,digit\n1,3\n2,4\n3,7\n"


def test_digits_truncation_via_depth(capsys):
    code, out, _ = run_cli(
        capsys, "digits", "--x", "3/7", "--depth", "2", "--output", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["digits"] == [3, 4]
    assert doc["terminated"] is False
    assert F(doc["remainder"]) == F(1, 7)


def test_cylinder_json_round_trips_rationals(capsys):
    code, out, _ = run_cli(
        capsys, "cylinder", "--word", "3,4,7", "--output", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert F(doc["lo"]) == F(3, 7)
    assert F(doc["hi"]) == F(31, 72)
    assert F(doc["length"]) == F(1, 504)
    assert F(doc["reconstruction"]) == F(3, 7)
    assert doc["lo_closed"] is True
    assert doc["hi_closed"] is False


def test_cylinder_rejects_inadmissible_words(capsys):
    code, out, err = run_cli(capsys, "cylinder", "--word", "4,3")
    assert code == 1
    assert out == ""
    assert "inadmissible" in err


def test_check_exit_codes_follow_the_verdict(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--family", "geometric", "--s", "4", "--t", "2",
        "--depth", "100"
    )
    assert code == 0
    assert "all conditions: ok" in out
    code, out, _ = run_cli(
        capsys, "check", "--family", "geometric", "--s", "4", "--t", "8",
        "--depth", "10", "--output", "json"
    )
    assert code == 2
    doc = json.loads(out)
    assert doc["all_ok"] is False
    assert doc["bounds_violation"] == 1


def test_condition_violation_exit_code_outside_check(capsys):
    code, out, err = run_cli(
        capsys, "quantities", "--family", "geometric", "--s", "4", "--t", "8",
        "--depth", "3"
    )
    assert code == 2
    assert "condition violation" in err


def test_domain_errors_exit_one(capsys):
    code, _, err = run_cli(capsys, "digits", "--x", "9/7")
    assert code == 1
    assert "engel_digits" in err


def test_size_limit_exit_one(capsys):
    code, _, err = run_cli(
        capsys, "level", "--family", "geometric", "--s", "2", "--t", "2",
        "--depth", "30"
    )
    assert code == 1
    assert "limit" in err


# a deep refusal writes only its message: the count of level 2000 of
# (2^n, 2^n) is 2^2001000, whose decimal form has 602,362 digits
DEEP_REFUSALS = {
    "level": (["level", "--depth", "2000"],
              "error: level 2000 holds at least 10^602361 intervals, limit 1000000\n"),
    "cover-fit-2-2000": (["cover-fit", "--depths", "2,2000"],
                         "error: depth 2000 holds at least 10^602361 intervals,"
                         " limit 16777216\n"),
    "cover-fit-2000-2": (["cover-fit", "--depths", "2000,2"],
                         "error: depth 2000 holds at least 10^602361 intervals,"
                         " limit 16777216\n"),
}


@pytest.mark.parametrize("case", DEEP_REFUSALS)
def test_deep_refusals_write_their_message_only(case, capsys):
    (command, *flags), stderr = DEEP_REFUSALS[case]
    result = run_cli(capsys, command, "--family", "geometric", "--s", "2",
                     "--t", "2", *flags)
    assert result == (1, "", stderr)


def test_level_json_lists_sorted_intervals(capsys):
    code, out, _ = run_cli(
        capsys, "level", "--family", "geometric", "--s", "4", "--t", "2",
        "--depth", "1", "--output", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 2
    assert F(doc["min_gap"]) == F(79, 2400)
    lows = [F(iv["lo"]) for iv in doc["intervals"]]
    assert lows == sorted(lows)
    assert lows[0] == F(7, 40)


def test_level_sampling_is_deterministic(capsys):
    args = (
        "level", "--family", "geometric", "--s", "4", "--t", "2",
        "--depth", "3", "--sample", "5", "--seed", "9", "--output", "json"
    )
    code_a, out_a, _ = run_cli(capsys, *args)
    code_b, out_b, _ = run_cli(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b
    doc = json.loads(out_a)
    assert len(doc["words"]) == 5
    _, out_c, _ = run_cli(capsys, *args[:-3], "17", "--output", "json")
    assert out_c != out_a  # a different seed draws different words


def test_quantities_csv_frozen_block(capsys):
    code, out, _ = run_cli(
        capsys, "quantities", "--family", "geometric", "--s", "4", "--t", "2",
        "--depth", "3", "--output", "csv"
    )
    assert code == 0
    assert out == (
        "n,m_n,N_n,delta_n,epsilon_n\n"
        "1,2,2,1/64,1/256\n"
        "2,4,8,1/8192,1/32768\n"
        "3,8,64,1/4194304,1/16777216\n"
    )


def test_dim_csv_contract(capsys):
    code, out, _ = run_cli(
        capsys, "dim", "--family", "geometric", "--s", "4", "--t", "2",
        "--n-max", "12", "--output", "csv"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,F_n,upper_n,lower_n,N_n,delta_n,epsilon_n"
    assert len(lines) == 13  # header + one row per level
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == pytest.approx(0.125)
    assert first[3] == ""  # no separation quotient at level 1
    assert first[4] == "2"
    assert first[5] == "1/64"
    last = lines[-1].split(",")
    assert last[0] == "12"
    assert float(last[2]) > float(last[3]) > 0


def test_dim_json_round_trips_every_exact_value(capsys):
    code, out, _ = run_cli(
        capsys, "dim", "--family", "geometric", "--s", "4", "--t", "2",
        "--n-max", "8", "--output", "json"
    )
    assert code == 0
    doc = json.loads(out)
    fam = SequenceFamily.geometric(4, 2)
    assert doc["n_max"] == 8
    assert len(doc["levels"]) == 8
    for level in doc["levels"]:
        n = level["n"]
        assert int(level["N_n"]) == fam.word_count(n)
        quantities = fam.level_quantities(n)
        assert F(level["delta_n"]) == quantities.diameter_bound
        assert F(level["epsilon_n"]) == quantities.gap_bound
        assert 0 <= float(level["F_n"]) <= 1
    assert doc["levels"][0]["lower_n"] is None
    assert float(doc["estimated_dim"]) == pytest.approx(
        min(float(lv["F_n"]) for lv in doc["levels"][-1:]), abs=1e-15
    )


def test_cover_fit_json_matches_library(capsys):
    from engeldim import empirical_cover_fit

    code, out, _ = run_cli(
        capsys, "cover-fit", "--family", "geometric", "--s", "2", "--t", "2",
        "--depths", "2,3,4", "--output", "json"
    )
    assert code == 0
    doc = json.loads(out)
    fit = empirical_cover_fit(SequenceFamily.geometric(2, 2), [2, 3, 4])
    assert float(doc["slope"]) == pytest.approx(fit.slope, abs=1e-15)
    assert doc["depths"] == [2, 3, 4]


def test_cover_fit_text_default_depths(capsys):
    code, out, _ = run_cli(
        capsys, "cover-fit", "--family", "geometric", "--s", "4", "--t", "2"
    )
    assert code == 0
    assert "depths: 2, 3, 4, 5, 6" in out


def test_repeated_runs_are_byte_identical(capsys):
    for args in (
        ("dim", "--family", "geometric", "--s", "4", "--t", "2",
         "--n-max", "15", "--output", "csv"),
        ("dim", "--family", "geometric", "--s", "2", "--t", "2",
         "--n-max", "15", "--output", "json"),
        ("level", "--family", "geometric", "--s", "4", "--t", "2",
         "--depth", "2", "--output", "csv"),
    ):
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second


def _readme_cli_lines(prefix):
    """The argument lists of README's CLI section lines that start with
    prefix, with their trailing comments dropped."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    return [shlex.split(line, comments=True)
            for line in section.splitlines() if line.startswith(prefix)]


@pytest.mark.parametrize("argv", _readme_cli_lines("engeldim "), ids=" ".join)
def test_readme_commands_parse(argv):
    parse_config(argv[1:])


@pytest.mark.parametrize("family", _readme_cli_lines("--family "), ids=" ".join)
def test_readme_families_pass_check(family, capsys):
    # growth at level n reads s_{n+1}, so a table is checked to its
    # second-last pair
    depth = 20
    if "--pairs" in family:
        depth = family[family.index("--pairs") + 1].count(",")
    code, _, err = run_cli(capsys, "check", *family, "--depth", str(depth))
    assert (code, err) == (0, "")


def test_table_is_checked_to_its_second_last_pair(capsys):
    # as README's check paragraph says of its 3-pair example
    table = ["check", "--family", "explicit-pair", "--pairs", "4:2,16:4,64:8"]
    past_end = "error: table family has 3 entries, index 4 requested\n"
    assert run_cli(capsys, *table) == (1, "", past_end)
    assert run_cli(capsys, *table, "--depth", "3") == (1, "", past_end)
    code, out, err = run_cli(capsys, *table, "--depth", "2")
    assert (code, err) == (0, "")
    assert "all conditions: ok" in out


def test_help_exits_cleanly():
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0


@pytest.mark.parametrize("argv", [["-h"], ["--bogus", "--help"]])
def test_program_help_lists_each_command(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    for command, (summary, *_) in cli._COMMANDS.items():
        assert any(line.split() == [command, *summary.split()] for line in lines)


def test_help_is_read_where_it_stands(capsys):
    # before a stray token is reported, after a flag missing its value
    with pytest.raises(SystemExit) as info:
        main(["digits", "--bogus", "3", "-h"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: engeldim digits ")
    assert run_cli(capsys, "digits", "--x", "--help") == (
        1, "", "usage error: argument --x: expected one argument\n")
    assert run_cli(capsys, "digits", "--help=yes") == (
        1, "", "usage error: argument -h/--help: ignored explicit argument 'yes'\n")


_COEFS = {"s-coef": "1", "t-coef": "1"}

# the default each flag's help shows; a flag not named shows none
HELP_DEFAULTS = {
    "digits": {"output": "text"},
    "cylinder": {"output": "text"},
    "check": {**_COEFS, "depth": "50", "output": "text"},
    "level": {**_COEFS, "limit": str(DEFAULT_LEVEL_LIMIT), "seed": "0",
              "output": "text"},
    "quantities": {**_COEFS, "output": "text"},
    "dim": {**_COEFS, "tail-window": "n-max/10", "output": "text"},
    "cover-fit": {**_COEFS, "depths": "2,3,4,5,6",
                  "limit": str(DEFAULT_FIT_LIMIT), "output": "text"},
}


@pytest.mark.parametrize("command", HELP_DEFAULTS)
def test_help_shows_each_flag_default(command, capsys):
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    options = " ".join(capsys.readouterr().out.split()).partition("options:")[2]
    shown = {}
    for flag in _COMMAND_OPTIONS[command]:
        metavar = flag.upper().replace("-", "_")
        help_text = options.split(f"--{flag} {metavar} ")[1].split(" --")[0]
        notes = re.findall(r"\(default ([^)]*)\)", help_text)
        assert len(notes) <= 1, (flag, help_text)
        if notes:
            shown[flag] = notes[0]
    assert shown == HELP_DEFAULTS[command]


def test_huge_exact_values_survive_string_conversion():
    # at depth 130 the exact bound strings pass the interpreter's default
    # 4300-digit conversion cap; a fresh process proves the guard works
    result = subprocess.run(
        [sys.executable, "-m", "engeldim", "quantities", "--family",
         "geometric", "--s", "4", "--t", "2", "--depth", "130",
         "--output", "csv"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0
    lines = result.stdout.strip().split("\n")
    assert len(lines) == 131
    assert len(lines[-1]) > 4300


class _ByteCounter(io.TextIOBase):
    """A text stream that keeps only the number of bytes written to it."""

    bytes = 0

    def write(self, text):
        self.bytes += len(text.encode())
        return len(text)


def _streamed_peak(argv):
    # the exit code, the bytes written and the tracemalloc peak of one run
    cfg = parse_config(argv)
    sink = _ByteCounter()
    tracemalloc.start()
    try:
        code = run(cfg, sink)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return code, sink.bytes, peak


def _streamed_dim_peak(output):
    return _streamed_peak(["dim", "--family", "geometric", "--s", "2", "--t", "2",
                           "--n-max", "400", "--output", output])


def _flat_level_argv(depth, output="text"):
    # the level of (2^n, 2), 2^depth intervals
    return ["level", "--family", "geometric", "--s", "2", "--t", "1",
            "--t-coef", "2", "--depth", str(depth), "--output", output]


@pytest.mark.parametrize("output", ["text", "csv", "json"])
def test_level_renders_from_endpoint_ints(output):
    # 8192 intervals, streamed: each interval's endpoint ints are drawn
    # only as it is printed, and holding the level's endpoint ints peaks
    # near 2.7 MB
    code, written, peak = _streamed_peak(_flat_level_argv(13, output))
    assert code == 0
    assert written > 10**6
    assert peak < 1_200_000


def test_a_level_holds_about_the_square_root_of_its_count():
    # 65,536 intervals: the builder holds 256 head states and 256 tails,
    # and the peak is near 0.11 MB; holding the level-15 prefix states, as
    # a builder of the whole words from the left does, peaks near 7.6 MB
    code, written, peak = _streamed_peak(_flat_level_argv(16))
    assert code == 0
    assert written == 12_716_703
    assert peak < 500_000


def test_level_csv_forms_neither_the_min_gap_nor_the_longest_length(monkeypatch):
    # csv prints the intervals alone, so the header values stay unformed
    cfg = parse_config(["level", "--family", "geometric", "--s", "4", "--t", "2",
                        "--depth", "4", "--output", "csv"])

    def refuse(*args):
        raise AssertionError("a value the csv does not print was formed")

    monkeypatch.setattr(construction, "_longest_length", refuse)
    monkeypatch.setattr(construction, "Fraction", refuse)
    out = io.StringIO()
    assert run(cfg, out) == 0
    assert out.getvalue().count("\n") == 1 + 1024


def random_table(rng):
    """Five (s, t) pairs of small rationals that meet the window conditions,
    enough for levels 0..4."""
    pairs, s = [], F(rng.randint(12, 40), rng.randint(1, 3))
    for _ in range(5):
        t = 2 + F(rng.randint(0, 6), 3)
        pairs.append((s, t))
        s += t + F(rng.randint(0, 12), rng.randint(1, 4))
    return pairs


def level_oracle(family, n, output):
    """The level command's output, built from level_intervals(n) through
    Fraction arithmetic and str(Fraction)."""
    intervals = family.level_intervals(n)
    gaps = [right.lo - left.hi for left, right in zip(intervals, intervals[1:])]
    gap = str(min(gaps)) if gaps else None
    longest = str(max(iv.hi - iv.lo for iv in intervals))
    if output == "text":
        lines = [f"family: {family.description} ({family.kind})", f"level: {n}",
                 f"count: {len(intervals)}", f"min gap: {gap or 'none'}",
                 f"max length: {longest}", "intervals:"]
        lines += [f"  [{iv.lo}, {iv.hi}]" for iv in intervals]
        return "".join(line + "\n" for line in lines)
    if output == "csv":
        rows = ["index,lo,hi,length"]
        rows += [f"{k},{iv.lo},{iv.hi},{iv.hi - iv.lo}"
                 for k, iv in enumerate(intervals, start=1)]
        return "".join(row + "\n" for row in rows)
    doc = {
        "command": "level",
        "family": {"kind": family.kind, "description": family.description},
        "n": n,
        "count": len(intervals),
        "min_gap": gap,
        "max_length": longest,
        "intervals": [{"lo": str(iv.lo), "hi": str(iv.hi)} for iv in intervals],
    }
    return json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("seed", range(6))
def test_level_output_matches_the_fraction_oracle(seed, capsys):
    # level 0 holds the one interval with whole-number endpoints, [0, 1]
    pairs = random_table(random.Random(seed))
    family = SequenceFamily.from_pairs(pairs)
    flag = ",".join(f"{s}:{t}" for s, t in pairs)
    for n in range(5):
        for output in ("text", "csv", "json"):
            code, out, err = run_cli(capsys, "level", "--family", "explicit-pair",
                                     "--pairs", flag, "--depth", str(n),
                                     "--output", output)
            assert (code, err) == (0, "")
            assert out == level_oracle(family, n, output), (n, output)


@pytest.mark.parametrize("output", ["text", "csv", "json"])
def test_level_calls_no_helper_per_interval(output, monkeypatch):
    # 1024 intervals: the builder of the ends in lowest terms is called
    # once for the level, and the generic fraction and interval printers
    # only for the header, never once per interval
    calls = collections.Counter()

    def count(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(construction, "_lowest_ends")
    count(cli, "Fraction")
    count(cli, "_interval_str")
    cfg = parse_config(["level", "--family", "geometric", "--s", "4", "--t", "2",
                        "--depth", "4", "--output", output])
    out = io.StringIO()
    assert run(cfg, out) == 0
    assert out.getvalue().count("/") > 2 * 1024
    assert calls["_lowest_ends"] == 1
    assert max(calls.values()) <= 2, calls


def test_dim_csv_renders_each_level_as_the_walk_yields_it():
    # each row is written and dropped as the walk yields its level, for a
    # peak of about 0.4 MiB; the whole output held at once is 9.8 MB
    code, written, peak = _streamed_dim_peak("csv")
    assert code == 0
    assert written == 9_805_379
    assert peak < 4 * 2**20


def test_dim_json_renders_each_level_as_the_walk_yields_it():
    code, written, peak = _streamed_dim_peak("json")
    assert code == 0
    assert written == 9_860_927
    assert peak < 4 * 2**20


@pytest.mark.parametrize("output", ["csv", "json"])
def test_closed_stdout_exits_quietly(output):
    # the reader leaves after one line of several megabytes of output; a
    # later write meets a broken pipe, which must not print a traceback
    with subprocess.Popen(
        [sys.executable, "-m", "engeldim", "dim", "--family", "geometric",
         "--s", "4", "--t", "2", "--n-max", "300", "--output", output],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        header = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert header == {"csv": b"n,F_n,upper_n,lower_n,N_n,delta_n,epsilon_n\n",
                      "json": b"{\n"}[output]
    assert code == 1
    assert err == b""
