"""What each row of the command table hands its runner, what cylinder
prints for many words, and how a size refusal names a huge count."""

import io
import json
import math
import random

import pytest

from engeldim import SequenceFamily, SizeLimitError
from engeldim.cli import main, parse_config, run
from engeldim.construction import DEFAULT_LEVEL_LIMIT
from engeldim.engel import cylinder_length, reconstruct

FAMILY = ["--family", "geometric", "--s", "4", "--t", "2"]

# each command's minimal valid arguments and the fields of its own flags
MINIMAL = {
    "digits": (["--x", "3/7"], {"x", "depth"}),
    "cylinder": (["--word", "3,4,7"], {"word"}),
    "check": (FAMILY, {"depth"}),
    "level": ([*FAMILY, "--depth", "2"], {"depth", "limit", "sample", "seed"}),
    "quantities": ([*FAMILY, "--depth", "2"], {"depth"}),
    "dim": ([*FAMILY, "--n-max", "5"], {"n_max", "tail_window"}),
    "cover-fit": (FAMILY, {"depths", "limit"}),
}


@pytest.mark.parametrize("command", MINIMAL)
def test_config_holds_only_the_commands_own_fields(command):
    argv, fields = MINIMAL[command]
    cfg = parse_config([command, *argv])
    assert set(vars(cfg)) == {"command", "output", "family"} | fields
    assert (cfg.command, cfg.output) == (command, "text")
    if command in ("digits", "cylinder"):
        assert cfg.family is None
    else:
        assert isinstance(cfg.family, SequenceFamily)
    assert run(cfg, io.StringIO()) == 0


def _words(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        yield sorted(rng.randint(2, 60) for _ in range(rng.randint(1, 8)))


def _cylinder(capsys, word, output):
    code = main(["cylinder", "--word", ",".join(map(str, word)),
                 "--output", output])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    return captured.out


def test_cylinder_reports_the_words_reconstruction_and_length(capsys):
    for word in _words(200, 20261018):
        value, length = str(reconstruct(word)), str(cylinder_length(word))
        doc = json.loads(_cylinder(capsys, word, "json"))
        assert (doc["reconstruction"], doc["length"]) == (value, length), word
        assert doc["lo"] == doc["reconstruction"], word
        header, row = _cylinder(capsys, word, "csv").splitlines()
        assert header == "word,lo,hi,length,reconstruction"
        assert row == ",".join([" ".join(map(str, word)), value, doc["hi"],
                                length, value]), word


@pytest.mark.parametrize("count, shown", [
    (36028797018963968, "36028797018963968"),
    (10**40 - 1, "9" * 40),
    (10**40, "at least 10^40"),
    # math.log10 reads just under 512 here, and exactly 1000 below
    (10**512, "at least 10^512"),
    (10**1000 - 1, "at least 10^999"),
    (10**1000, "at least 10^1000"),
    # the count of level 2000 of (2^n, 2^n), far from a power of ten
    (2**2001000, "at least 10^602361"),
], ids=["17-digits", "40-digits", "41-digits", "10^512", "10^1000-1", "10^1000",
        "2^2001000"])
def test_size_refusal_shows_a_long_count_by_its_digits(count, shown):
    err = SizeLimitError(count, 100, "level 10")
    assert str(err) == f"level 10 holds {shown} intervals, limit 100"
    assert (err.count, err.limit) == (count, 100)


def test_deep_level_refusal_is_short_and_keeps_the_exact_count(capsys):
    argv = ["level", "--family", "geometric", "--s", "2", "--t", "2",
            "--depth", "1000"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.encode()) < 200
    family = SequenceFamily.geometric(2, 2)
    windows = math.prod(j_max - j_min + 1
                        for _, _, j_min, j_max in family.levels(1000))
    with pytest.raises(SizeLimitError) as info:
        family.level_intervals(1000, DEFAULT_LEVEL_LIMIT)
    assert (info.value.count, info.value.limit) == (windows, DEFAULT_LEVEL_LIMIT)
    assert captured.err == f"error: {info.value}\n"
    k = int(captured.err.split("at least 10^")[1].split()[0])
    assert 10**k <= windows < 10**(k + 1)
