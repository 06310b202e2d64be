"""Command-line contract: byte-exact text reports, versioned JSON, exit codes."""

import decimal
import hashlib
import json
import math
import subprocess
import sys

import pytest

from dtmoments import Series, e_transform
from dtmoments.cli import main
from dtmoments.genfun import f_series
from dtmoments.ratfun import DistinctnessViolation, ExactDivisionError
from conftest import assert_same_text


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- moment

def test_moment_text_is_byte_exact(capsys):
    code, out, err = run(capsys, "moment", "--key", "1,1,1,1")
    assert code == 0
    assert out == "N=4 M=2/3\n"
    assert err == ""


def test_moment_json_carries_version(capsys):
    code, out, _ = run(capsys, "moment", "--key", "1,1,1,1", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["version"] == "0.1.0"
    assert payload["key"] == [1, 1, 1, 1]
    assert payload["n_value"] == 4
    assert payload["moment"] == "2/3"


def test_moment_with_negative_entry_reports_n_only(capsys):
    code, out, _ = run(capsys, "moment", "--key=-1,-1")
    assert code == 0
    assert out == "N=1\n"
    code, out, _ = run(capsys, "moment", "--key=-1,-1", "--output", "json")
    assert json.loads(out)["moment"] is None


def test_moment_bad_key_is_usage_error(capsys):
    code, out, err = run(capsys, "moment", "--key", "1,2,foo")
    assert code == 2
    assert out == ""
    assert "error" in err


def test_moment_odd_key_is_usage_error(capsys):
    code, _, _ = run(capsys, "moment", "--key", "1,2,3")
    assert code == 2


# ---------------------------------------------------------------- ppoly

def test_ppoly_text_is_byte_exact(capsys):
    code, out, _ = run(capsys, "ppoly", "--m", "2", "--n", "2", "--k", "1", "--l", "1")
    assert code == 0
    assert out == "2 - u1 - u2 - v1 - v2\n"


def test_ppoly_json_of_a_mirrored_cell_is_pinned(capsys):
    # (4, 3) has more rows than columns, and its cell (2, 1) comes from
    # mirrored (3, 4) cells built on one term per v-orbit
    code, out, _ = run(capsys, "ppoly", "--m", "4", "--n", "3", "--k", "2", "--l", "1",
                       "--output", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == "a6e7f605e855e0b2"


def test_ppoly_out_of_range_is_usage_error(capsys):
    code, _, err = run(capsys, "ppoly", "--m", "2", "--n", "2", "--k", "2", "--l", "0")
    assert code == 2
    assert "error" in err


# ---------------------------------------------------------------- series / rational

def test_series_text_round_trips(capsys):
    code, out, _ = run(capsys, "series", "--n", "2", "--D", "4")
    assert code == 0
    assert Series.from_text(out) == f_series(2, 4)


def test_series_json_has_version_and_terms(capsys):
    code, out, _ = run(capsys, "series", "--n", "1", "--D", "4")
    assert code == 0
    code, out, _ = run(capsys, "series", "--n", "1", "--D", "4", "--output", "json")
    payload = json.loads(out)
    assert payload["version"] == "0.1.0"
    assert payload["vars"] == ["z1", "w1"]
    assert payload["D"] == 4


def test_rational_text_lists_forms_and_denominator(capsys):
    code, out, _ = run(capsys, "rational", "--n", "2")
    assert code == 0
    assert "u1 = " in out and "u2 = " in out
    assert "(1-u" in out


def test_rational_json(capsys):
    code, out, _ = run(capsys, "rational", "--n", "2", "--output", "json")
    payload = json.loads(out)
    assert payload["version"] == "0.1.0"
    assert payload["n"] == 2
    assert len(payload["forms"]) == 2


# sha256 of the rational reports for n = 1..5, text then JSON for each n
RATIONAL_REPORTS_SHA256 = "6ab0504851a973cd8d2d71ca1603a698e70988c880cbe45edbd9d9b98011461c"


def test_rational_reports_are_pinned(capsys):
    digest = hashlib.sha256()
    for n in range(1, 6):
        for fmt in ("text", "json"):
            code, out, err = run(capsys, "rational", "--n", str(n), "--output", fmt)
            assert (code, err) == (0, "")
            digest.update(out.encode())
    assert digest.hexdigest() == RATIONAL_REPORTS_SHA256


def test_streamed_json_matches_json_dumps(capsys):
    from dtmoments.cli import _emit_json

    payload = {"b": [1, {"y": [2, 3], "x": "\u00e9"}], "a": {}, "n": 3, "e": []}
    streamed = dict(payload, b=iter(payload["b"]), e=iter([]))
    _emit_json(streamed)
    expected = json.dumps({"version": "0.1.0", **payload}, indent=2, sort_keys=True) + "\n"
    assert capsys.readouterr().out == expected


class _ClosedPipe:
    """A stdout whose reader has gone: every write raises, as a pipe does
    once `head` has read enough."""

    def __init__(self, room=0):
        self.room = room

    def write(self, text):
        self.room -= len(text)
        if self.room < 0:
            raise BrokenPipeError(32, "Broken pipe")
        return len(text)

    def flush(self):
        if self.room < 0:
            raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize(
    "argv, room",
    [
        (("moment", "--key", "1,1,1,1"), 0),
        (("rational", "--n", "4"), 100),
        (("rational", "--n", "4", "--output", "json"), 100),
        (("series", "--n", "2", "--D", "8"), 10),
    ],
)
def test_closed_stdout_is_a_silent_exit_1(monkeypatch, capsys, argv, room):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe(room))
    assert main(list(argv)) == 1
    assert capsys.readouterr().err == ""


def test_closed_pipe_from_the_shell_is_silent():
    proc = subprocess.Popen(
        [sys.executable, "-m", "dtmoments", "rational", "--n", "6"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert len(proc.stdout.read(64)) == 64
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    # a pipe that never reports the closed reader lets the write finish
    assert proc.wait(timeout=60) in (0, 1)
    assert err == b""


class _Recorder:
    """A stdout that keeps every write apart."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


def test_series_and_etransform_write_text_in_pieces(monkeypatch, tmp_path):
    # f_series(3, 20) has more terms than one piece holds
    f = f_series(3, 20)
    path = tmp_path / "f.series"
    path.write_text(f.to_text(), encoding="ascii")
    for argv, expected in [
        (["series", "--n", "3", "--D", "20"], f.to_text()),
        (["etransform", str(path)], e_transform(f).to_text()),
    ]:
        out = _Recorder()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(argv) == 0
        assert len(out.writes) > 2
        assert_same_text("".join(out.writes), expected)


def test_a_pipe_closed_between_pieces_is_a_silent_exit_1(monkeypatch, capsys, tmp_path):
    path = tmp_path / "f.series"
    path.write_text(f_series(3, 20).to_text(), encoding="ascii")
    for argv in (["series", "--n", "3", "--D", "20"], ["etransform", str(path)]):
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(200_000))
        assert main(argv) == 1
        assert capsys.readouterr().err == ""


def test_series_into_a_pipe_closed_midway_from_the_shell_is_exit_1():
    # 359,509 bytes: more than the pipe holds, so a write meets the closed
    # reader
    proc = subprocess.Popen(
        [sys.executable, "-m", "dtmoments", "series", "--n", "3", "--D", "20"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert len(proc.stdout.read(64)) == 64
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


def test_a_caret_in_a_series_file_name_is_a_usage_error_at_its_line(tmp_path, capsys):
    path = tmp_path / "bad.series"
    path.write_text("# vars: z^1 w1\n# N: 2\n# D: 4\n1/1\n", encoding="ascii")
    code, out, err = run(capsys, "etransform", str(path))
    assert (code, out) == (2, "")
    assert err == "dtmoments: error: line 1: a variable name holds '^'\n"


# ---------------------------------------------------------------- odot / etransform

def test_odot_of_files_matches_library(tmp_path, capsys):
    f = f_series(1, 6)
    path = tmp_path / "f.series"
    path.write_text(f.to_text(), encoding="ascii")
    code, out, _ = run(capsys, "odot", str(path), str(path))
    assert code == 0
    assert Series.from_text(out) == f.odot(f)


def test_etransform_of_file_matches_library(tmp_path, capsys):
    f = f_series(1, 6)
    path = tmp_path / "f.series"
    path.write_text(f.to_text(), encoding="ascii")
    code, out, _ = run(capsys, "etransform", str(path))
    assert code == 0
    expected = e_transform(f)
    for k, part in expected.parts.items():
        for line in part.to_text().splitlines():
            if not line.startswith("#"):
                assert line in out
    assert f"q^{expected.order}" in out


def test_odot_missing_file_is_usage_error(tmp_path, capsys):
    code, _, err = run(capsys, "odot", str(tmp_path / "absent"), str(tmp_path / "absent"))
    assert code == 2
    assert "error" in err


def test_odot_mismatched_registries_is_usage_error(tmp_path, capsys):
    a = tmp_path / "a.series"
    b = tmp_path / "b.series"
    a.write_text(f_series(1, 4).to_text(), encoding="ascii")
    b.write_text(f_series(2, 4).to_text(), encoding="ascii")
    code, _, err = run(capsys, "odot", str(a), str(b))
    assert code == 2
    assert "error" in err


MALFORMED_LINES = [
    ("1/0 z1 w1", "zero denominator"),
    ("1/2 x9 w1", "unknown variable 'x9'"),
    ("1.5 z1 w1", "not an integer"),
    ("1/2.0 z1 w1", "not an integer"),
    ("1/2 z1^a w1", "not an integer"),
    ("1/2 z1^1.5 w1", "not an integer"),
    ("1/2 z1^-1 w1^3", "negative exponent"),
    ("1 z1 w1 z1", "variable 'z1' repeated"),
    ("1/2 z1^2 w1^0 w1", "variable 'w1' repeated"),
    ("1/2 z1^2 w1", "degree 3 is not a multiple of N = 2"),
    ("# D: 2", "after a term line"),
]


@pytest.mark.parametrize("command", ["etransform", "odot"])
@pytest.mark.parametrize("line, reason", MALFORMED_LINES)
def test_malformed_series_line_is_one_line_usage_error(tmp_path, capsys, command, line, reason):
    path = tmp_path / "bad.series"
    path.write_text("# vars: z1 w1\n# N: 2\n# D: 4\n1/1\n" + line + "\n", encoding="ascii")
    args = [str(path)] if command == "etransform" else [str(path), str(path)]
    code, out, err = run(capsys, command, *args)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "line 5" in err and reason in err


# ---------------------------------------------------------------- diagonal

def test_diagonal_h_text(capsys):
    code, out, _ = run(capsys, "diagonal", "--kind", "h", "--n", "2", "--K", "3")
    assert code == 0
    assert out == "0 1\n1 4\n2 16\n3 64\n"


def test_diagonal_g_text_rows_are_sorted(capsys):
    code, out, _ = run(capsys, "diagonal", "--kind", "g", "--n", "2", "--D", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "0,0 1"
    assert "1,1 4" in lines


def test_diagonal_kind_without_bound_is_usage_error(capsys):
    code, _, _ = run(capsys, "diagonal", "--kind", "g", "--n", "2")
    assert code == 2
    code, _, _ = run(capsys, "diagonal", "--kind", "h", "--n", "2")
    assert code == 2


def test_diagonal_json(capsys):
    code, out, _ = run(
        capsys, "diagonal", "--kind", "h", "--n", "3", "--K", "2", "--output", "json"
    )
    payload = json.loads(out)
    assert payload["coefficients"] == [1, 27, 729]
    assert payload["version"] == "0.1.0"


# ---------------------------------------------------------------- checkers

def test_check_conjecture_defaults_to_json(capsys):
    code, out, _ = run(capsys, "check-conjecture", "--n", "2", "--K", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_match"] is True
    assert payload["first_divergence"] is None
    assert payload["version"] == "0.1.0"
    assert [row["computed"] for row in payload["rows"]] == [1, 4, 16]


def test_check_conjecture_text_mode(capsys):
    code, out, _ = run(capsys, "check-conjecture", "--n", "1", "--K", "1", "--output", "text")
    assert code == 0
    assert out.splitlines()[-1] == "all_match=true"


def test_check_identity_defaults_to_json(capsys):
    code, out, _ = run(capsys, "check-identity", "--p", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"match": True, "p": 2, "version": "0.1.0"}


def test_check_identity_text_mode(capsys):
    code, out, _ = run(capsys, "check-identity", "--p", "1", "--output", "text")
    assert code == 0
    assert out == "p=1 match=true\n"


def test_check_identity_bad_order_is_usage_error(capsys):
    code, _, _ = run(capsys, "check-identity", "--p", "0")
    assert code == 2


# ---------------------------------------------------------------- exit-code plumbing

def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_distinctness_violation_maps_to_exit_1(monkeypatch, capsys):
    def boom(n):
        raise DistinctnessViolation("z1w1+z2w2 collides")

    monkeypatch.setattr("dtmoments.cli.f_rational", boom)
    code, out, err = run(capsys, "rational", "--n", "2")
    assert code == 1
    assert out == ""
    assert "computation failed" in err


def test_exact_division_error_maps_to_exit_1(monkeypatch, capsys):
    def boom(m, n, k, l):
        raise ExactDivisionError("remainder left over")

    monkeypatch.setattr("dtmoments.cli.p_polynomial", boom)
    code, _, err = run(capsys, "ppoly", "--m", "2", "--n", "2", "--k", "0", "--l", "0")
    assert code == 1
    assert "computation failed" in err


def test_recursion_too_deep_is_one_line_computation_failure(capsys):
    code, out, err = run(capsys, "moment", "--key", "1500,1500,1,1")
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("dtmoments: computation failed: ")


def test_huge_key_entry_is_one_line_computation_failure(capsys):
    # (m + 1)! of an entry past the C long range overflows
    key = ",".join([str(10**20)] * 2)
    code, out, err = run(capsys, "moment", "--key", key)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("dtmoments: computation failed: ")


def _digits(x: int) -> str:
    """x in decimal, whatever the interpreter's int-digit cap."""
    return format(decimal.Decimal(x), "f")


def _int_digit_cap():
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


@pytest.mark.parametrize("key", ["1700,1700", "1700,1700,0,0"])
def test_moment_prints_integers_past_the_int_digit_cap(capsys, key):
    # 1701! has 4,759 digits, more than the default cap of 4,300
    cap = _int_digit_cap()
    code, out, err = run(capsys, "moment", "--key", key)
    assert (code, err) == (0, "")
    assert out == f"N=1 M=1/{_digits(math.factorial(1701))}\n"
    code, out, err = run(capsys, "moment", "--key", key, "--output", "json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["n_value"] == 1
    assert payload["moment"] == f"1/{_digits(math.factorial(1701))}"
    assert _int_digit_cap() == cap


def test_series_files_take_coefficients_past_the_int_digit_cap(tmp_path, capsys):
    big = _digits(7**6000)  # 5,071 digits
    path, one = tmp_path / "big.series", tmp_path / "one.series"
    path.write_text(f"# vars: z1 w1\n# N: 2\n# D: 2\n{big} z1 w1\n", encoding="ascii")
    one.write_text("# vars: z1 w1\n# N: 2\n# D: 2\n1\n", encoding="ascii")
    cap = _int_digit_cap()
    code, out, err = run(capsys, "odot", str(path), str(one))
    assert (code, err) == (0, "")
    assert out.endswith(f"\n{big}/1 z1^1 w1^1\n")
    code, out, err = run(capsys, "etransform", str(path))
    assert (code, err) == (0, "")
    assert big in out
    assert _int_digit_cap() == cap


# ---------------------------------------------------------------- determinism

def test_repeated_runs_are_byte_identical(capsys):
    _, first, _ = run(capsys, "rational", "--n", "3")
    _, second, _ = run(capsys, "rational", "--n", "3")
    assert first == second
    _, first, _ = run(capsys, "series", "--n", "2", "--D", "6", "--output", "json")
    _, second, _ = run(capsys, "series", "--n", "2", "--D", "6", "--output", "json")
    assert first == second


# ---------------------------------------------------------------- installed script

def test_console_script_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "dtmoments", "moment", "--key", "1,1,1,1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "N=4 M=2/3\n"


def test_etransform_walks_the_terms_not_every_level(tmp_path):
    # one term at level 1 under a degree bound of 10**9: the report is the
    # same as under the bound 2, and it must not take one step per level
    def etransform(D):
        path = tmp_path / f"d{D}.series"
        path.write_text(f"# vars: z1 w1\n# N: 2\n# D: {D}\n1/1 z1 w1\n", encoding="ascii")
        proc = subprocess.run(
            [sys.executable, "-m", "dtmoments", "etransform", str(path)],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    assert etransform(10**9) == etransform(2)
