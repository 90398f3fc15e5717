"""Every package error carries the exit code the CLI returns for it."""
import inspect

import pytest

import quantile_kaczmarz.cli as cli
from quantile_kaczmarz import errors
from quantile_kaczmarz.errors import (
    EmptyInputError,
    PreconditionViolatedError,
    QkError,
    TooManySubsetsError,
    ZeroRowError,
)

# The stdlib base each error keeps, so that callers catching it still work.
STDLIB_BASES = {
    "ShapeError": ValueError,
    "ZeroRowError": ValueError,
    "NoConvergenceError": RuntimeError,
    "TooManySubsetsError": ValueError,
    "SpecError": ValueError,
    "EmptyInputError": ValueError,
    "ConfigError": ValueError,
    "DomainError": ValueError,
    "ConditionViolatedError": ValueError,
    "PreconditionViolatedError": ValueError,
    "DivergedError": RuntimeError,
    "IoError": OSError,
}

GENERATE = ["generate", "--m", "20", "--n", "3", "--seed", "1"]


def test_every_error_is_a_qk_error_with_an_exit_code():
    classes = {name: cls for name, cls in inspect.getmembers(errors, inspect.isclass)
               if cls.__module__ == errors.__name__ and cls is not QkError}
    assert set(classes) == set(STDLIB_BASES)
    for name, cls in classes.items():
        assert issubclass(cls, QkError), name
        assert issubclass(cls, STDLIB_BASES[name]), name
        assert cls.exit_code in (2, 3, 4), name
    assert (QkError.exit_code, errors.DivergedError.exit_code, errors.IoError.exit_code) == (2, 3, 4)


@pytest.mark.parametrize("error", [
    ZeroRowError(3),
    TooManySubsetsError("too many subsets"),
    EmptyInputError("empty input"),
    PreconditionViolatedError("vacuous bound"),
], ids=lambda e: type(e).__name__)
def test_package_error_exits_2_with_one_line(tmp_path, capsys, monkeypatch, error):
    def fail(spec):
        raise error

    monkeypatch.setattr(cli, "generate", fail)
    assert cli.main([*GENERATE, "--out", str(tmp_path / "sys")]) == 2
    err = capsys.readouterr().err
    assert err == f"configuration error: {error}\n"


def test_raw_os_error_exits_4(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    assert cli.main([*GENERATE, "--out", str(tmp_path / "file" / "sys")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and err.count("\n") == 1
