"""Exception types mapped to CLI exit codes."""


class ConfigError(Exception):
    """Bad or missing configuration (exit code 2)."""

    exit_code = 2


class DataError(Exception):
    """Malformed or inconsistent input data (exit code 3)."""

    exit_code = 3


class NumericError(Exception):
    """Non-finite values detected during computation (exit code 4)."""

    exit_code = 4


def read_text(path) -> str:
    """The UTF-8 text of ``path``, newlines normalised. A file that is
    missing, unreadable or not UTF-8 is a :class:`DataError` naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: cannot read as UTF-8 text ({exc})") from exc
