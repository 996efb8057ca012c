from __future__ import annotations

import csv

import pytest
from hypothesis import Phase, settings

# A failing property is reported with the example that first failed, unshrunk:
# shrinking a failure of the larger properties can run for minutes and hold
# hundreds of MB. The phases that find a failure all run, so pass and fail are
# those of the default profile; --hypothesis-profile=default restores shrinking
# and the explanation of a failing example.
settings.register_profile(
    "unshrunk", phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target)
)
settings.load_profile("unshrunk")


def _read_artifact_csv(path: str) -> dict[str, list]:
    """Parse an emitted CSV: drop '#' comment lines, return columns by header.

    Values parse to float where possible and stay strings otherwise
    (status columns). numpy.genfromtxt mistakes the first comment line
    for the header, so the artifacts are read manually.
    """
    with open(path) as fh:
        lines = [line for line in fh if not line.startswith("#")]
    reader = csv.reader(lines)
    header = next(reader)
    columns: dict[str, list] = {name: [] for name in header}
    for row in reader:
        for name, cell in zip(header, row):
            try:
                columns[name].append(float(cell))
            except ValueError:
                columns[name].append(cell)
    return columns


def _csv_comment_and_body(path: str) -> tuple[list[str], bytes]:
    """Split an emitted CSV into its '#' comment lines and the byte body."""
    comments = []
    body = b""
    with open(path, "rb") as fh:
        for line in fh:
            if line.startswith(b"#"):
                comments.append(line.decode().rstrip("\n"))
            else:
                body += line
    return comments, body


@pytest.fixture
def read_csv():
    return _read_artifact_csv


@pytest.fixture
def csv_body():
    def _body(path: str) -> bytes:
        return _csv_comment_and_body(path)[1]

    return _body


@pytest.fixture
def csv_comments():
    def _comments(path: str) -> list[str]:
        return _csv_comment_and_body(path)[0]

    return _comments
