"""The verdict JSON of a fixed set of certifications is unchanged."""
import pytest

from record_verdicts import GOLDEN, verdicts_text


def test_verdicts_match_golden_file():
    """Byte for byte; re-record with tests/record_verdicts.py only for a
    change that means to alter verdicts."""
    current, golden = verdicts_text(), GOLDEN.read_text()
    if current != golden:
        lines = list(zip(current.splitlines(), golden.splitlines()))
        k = next((k for k, (a, b) in enumerate(lines) if a != b), len(lines))
        pytest.fail("verdict JSON differs from %s at line %d: %.300s"
                    % (GOLDEN.name, k + 1, current.splitlines()[k:k + 1]))
