"""The CLI's outputs on `output_digest`'s reduced command set are those
stored in `tests/data/output_digest.json`, byte for byte, on the platform
that stored them. Elsewhere the test skips and names the platform fields
that differ: another Python, numpy or BLAS build can move the last digits of
the correlated-input theory columns (Python 3.12's compensated `sum`, say),
and no tolerance for that is stated yet. The seven commands take about 2 s.
"""

import json

import pytest

import output_digest


def test_outputs_match_the_stored_digest():
    stored = json.loads(output_digest.STORED.read_text(encoding="utf-8"))
    here = output_digest.platform_info()
    differ = [f"{k}: stored {v!r}, here {here.get(k)!r}" for k, v in stored["platform"].items() if here.get(k) != v]
    if differ:
        pytest.skip("digest stored on another platform; " + "; ".join(differ))
    assert output_digest.digest()["commands"] == stored["commands"]
