"""The default verify report, pinned record for record.

The SHA-256 is of the default `verify --format jsonl` records with
`elapsed` removed, each re-serialised with sorted keys and joined by
newlines.  It changes only when a case is added, removed, reordered,
relabelled or gets a different value; such a change must be deliberate,
and the digest is then recorded again.
"""

import hashlib
import json

from treecount.cli import main

DEFAULT_REPORT_RECORDS = 636
DEFAULT_REPORT_SHA256 = "7a0b1a126cd28230fbaef79b0fab299cb5c34c4734fa8301a32d277114238223"


def test_default_verify_report_is_unchanged(capsys):
    code = main(["verify", "--format", "jsonl"])
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    for record in records:
        del record["elapsed"]
    text = "\n".join(json.dumps(record, sort_keys=True) for record in records)
    assert code == 0
    assert len(records) == DEFAULT_REPORT_RECORDS
    assert all(record["match"] for record in records)
    assert hashlib.sha256(text.encode()).hexdigest() == DEFAULT_REPORT_SHA256
