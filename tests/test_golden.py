"""Pinned outputs: the default verify report and a fixed list of CLI calls.

The first SHA-256 is of the default `verify --format jsonl` records with
`elapsed` removed, each re-serialised with sorted keys and joined by
newlines.  It changes only when a case is added, removed, reordered,
relabelled or gets a different value; such a change must be deliberate,
and the digest is then recorded again.

The second is of (argv, exit code, stdout, stderr) for every call in
CLI_CALLS, run in process through `main()`, with timings masked.  The list
covers the README examples, every `oracle` filter shape and its usage
errors, every matrix-tree graph source, both `table` formats, both `count
degrees` flavours and the `count` usage errors.  A refactor that keeps the
CLI's behaviour keeps this digest.
"""

import hashlib
import json
import re

from treecount.cli import main

DEFAULT_REPORT_RECORDS = 636
DEFAULT_REPORT_SHA256 = "7a0b1a126cd28230fbaef79b0fab299cb5c34c4734fa8301a32d277114238223"

CLI_CALLS = [
    # the README examples
    "count complete --n 7",
    "count odd-complete --n 6",
    "count bipartite --m 2 --n 3",
    "count odd-bipartite --m 5 --n 3",
    "count degrees --degrees 2,2,1,1",
    "count degrees --a 2,2 --b 2,1,1",
    "verify",
    "verify --scope complete,signsum --complete-max 6 --format jsonl",
    "table --family odd-complete --from 2 --to 8 --format csv",
    "table --family bipartite --from 1 --to 3 --format jsonl",
    "signsum --coeffs 1,2 --power 2 --mode both",
    "oracle complete --n 6 --odd",
    "oracle bipartite --m 3 --n 3 --odd",
    "oracle matrix-tree --edges 1-2,2-3 --vertices 3",
    "count complete --n 4 --m 9",
    "oracle matrix-tree --complete 101",
    "count complete --n 1000000000",
    # oracle complete: no filter, --odd, a degree profile, and their errors
    "oracle complete --n 1",
    "oracle complete --n 1 --odd",
    "oracle complete --n 1 --degrees 0",
    "oracle complete --n 2 --odd",
    "oracle complete --n 5",
    "oracle complete --n 5 --odd",
    "oracle complete --n 4 --degrees 2,2,1,1",
    "oracle complete --n 4 --degrees 3,1,1,1",
    "oracle complete --n 4 --degrees 2,2,2,2",
    "oracle complete --n 4 --degrees 2,2,1",
    "oracle complete --n 6 --odd --degrees 2,2,1,1",
    "oracle complete --n 4 --a 2,2 --b 1,1",
    "oracle complete --n 4 --m 3",
    "oracle complete --n 4 --cycle 5",
    "oracle complete --odd",
    "oracle complete --degrees 2,2,1,1",
    "oracle complete --n 0",
    "oracle complete --n 10",
    "oracle complete --n 10 --odd",
    # oracle bipartite: the same shapes
    "oracle bipartite --m 1 --n 1",
    "oracle bipartite --m 1 --n 1 --odd",
    "oracle bipartite --m 2 --n 3",
    "oracle bipartite --m 2 --n 3 --odd",
    "oracle bipartite --m 4 --n 4 --odd",
    "oracle bipartite --m 2 --n 3 --a 2,2 --b 2,1,1",
    "oracle bipartite --m 2 --n 3 --a 3,1 --b 2,1,1",
    "oracle bipartite --m 2 --n 3 --a 1,1 --b 1,1,1",
    "oracle bipartite --m 2 --n 3 --a 2,2",
    "oracle bipartite --m 2 --n 3 --b 2,1,1",
    "oracle bipartite --m 2 --n 3 --a 2,2,1 --b 2,1,1",
    "oracle bipartite --m 2 --n 3 --a 2,2 --b 2,1",
    "oracle bipartite --m 2 --n 3 --odd --a 2,2 --b 2,1,1",
    "oracle bipartite --m 2 --n 3 --degrees 9,9",
    "oracle bipartite --m 2 --n 2 --bipartite 3,3",
    "oracle bipartite --n 3",
    "oracle bipartite --m 3 --odd",
    "oracle bipartite --m 0 --n 3",
    "oracle bipartite --m 5 --n 5",
    "oracle bipartite --m 5 --n 5 --a 1,1,1,1,1 --b 1,1,1,1,1",
    # oracle matrix-tree: every graph source and its errors
    "oracle matrix-tree --complete 1",
    "oracle matrix-tree --complete 6",
    "oracle matrix-tree --bipartite 2,3",
    "oracle matrix-tree --bipartite 0,3",
    "oracle matrix-tree --bipartite 50,51",
    "oracle matrix-tree --path 4",
    "oracle matrix-tree --path 101",
    "oracle matrix-tree --cycle 5",
    "oracle matrix-tree --cycle 2",
    "oracle matrix-tree --edges 1-2 --vertices 3",
    "oracle matrix-tree --edges 1-2,1-2,2-3 --vertices 3",
    "oracle matrix-tree --edges 1-4 --vertices 3",
    "oracle matrix-tree --edges 1-2",
    "oracle matrix-tree --vertices 3",
    "oracle matrix-tree --cycle 4 --path 3",
    "oracle matrix-tree",
    "oracle matrix-tree --cycle 4 --odd",
    "oracle matrix-tree --cycle 4 --vertices 9",
    "oracle matrix-tree --complete 4 --n 4",
    # table: both formats, every family, and its errors
    "table --family complete --from 1 --to 5",
    "table --family complete --from 1 --to 5 --format jsonl",
    "table --family odd-bipartite --from 1 --to 4",
    "table --family odd-bipartite --from 2 --to 3 --format jsonl",
    "table --family bipartite --from 3 --to 3",
    "table --family complete --from 5 --to 2",
    "table --family complete --from 0 --to 2",
    "table --family complete --from 1 --to 1000000000",
    "table --family bipartite --from 1 --to 1000000000 --format jsonl",
    # count: every family, both degrees flavours, and the usage errors
    "count complete --n 1",
    "count odd-complete --n 1",
    "count odd-complete --n 7",
    "count bipartite --m 1 --n 1",
    "count odd-bipartite --m 3 --n 3",
    "count degrees --degrees 1,1",
    "count degrees --degrees 2,2,2",
    "count degrees --degrees 0,2,1,1",
    "count degrees --a 1 --b 1",
    "count degrees --a 2,2 --b 2,2,1",
    "count complete",
    "count bipartite --m 2",
    "count odd-bipartite --n 2",
    "count complete --n 0",
    "count bipartite --m 0 --n 3",
    "count odd-complete --n 6 --degrees 2,2",
    "count complete --n 3 --a 1",
    "count degrees",
    "count degrees --a 2,2",
    "count degrees --b 2,1,1",
    "count degrees --degrees 2,2,1,1 --n 9",
    "count degrees --degrees 2,2 --a 1 --b 1",
    "count degrees --a 2,2 --b 2,1,1 --m 0",
    "count bipartite --m 1000000 --n 1000000",
    # signsum
    "signsum --coeffs 1,2,3 --power 3 --mode direct",
    "signsum --coeffs 1,2,3 --power 4 --mode multinomial",
    "signsum --coeffs , --power 2",
]
CLI_SHA256 = "94bef34ca29948c7b2277ba4d27abdfd8d6b192eeca9cd9245f55390e831e9e7"

_TIMINGS = re.compile(r'"elapsed": [0-9.e+-]+|[0-9.]+ ms\)')


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


def test_cli_calls_are_unchanged(capsys):
    transcript = []
    for call in CLI_CALLS:
        argv = call.split()
        code = main(argv)
        captured = capsys.readouterr()
        out, err = (_TIMINGS.sub("<timing>", text) for text in captured)
        transcript.append([argv, code, out, err])
    text = json.dumps(transcript)
    assert hashlib.sha256(text.encode()).hexdigest() == CLI_SHA256
