"""Byte-for-byte regression of canonical CLI output.

``tests/golden/cli_canonical.txt`` holds the stdout of the commands below,
in order, with ``elapsed_ns`` removed from every json-lines record and
``min_ns``, ``max_ns`` and ``reps`` removed from every ``bench`` record (the
remaining keys re-serialized sorted, as the CLI prints them).  Any change to
a canonical string, a label, a record field or the row order shows here; a
record that lacks one of the removed fields fails.
"""

import json
from pathlib import Path

from recpoly.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli_canonical.txt"
BENCH_FIELDS = ("min_ns", "max_ns", "reps")

COMMANDS = [
    "table --family generalized-lucas --order 3 --n-max 40",
    "table --family dickson-d --n-max 60",
    "term --family fibonacci2 --n 120 --engine iterate",
    "term --family fibonacci2 --n 120 --engine multinomial",
    "term --family fibonacci2 --n 120 --engine determinant",
    "term --family fibonacci2 --n 120 --engine companion",
    "identity --ids all --include-paper-typos",
    "identity --ids all --include-paper-typos --format json-lines",
    "table --family fibonacci2 --n-max 30 --format json-lines",
    "term --family dickson-e --n 40 --format json-lines",
    "det --family generalized-lucas --order 3 --size 30",
    "det --family fibonacci2 --size 9 --point x=1,y=1",
    "roots --family fibonacci2 --point x=1,y=1",
    "bench --family fibonacci2 --n 40 --engines iterate,companion,multinomial,determinant"
    " --reps 1 --format json-lines",
    "term --family lucas2 --n 40 --engine multinomial --compose",
    "term --family dickson-e --n 40 --engine determinant --compose",
    "table --family lucas2 --n-max 12 --engine determinant --compose",
    "roots --family fibonacci2 --point x=4,y=-4",
    "roots --family fibonacci2 --point x=0,y=0",
    "roots --family generalized-lucas --order 3 --point x1=3,x2=3,x3=1",
]


def canonical_output(capsys) -> str:
    lines = []
    for command in COMMANDS:
        argv = command.split()
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0, command
        for line in out.splitlines():
            if "json-lines" in argv:
                record = json.loads(line)
                del record["elapsed_ns"]
                if record["kind"] == "bench":
                    for field in BENCH_FIELDS:
                        del record[field]
                line = json.dumps(record, sort_keys=True)
            lines.append(line + "\n")
    return "".join(lines)


def test_cli_output_matches_golden_file(capsys):
    assert canonical_output(capsys).encode() == GOLDEN.read_bytes()
