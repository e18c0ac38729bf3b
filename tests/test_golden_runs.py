"""Seeded runs give the same output bytes as when the golden hashes were
recorded at commit d1ab99f: `tests/data/run_golden.json` holds the sha256 of
`stats.json` and `transcripts.jsonl` for one in-process self-test run, one
TCP dimension-test run and one TCP self-test run with toylwe keys and images
(recorded at 8a39965), and one run for each prover spec those three leave
out: self-test `bitflip=0.3` and `wrongbasis`, and a TCP dimension-test
`classical` run with toylwe keys (recorded at 4f57f18); the four runs with
ideal keys were re-recorded when ideal keys became succinct (a, c, mask)
draws, and every `transcripts.jsonl` hash again when keys and images became
JSON numbers, each checked equal to the former file with its hex read as
numbers (no `stats.json` hash moved). A speed-up that moves a single draw, or changes how a transcript is
encoded, changes a hash. `tests/data/analyze_report_hashes.json` holds the
sha256 of whole `analyze --report` files (recorded at 5b0ec89, the self-test
N=2 one at 83e963c, the self-test `random` one at 4f57f18; all but the two
whose swap deviations kept their bits re-recorded with the succinct keys),
`swap` deviations included, so a report number that moves by one bit
changes its hash."""
import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from selftestsim import cli

DATA = Path(__file__).parent / "data"
GOLDEN = json.loads((DATA / "run_golden.json").read_text())["runs"]
REPORTS = json.loads((DATA / "analyze_report_hashes.json").read_text())["reports"]


@pytest.mark.parametrize("run", GOLDEN, ids=lambda run: " ".join(run["argv"][:2] + run["argv"][-2:]))
def test_run_output_matches_golden_hashes(run, tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(run["argv"] + ["--out", str(tmp_path)]) == 0
    for name in ("stats.json", "transcripts.jsonl"):
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == run[name], name


@pytest.mark.parametrize("case", REPORTS, ids=lambda case: " ".join(case["argv"][2:]))
def test_analyze_report_matches_golden_hash(case, tmp_path):
    path = tmp_path / "report.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(case["argv"] + ["--report", str(path)]) == case["exit"]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == case["report"]


def test_transcript_lines_are_canonical_json(tmp_path):
    """Each line is the sorted-key, whitespace-free encoding of its record,
    although the writer does not sort: every dict is built in sorted order."""
    argv = ["selftest", "run", "--n", "1", "--w", "3", "--prover", "bitflip=0.2", "--sessions", "60"]
    for transport in ("inproc", "tcp"):
        out = tmp_path / transport
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv + ["--transport", transport, "--out", str(out)]) == 0
        for line in (out / "transcripts.jsonl").read_text().splitlines():
            assert line == json.dumps(json.loads(line), sort_keys=True, separators=(",", ":"))
