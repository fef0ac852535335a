"""Record the expected outcome of every cli-session command.

    python3 bench/record_cli.py

Runs each command of bench/workloads.py's CLI_COMMANDS and CLI_MALFORMED
once as a child process and writes bench/cli_expected.json: the exit code
and the SHA-256 of stdout.  The benchmark checks every cli-session op
against this record, so re-record only when an output is meant to change.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main():
    workloads.write_cli_files(ROOT)
    record = {}
    for line in workloads.CLI_COMMANDS + workloads.CLI_MALFORMED:
        code, stdout, stderr = workloads.run_child(ROOT, line.split())
        record[line] = {"exit": code, "stdout_sha256": workloads.digest(stdout)}
        print(f"exit {code}: {line}  {stderr.strip()}")
    workloads.CLI_EXPECTED.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
