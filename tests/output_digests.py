"""Print the exit code and the stdout and stderr MD5 of each standard CLI command.

Usage: python tests/output_digests.py [TREE]

Each command runs in a fresh ``python -m nbstates.cli`` with
PYTHONPATH=TREE/src (TREE defaults to this checkout), one line per command:

    <exit code> <stdout md5> <stderr md5> <argv>

Run it on two trees and diff the outputs to show that a change left every
byte of the CLI's output, its diagnostics and its exit codes where they were.
The module is not a ``test_`` file, so pytest does not collect it.
"""
import hashlib
import os
import subprocess
import sys

COMMANDS = (
    "verify",
    "verify --json",
    "verify --corrupt-tolerances",
    "fig1",
    "fig1 --M 1000",
    "fig2",
    "fig2 --M 300 --theta 0.7",
    "pn --M 3 --eta 0.4 --phi 0",
    "pn --M 300 --eta 0.95 --phi 1",
    "pn --M 1000 --eta 0.9 --phi 2.5",
    "generate --protocol kerr --M 4 --eta 0.5",
    "generate --protocol dispersive --M 3 --eta 0.5 --phi 1.3 --g2t 1.7",
    "generate --protocol dispersive --M 3 --eta 0.5 --phi 0.0 --g2t 1.7",
    # both exit 2: past the <a^k> series' reach, and a P(n) table past hard_cap
    "fig2 --M 10000",
    "pn --M 10000 --eta 0.9 --phi 0",
)


def digest_lines(tree: str):
    """One line per command of ``COMMANDS``, run against the package under ``tree``/src."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    for command in COMMANDS:
        argv = command.split()
        done = subprocess.run([sys.executable, "-m", "nbstates.cli", *argv], env=env,
                              capture_output=True, check=False)
        yield " ".join((str(done.returncode), hashlib.md5(done.stdout).hexdigest(),
                        hashlib.md5(done.stderr).hexdigest(), command))


def main(argv) -> int:
    tree = argv[0] if argv else os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
    for line in digest_lines(tree):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
