#!/usr/bin/env python3
"""The whole suite's exports and printed analysis match committed digests.

Runs `bench_suite --data-dir=TMP` at the default --scale=1, hashes every
export file it writes plus the analysis text on stdout (every line above the
`bench  wall [s]` timing table, whose numbers are wall-clock), and diffs the
digests against bench/EXPORTS.sha256. The digests pin behaviour absolutely:
a refactor that must move no exported byte and no printed figure keeps this
test green, whatever the thread count.

The file is in `sha256sum` format; the analysis text is the entry named
`stdout`. After a deliberate behaviour change, regenerate it with --write
and commit the diff together with the change that explains it.

Usage: exports_digest_test.py PATH/TO/bench_suite PATH/TO/EXPORTS.sha256 [--write]
"""

import hashlib
import os
import re
import subprocess
import sys
import tempfile

TABLE_HEADER = re.compile(r"^bench +wall \[s\]")
THREADS = "4"


def digest(data):
    return hashlib.sha256(data).hexdigest()


def current_digests(suite):
    with tempfile.TemporaryDirectory(prefix="quicer-digest-") as work:
        data_dir = os.path.join(work, "exports")
        proc = subprocess.run([suite, "--threads=" + THREADS, "--data-dir=" + data_dir],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        if proc.returncode != 0:
            sys.exit("FAIL: bench_suite exited %d\nstderr:\n%s"
                     % (proc.returncode, proc.stderr.decode(errors="replace")[-2000:]))
        lines = proc.stdout.splitlines(keepends=True)
        analysis = []
        for line in lines:
            if TABLE_HEADER.match(line.decode(errors="replace")):
                break
            analysis.append(line)
        else:
            sys.exit("FAIL: no `bench  wall [s]` table in the bench_suite output")
        entries = {}
        for name in sorted(os.listdir(data_dir)):
            with open(os.path.join(data_dir, name), "rb") as f:
                entries[name] = digest(f.read())
        entries["stdout"] = digest(b"".join(analysis))
        return entries


def render(entries):
    return "".join("%s  %s\n" % (entries[name], name) for name in sorted(entries))


def main():
    args = [a for a in sys.argv[1:] if a != "--write"]
    if len(args) != 2:
        sys.exit(__doc__)
    suite, digest_file = args
    text = render(current_digests(suite))
    if "--write" in sys.argv[1:]:
        with open(digest_file, "w") as f:
            f.write(text)
        print("wrote %d digests to %s" % (text.count("\n"), digest_file))
        return
    with open(digest_file) as f:
        expected = f.read()
    if text == expected:
        print("ok: %d digests match %s" % (text.count("\n"), digest_file))
        return
    want = dict(reversed(line.split("  ", 1)) for line in expected.splitlines())
    got = dict(reversed(line.split("  ", 1)) for line in text.splitlines())
    for name in sorted(set(want) | set(got)):
        if name not in got:
            print("missing: %s (the suite no longer writes it)" % name)
        elif name not in want:
            print("new: %s (not in %s)" % (name, digest_file))
        elif want[name] != got[name]:
            print("differs: %s" % name)
    sys.exit("FAIL: the suite's output no longer matches %s" % digest_file)


if __name__ == "__main__":
    main()
