#!/usr/bin/env python3
"""Repo-specific invariant linter for dnastore.

Generic tools (clang-tidy, sanitizers) cannot know this repo's
contracts; this linter machine-checks the four that reviews have had
to police by hand:

  1. no-throw-boundary
     Nothing under src/api/ or src/daemon/ may `throw`: the public
     facade and the daemon built on it report errors exclusively
     through api::Status / api::Result<T> (see api/status.hh). A throw
     that escapes either directory would tear down a daemon connection
     thread instead of producing a wire status.

  2. statuscode-wire-mapping
     Every enumerator of api::StatusCode (parsed from api/status.hh)
     must be mapped in api/wire.cc, in BOTH directions: a
     `case StatusCode::X` in statusCodeToWire and a
     `return StatusCode::X` in statusCodeFromWire. This makes wire
     exhaustiveness a source-level guarantee instead of a runtime
     hope when someone grows the taxonomy.

  3. determinism-hygiene
     src/{cluster,consensus,pipeline,lab,channel}/ carry the
     bit-identical-at-any-thread-count contract, so ambient
     nondeterminism sources are banned there: rand(), random_device,
     time(), and std::chrono *_clock::now(). The only sanctioned
     escapes live in ALLOWLIST below; every entry must still match
     real source (a stale entry is itself an error) so the list can
     only shrink, never silently rot.

  4. one-frame-codec
     A `crc32(` call under src/ is legal only in the shared frame
     codec (src/util/frame.cc), the `.dnapool` section codec
     (src/api/pool_file.cc, whose versioned on-disk layout differs),
     and the CRC itself (src/util/crc32.*). A checksum anywhere else
     is a hand-rolled framing: use util/frame.hh instead.

Exit status: 0 clean, 1 violations found, 2 usage/internal error.

Run `lint_invariants.py --self-test` to prove each check still fires:
it seeds one violation of every class into a synthetic tree and
asserts detection (and that a clean tree passes). The `lint` CMake
target runs the self-test and then the real tree.
"""

import argparse
import os
import re
import sys
import tempfile

# --------------------------------------------------------------------------
# Configuration: which directories carry which contracts.

NO_THROW_DIRS = ("src/api", "src/daemon")

DETERMINISM_DIRS = (
    "src/cluster",
    "src/consensus",
    "src/pipeline",
    "src/lab",
    "src/channel",
)

STATUS_HEADER = "src/api/status.hh"
WIRE_SOURCE = "src/api/wire.cc"

# Banned nondeterminism sources. Patterns run on comment/string-stripped
# source; identifier boundaries keep toStrand() from matching rand().
DETERMINISM_BANS = (
    ("rand()", re.compile(r"(?<![A-Za-z0-9_])rand\s*\(")),
    ("random_device", re.compile(r"(?<![A-Za-z0-9_])random_device(?![A-Za-z0-9_])")),
    ("time()", re.compile(r"(?<![A-Za-z0-9_])time\s*\(")),
    ("clock-now", re.compile(r"_clock\s*::\s*now\s*\(")),
)

# The explicit determinism allowlist: (relative path, ban name) pairs.
# Each entry must match at least one violation in the named file or the
# lint fails with "stale allowlist entry". Keep the justification next
# to the entry.
ALLOWLIST = {
    # SweepRunner measures wall_ms for the optional --timing report
    # column; the clock never feeds a trial, a seed, or any value that
    # lands in the deterministic (non---timing) report bytes. Verified
    # by the sweep-determinism suite's byte-compare across runs.
    ("src/lab/sweep.cc", "clock-now"),
}

SOURCE_EXTS = (".cc", ".hh", ".cpp", ".hpp", ".h")

# The only files under src/ that may compute a CRC-32 themselves.
CRC_CALL_ALLOWED = (
    "src/util/frame.cc",
    "src/api/pool_file.cc",
    "src/util/crc32.cc",
    "src/util/crc32.hh",
)

CRC_CALL_RE = re.compile(r"(?<![A-Za-z0-9_])crc32\s*\(")


def strip_comments_and_strings(text):
    """Blank out comments, string literals, and char literals.

    Replaces their contents with spaces (newlines preserved) so line
    numbers survive and banned tokens inside docs/messages don't trip
    the lint. A lexer-grade pass: handles //, /* */, "..." with
    escapes, '...' with escapes. Raw strings are rare in this tree and
    handled conservatively (R"( ... )" with empty delimiter).
    """
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            if j == -1:
                j = n
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            seg = text[i:j]
            out.append("".join(ch if ch == "\n" else " " for ch in seg))
            i = j
        elif c == "R" and text[i : i + 3] == 'R"(':
            j = text.find(')"', i + 3)
            j = n if j == -1 else j + 2
            seg = text[i:j]
            out.append("".join(ch if ch == "\n" else " " for ch in seg))
            i = j
        elif c == '"' or c == "'":
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote:
                    j += 1
                    break
                if text[j] == "\n":  # unterminated; bail at EOL
                    break
                j += 1
            seg = text[i:j]
            out.append(quote + " " * max(0, len(seg) - 2) + (quote if len(seg) > 1 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def iter_source_files(root, rel_dirs):
    for rel in rel_dirs:
        base = os.path.join(root, rel)
        if not os.path.isdir(base):
            continue
        for dirpath, _dirnames, filenames in sorted(os.walk(base)):
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTS):
                    yield os.path.join(dirpath, name)


def read_text(path):
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        return f.read()


class Violation:
    def __init__(self, check, path, line, detail):
        self.check = check
        self.path = path
        self.line = line
        self.detail = detail

    def __str__(self):
        where = self.path if self.line is None else "%s:%d" % (self.path, self.line)
        return "[%s] %s: %s" % (self.check, where, self.detail)


# --------------------------------------------------------------------------
# Check 1: no throw under src/api/ or src/daemon/.

THROW_RE = re.compile(r"(?<![A-Za-z0-9_])throw(?![A-Za-z0-9_])")


def check_no_throw(root):
    violations = []
    for path in iter_source_files(root, NO_THROW_DIRS):
        stripped = strip_comments_and_strings(read_text(path))
        for lineno, line in enumerate(stripped.splitlines(), 1):
            if THROW_RE.search(line):
                rel = os.path.relpath(path, root)
                violations.append(
                    Violation(
                        "no-throw-boundary",
                        rel,
                        lineno,
                        "`throw` inside the no-throw Status boundary "
                        "(return api::Status / api::Result instead)",
                    )
                )
    return violations


# --------------------------------------------------------------------------
# Check 2: StatusCode <-> wire mapping exhaustiveness.

ENUM_RE = re.compile(
    r"enum\s+class\s+StatusCode\s*(?::[^{]*)?\{(?P<body>[^}]*)\}", re.S
)


def parse_status_codes(root):
    header = os.path.join(root, STATUS_HEADER)
    if not os.path.isfile(header):
        return None, [
            Violation(
                "statuscode-wire-mapping", STATUS_HEADER, None, "header not found"
            )
        ]
    stripped = strip_comments_and_strings(read_text(header))
    m = ENUM_RE.search(stripped)
    if not m:
        return None, [
            Violation(
                "statuscode-wire-mapping",
                STATUS_HEADER,
                None,
                "could not find `enum class StatusCode { ... }`",
            )
        ]
    names = []
    for part in m.group("body").split(","):
        name = part.split("=")[0].strip()
        if name and re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
            names.append(name)
    if not names:
        return None, [
            Violation(
                "statuscode-wire-mapping",
                STATUS_HEADER,
                None,
                "StatusCode enum parsed empty",
            )
        ]
    return names, []


def check_wire_mapping(root):
    names, violations = parse_status_codes(root)
    if names is None:
        return violations
    wire = os.path.join(root, WIRE_SOURCE)
    if not os.path.isfile(wire):
        return [
            Violation("statuscode-wire-mapping", WIRE_SOURCE, None, "source not found")
        ]
    stripped = strip_comments_and_strings(read_text(wire))
    for name in names:
        if not re.search(r"case\s+StatusCode\s*::\s*%s\b" % re.escape(name), stripped):
            violations.append(
                Violation(
                    "statuscode-wire-mapping",
                    WIRE_SOURCE,
                    None,
                    "StatusCode::%s has no `case` in statusCodeToWire "
                    "(unmapped on the way out)" % name,
                )
            )
        if not re.search(
            r"return\s+StatusCode\s*::\s*%s\b" % re.escape(name), stripped
        ):
            violations.append(
                Violation(
                    "statuscode-wire-mapping",
                    WIRE_SOURCE,
                    None,
                    "StatusCode::%s is never returned by statusCodeFromWire "
                    "(unmapped on the way in)" % name,
                )
            )
    return violations


# --------------------------------------------------------------------------
# Check 3: determinism hygiene.


def check_determinism(root):
    violations = []
    used_allowlist = set()
    for path in iter_source_files(root, DETERMINISM_DIRS):
        rel = os.path.relpath(path, root)
        stripped = strip_comments_and_strings(read_text(path))
        for lineno, line in enumerate(stripped.splitlines(), 1):
            for ban_name, ban_re in DETERMINISM_BANS:
                if not ban_re.search(line):
                    continue
                key = (rel.replace(os.sep, "/"), ban_name)
                if key in ALLOWLIST:
                    used_allowlist.add(key)
                    continue
                violations.append(
                    Violation(
                        "determinism-hygiene",
                        rel,
                        lineno,
                        "banned nondeterminism source %s in a "
                        "bit-identical subsystem (draw from the seeded "
                        "RNG stream, or add an ALLOWLIST entry with "
                        "justification)" % ban_name,
                    )
                )
    for key in sorted(ALLOWLIST - used_allowlist):
        violations.append(
            Violation(
                "determinism-hygiene",
                key[0],
                None,
                "stale allowlist entry (%s no longer matches anything; "
                "remove it)" % key[1],
            )
        )
    return violations


# --------------------------------------------------------------------------
# Check 4: one frame codec.


def check_one_frame_codec(root):
    violations = []
    for path in iter_source_files(root, ("src",)):
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        if rel in CRC_CALL_ALLOWED:
            continue
        stripped = strip_comments_and_strings(read_text(path))
        for lineno, line in enumerate(stripped.splitlines(), 1):
            if CRC_CALL_RE.search(line):
                violations.append(
                    Violation(
                        "one-frame-codec",
                        rel,
                        lineno,
                        "crc32() call outside the frame and pool-file "
                        "codecs (a hand-rolled framing: use "
                        "util/frame.hh)",
                    )
                )
    return violations


# --------------------------------------------------------------------------
# Driver.

ALL_CHECKS = (
    ("no-throw-boundary", check_no_throw),
    ("statuscode-wire-mapping", check_wire_mapping),
    ("determinism-hygiene", check_determinism),
    ("one-frame-codec", check_one_frame_codec),
)


def run_checks(root):
    violations = []
    for _name, fn in ALL_CHECKS:
        violations.extend(fn(root))
    return violations


# --------------------------------------------------------------------------
# Self-test: seed one violation of each class into a synthetic tree and
# assert each check fires; assert a clean tree passes.

CLEAN_STATUS_HH = """
namespace dnastore { namespace api {
enum class StatusCode { Ok = 0, InvalidArgument, Internal, };
}}
"""

CLEAN_WIRE_CC = """
#include "api/wire.hh"
namespace dnastore { namespace api {
unsigned statusCodeToWire(StatusCode code) {
  switch (code) {
    case StatusCode::Ok: return 0;
    case StatusCode::InvalidArgument: return 1;
    case StatusCode::Internal: return 8;
  }
  return 8;
}
StatusCode statusCodeFromWire(unsigned wire) {
  switch (wire) {
    case 0: return StatusCode::Ok;
    case 1: return StatusCode::InvalidArgument;
    default: return StatusCode::Internal;
  }
}
}}
"""


def write_tree(root, files):
    for rel, content in files.items():
        path = os.path.join(root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(content)


def clean_tree_files():
    return {
        STATUS_HEADER: CLEAN_STATUS_HH,
        WIRE_SOURCE: CLEAN_WIRE_CC,
        # Comments and strings mentioning banned tokens must NOT trip
        # any check.
        "src/api/store.cc": (
            "// may throw? no: @throws is only documentation\n"
            'const char *msg = "throw time() rand()";\n'
        ),
        "src/daemon/server.cc": "int serve() { return 0; }\n",
        "src/cluster/greedy.cc": (
            "// time() in a comment is fine\n"
            "int toStrandCount(int n) { return n; }  // rand( in name\n"
        ),
        "src/pipeline/sim.cc": "int simulate(int seed) { return seed; }\n",
        # The CRC's own home and the two codecs may call it; a
        # mention in a comment or string elsewhere is not a call.
        "src/util/crc32.cc": "uint32_t crc32(const uint8_t *d, size_t n);\n",
        "src/util/frame.cc": "uint32_t c = crc32(payload, n);\n",
        "src/api/pool_file.cc": "uint32_t c = crc32(body);\n",
        "src/daemon/protocol.cc": (
            "// framed by util/frame, never by crc32(payload) here\n"
            'const char *why = "crc32( mismatch";\n'
        ),
    }


def expect(cond, what, failures):
    if not cond:
        failures.append(what)


def self_test():
    failures = []

    with tempfile.TemporaryDirectory() as root:
        write_tree(root, clean_tree_files())
        global ALLOWLIST
        saved_allowlist = ALLOWLIST
        ALLOWLIST = set()  # the synthetic tree needs no escapes
        try:
            violations = run_checks(root)
            expect(
                not violations,
                "clean synthetic tree must pass, got: %s"
                % "; ".join(str(v) for v in violations),
                failures,
            )

            # Seed 1: throw inside the boundary.
            seeded = dict(clean_tree_files())
            seeded["src/api/store.cc"] += (
                'int f() { throw 1; }\n'
            )
            write_tree(root, seeded)
            got = [v for v in run_checks(root) if v.check == "no-throw-boundary"]
            expect(len(got) == 1, "seeded throw-in-api not caught exactly once", failures)

            # Seed 1b: throw in daemon/.
            seeded = dict(clean_tree_files())
            seeded["src/daemon/server.cc"] = (
                "int serve() { throw 2; }\n"
            )
            write_tree(root, seeded)
            got = [v for v in run_checks(root) if v.check == "no-throw-boundary"]
            expect(len(got) == 1, "seeded throw-in-daemon not caught", failures)

            # Seed 2: a StatusCode enumerator with no wire mapping.
            seeded = dict(clean_tree_files())
            seeded[STATUS_HEADER] = CLEAN_STATUS_HH.replace(
                "Internal, };", "Internal, Unmapped, };"
            )
            write_tree(root, seeded)
            got = [
                v for v in run_checks(root) if v.check == "statuscode-wire-mapping"
            ]
            expect(
                len(got) == 2 and all("Unmapped" in v.detail for v in got),
                "seeded unmapped StatusCode not caught in both directions",
                failures,
            )

            # Seed 3: each banned nondeterminism source, one per file.
            nondet_snippets = {
                "rand()": "int draw() { return rand(); }\n",
                "random_device": "#include <random>\nstd::random_device rd;\n",
                "time()": "#include <ctime>\nlong now() { return time(nullptr); }\n",
                "clock-now": (
                    "#include <chrono>\n"
                    "auto t() { return std::chrono::steady_clock::now(); }\n"
                ),
            }
            for ban_name, snippet in nondet_snippets.items():
                seeded = dict(clean_tree_files())
                seeded["src/cluster/greedy.cc"] = snippet
                write_tree(root, seeded)
                got = [
                    v for v in run_checks(root) if v.check == "determinism-hygiene"
                ]
                expect(
                    len(got) == 1 and ban_name in got[0].detail,
                    "seeded %s not caught" % ban_name,
                    failures,
                )

            # Seed 4: a hand-rolled framing checksums its payload.
            seeded = dict(clean_tree_files())
            seeded["src/cluster/stream.cc"] = (
                "uint32_t frameCrc(const uint8_t *p, size_t n)"
                " { return crc32 (p, n); }\n"
            )
            write_tree(root, seeded)
            got = [v for v in run_checks(root) if v.check == "one-frame-codec"]
            expect(
                len(got) == 1 and got[0].path == "src/cluster/stream.cc",
                "seeded crc32() outside the codecs not caught",
                failures,
            )
            os.remove(os.path.join(root, "src/cluster/stream.cc"))

            # Seed 3b: an allowlisted violation passes, and a stale
            # allowlist entry fails.
            ALLOWLIST = {("src/cluster/greedy.cc", "clock-now")}
            seeded = dict(clean_tree_files())
            seeded["src/cluster/greedy.cc"] = nondet_snippets["clock-now"]
            write_tree(root, seeded)
            got = [v for v in run_checks(root) if v.check == "determinism-hygiene"]
            expect(not got, "allowlisted clock-now still flagged", failures)

            write_tree(root, clean_tree_files())
            got = [v for v in run_checks(root) if v.check == "determinism-hygiene"]
            expect(
                len(got) == 1 and "stale allowlist" in got[0].detail,
                "stale allowlist entry not flagged",
                failures,
            )
        finally:
            ALLOWLIST = saved_allowlist

    if failures:
        for f in failures:
            print("SELF-TEST FAIL: %s" % f, file=sys.stderr)
        return 1
    print("lint_invariants self-test: all checks fire and clean trees pass")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: parent of this script)",
    )
    parser.add_argument(
        "--report", default=None, help="also write the findings to this file"
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="seed violations of each class and assert detection",
    )
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()

    if not os.path.isdir(os.path.join(args.root, "src")):
        print("lint_invariants: no src/ under --root %s" % args.root, file=sys.stderr)
        return 2

    violations = run_checks(args.root)
    lines = [str(v) for v in violations]
    summary = (
        "lint_invariants: clean (%d checks over %d+%d dirs)"
        % (len(ALL_CHECKS), len(NO_THROW_DIRS), len(DETERMINISM_DIRS))
        if not violations
        else "lint_invariants: %d violation(s)" % len(violations)
    )
    report = "\n".join(lines + [summary]) + "\n"
    sys.stdout.write(report)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as f:
            f.write(report)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
