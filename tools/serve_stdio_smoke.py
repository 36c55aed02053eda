#!/usr/bin/env python3
"""Drive asipfb_serve's stdio front end and check its transcript.

    serve_stdio_smoke.py demo BINARY SCRIPT EXPECTED
        Pipe SCRIPT through `BINARY --workers 4`; stdout must equal
        EXPECTED byte for byte and the process must exit 0.

    serve_stdio_smoke.py edges BINARY
        Generated edge inputs, each with its exact expected transcript:
          * 100,000-level nested parentheses, a 100,000-term sum and
            100,000 nested `if`s as inline sources: each compile gets a
            located depth error, and the next `ping` is still answered;
          * EOF inside a `source` block gets the EOF error line;
          * a protocol line over 1 MiB gets the line-length error and ends
            the session;
          * detect/coverage requests with max=9 get the same range error
            line on every run.

Registered as ctest cases (examples_serve_stdio_test.*); exits nonzero with
a diff on the first mismatch.
"""

import difflib
import subprocess
import sys

DEPTH = 100_000
MAX_LINE_BYTES = 1 << 20
PONG = '{"pong": true, "workers": 4}\n'


def run(binary: str, stdin: bytes) -> str:
    proc = subprocess.run([binary, "--workers", "4"], input=stdin,
                          capture_output=True, timeout=300, check=False)
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}; stderr:\n"
                             f"{proc.stderr.decode(errors='replace')}")
    return proc.stdout.decode()


def expect(name: str, got: str, want: str) -> bool:
    if got == want:
        print(f"serve_stdio_smoke: {name}: OK")
        return True
    print(f"serve_stdio_smoke: {name}: transcript mismatch", file=sys.stderr)
    sys.stderr.writelines(difflib.unified_diff(
        want.splitlines(keepends=True), got.splitlines(keepends=True),
        "expected", "got"))
    return False


def demo(binary: str, script: str, expected: str) -> bool:
    with open(script, "rb") as f:
        stdin = f.read()
    with open(expected, encoding="utf-8") as f:
        want = f.read()
    return expect("demo", run(binary, stdin), want)


def depth_error(request_id: int, name: str, column: int) -> str:
    return (f'{{"id": {request_id}, "kind": "compile", "workload": "{name}", '
            f'"ok": false, "error": "BenchC compilation failed:\\n  1:{column}: '
            f'nesting exceeds the maximum AST depth of 512"}}\n')


def edges(binary: str) -> bool:
    # (name, one-line source, column of the expected depth diagnostic)
    deep = [
        ("deep_parens",
         "int main() { int x; x = " + "(" * DEPTH + "1" + ")" * DEPTH +
         "; return x; }", 535),
        ("deep_sum",
         "int main() { int x; x = " + "+".join(["1"] * DEPTH) +
         "; return x; }", 1046),
        ("deep_ifs",
         "int main() { int x; x = 1; " + "if (x) " * DEPTH +
         "x = 2; return x; }", 3609),
    ]
    stdin, want = "", ""
    for request_id, (name, source, column) in enumerate(deep, start=1):
        stdin += f"source {name} 1\n{source}\n{request_id} compile {name}\nping\n"
        want += (f'{{"source": "{name}", "lines": 1}}\n' +
                 depth_error(request_id, name, column) + PONG)
    ok = expect("deep nesting", run(binary, stdin.encode()), want)

    ok &= expect("EOF inside source block",
                 run(binary, b"ping\nsource broken 5\nonly one line\n"),
                 PONG + '{"ok": false, "error": '
                        '"EOF inside source block \'broken\'"}\n')

    max_error = '{"ok": false, "error": "invalid max \'9\' (want 1..8)"}\n'
    for attempt in (1, 2):
        ok &= expect(f"max out of range, run {attempt}",
                     run(binary, b"1 detect fir max=9\n2 coverage fir max=9\n"
                                 b"ping\n"),
                     max_error + max_error + PONG)

    ok &= expect("over-long line",
                 run(binary, b"ping\n" + b"x" * (MAX_LINE_BYTES + 1) +
                     b"\nping\n"),
                 PONG + '{"ok": false, "error": "protocol line exceeds '
                        f'{MAX_LINE_BYTES} bytes"}}\n')
    return ok


def main(argv: list[str]) -> int:
    if len(argv) == 5 and argv[1] == "demo":
        return 0 if demo(argv[2], argv[3], argv[4]) else 1
    if len(argv) == 3 and argv[1] == "edges":
        return 0 if edges(argv[2]) else 1
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
