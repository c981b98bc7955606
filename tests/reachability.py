"""Which code in ``src/repro`` does any entry point run?

Run from the repository root::

    python -m tests.reachability

It re-runs every entry point of the repository under a line collector
and prints, per source file of ``src/repro``, the executable lines that
no entry point ran and the functions that none entered.  The entry
points are:

* the tier-1 suite (``python -m pytest``);
* every ``python -m repro ...`` command in ``.github/workflows/ci.yml``,
  read from the workflow itself and run in a temporary directory;
* ``pytest perfbench`` and ``pytest benchmarks --benchmark-disable``
  (which rewrites ``benchmarks/out/`` as it always does);
* the CLI subcommands the workflow does not run (``EXTRA_COMMANDS``);
* every script in ``examples/``.

Subprocesses are traced too: ``tests/reachability_site`` goes first on
``PYTHONPATH``, and its ``sitecustomize`` installs the tracer in every
interpreter the run starts.  The report is a measurement, not a gate:
the exit status is 1 only when an entry point itself failed.  A full
run takes about five minutes on a 2-vCPU machine.
"""

from __future__ import annotations

import dis
import inspect
import json
import os
import pathlib
import shlex
import subprocess
import sys
import tempfile
from typing import Dict, List, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
SITE = pathlib.Path(__file__).resolve().parent / "reachability_site"
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"

#: CLI subcommands (and variants) the workflow does not run, at sizes
#: that keep each under a few seconds.
EXTRA_COMMANDS = [
    "list",
    "costs",
    "tables",
    "figures all",
    "ablations",
    "run pathfinder --mode gdev",
    "run pathfinder --mode hix",
    "run pathfinder --mode gpucc",
    "serve --users 2 --workload matrix-add-2048 --inflation 2048",
    "serve --users 2 --workload matrix-add-2048 --inflation 2048 "
    "--backend gpucc",
    "trace demo --workload matrix-add-2048 --inflation 2048 --out profiles",
    "metrics --workload matrix-add-2048 --inflation 2048 --window 1",
    "chaos --list",
    "report --artifacts " + str(ROOT / "benchmarks" / "out"),
]


def _words(line: str) -> List[str]:
    """Shell words of *line* up to its first redirection or operator."""
    lexer = shlex.shlex(line, posix=True, punctuation_chars=True)
    lexer.whitespace_split = True
    words = []
    for word in lexer:
        if word and set(word) <= set(lexer.punctuation_chars):
            break
        words.append(word)
    return words


def workflow_repro_commands() -> List[str]:
    """Every ``python -m repro`` command line of the CI workflow."""
    commands = []
    text = WORKFLOW.read_text().replace("\\\n", " ")
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("run:"):
            line = line[len("run:"):]
        words = _words(line)
        if words[:3] == ["python", "-m", "repro"]:
            commands.append(shlex.join(words[3:]))
    return commands


def subcommands() -> Set[str]:
    sys.path.insert(0, str(SRC))
    from repro.cli import build_parser
    action = next(action for action in build_parser()._actions
                  if action.dest == "command")
    return set(action.choices)


def entry_points(workdir: pathlib.Path) -> List[Tuple[List[str], dict]]:
    """``(argv, subprocess keyword arguments)`` for every entry point."""
    site = str(SITE)
    with_src = {"PYTHONPATH": os.pathsep.join([site, str(SRC)])}
    runs = [
        (["-m", "pytest", "-q", "-p", "no:cacheprovider"],
         {"cwd": ROOT, "env": with_src}),
        # CI runs the benchmark's self-tests without src on the path.
        (["-m", "pytest", "perfbench", "-q", "-p", "no:cacheprovider"],
         {"cwd": ROOT, "env": {"PYTHONPATH": site}}),
        (["-m", "pytest", "benchmarks", "--benchmark-disable", "-q",
          "-p", "no:cacheprovider"],
         {"cwd": ROOT, "env": with_src}),
    ]
    for command in workflow_repro_commands() + EXTRA_COMMANDS:
        runs.append((["-m", "repro", *shlex.split(command)],
                     {"cwd": workdir, "env": with_src}))
    for script in sorted((ROOT / "examples").glob("*.py")):
        runs.append(([str(script)], {"cwd": workdir, "env": with_src}))
    return runs


def run_traced(out: pathlib.Path) -> List[str]:
    """Run every entry point with the tracer on; return the failures."""
    covered = {shlex.split(command)[0]
               for command in workflow_repro_commands() + EXTRA_COMMANDS}
    for name in sorted(subcommands() - covered):
        print(f"warning: no entry point runs `repro {name}`")
    failures = []
    with tempfile.TemporaryDirectory() as workdir:
        for argv, kwargs in entry_points(pathlib.Path(workdir)):
            env = dict(os.environ, REACH_OUT=str(out),
                       REACH_ROOT=str(PACKAGE), **kwargs.pop("env"))
            label = " ".join(argv)
            print(f"running: python {label}", flush=True)
            done = subprocess.run([sys.executable, *argv], env=env,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  **kwargs)
            if done.returncode != 0:
                failures.append(label)
                print(f"  exit {done.returncode}: "
                      f"{done.stderr.strip()[-500:]}", flush=True)
    return failures


def merge(out: pathlib.Path) -> Dict[str, dict]:
    """Union of every traced process's lines and entered code."""
    merged: Dict[str, dict] = {}
    for dump in out.glob("*.json"):
        for filename, data in json.loads(dump.read_text()).items():
            seen = merged.setdefault(filename, {"lines": set(),
                                                "entered": set()})
            seen["lines"].update(data["lines"])
            seen["entered"].update(map(tuple, data["entered"]))
    return merged


def code_objects(path: pathlib.Path):
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        yield code
        stack.extend(const for const in code.co_consts
                     if inspect.iscode(const))


def _ranges(lines: List[int]) -> str:
    spans: List[List[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def report(merged: Dict[str, dict]) -> None:
    total_lines = total_missed = total_functions = total_unentered = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        seen = merged.get(str(path), {"lines": set(), "entered": set()})
        executable: Set[int] = set()
        functions = []
        for code in code_objects(path):
            executable.update(line for _, line in dis.findlinestarts(code)
                              if line)
            if (code.co_flags & inspect.CO_OPTIMIZED
                    and not code.co_name.startswith("<")):
                functions.append(code)
        missed = sorted(executable - seen["lines"])
        unentered = sorted(
            (code.co_firstlineno, getattr(code, "co_qualname", code.co_name))
            for code in functions
            if (code.co_firstlineno, code.co_name) not in seen["entered"])
        total_lines += len(executable)
        total_missed += len(missed)
        total_functions += len(functions)
        total_unentered += len(unentered)
        if not (missed or unentered):
            continue
        print(f"{path.relative_to(ROOT)}: {len(missed)} of "
              f"{len(executable)} lines never run"
              + (f": {_ranges(missed)}" if missed else ""))
        for line, name in unentered:
            print(f"    never entered: {name} (line {line})")
    print(f"\nsrc/repro: {total_missed} of {total_lines} executable lines "
          f"never run; {total_unentered} of {total_functions} functions "
          f"never entered")


def main() -> int:
    with tempfile.TemporaryDirectory() as out:
        failures = run_traced(pathlib.Path(out))
        merged = merge(pathlib.Path(out))
    print()
    report(merged)
    for label in failures:
        print(f"entry point failed: python {label}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
