"""Line and call collector for ``python -m tests.reachability``.

Python imports ``sitecustomize`` at start-up from the first directory on
``sys.path`` that has one, so putting this directory on ``PYTHONPATH``
traces every interpreter a run starts, subprocesses included.  It is
inert unless ``REACH_OUT`` names a directory: then it records, for each
source file under ``REACH_ROOT``, the lines that ran and the code
objects that were entered, and writes them there as one JSON file per
process when the interpreter exits.

It imports nothing from the repository, so it never changes which
``repro`` a traced process imports.
"""

import atexit
import json
import os
import sys
import threading
import uuid

_OUT = os.environ.get("REACH_OUT")
_ROOT = os.environ.get("REACH_ROOT", "")


def _install(out, root):
    root = os.path.realpath(root) + os.sep
    lines = {}       # filename -> set of line numbers that ran
    entered = set()  # (filename, first line, name) of code entered
    local_tracers = {}
    skipped = set()

    def local_tracer(hits):
        add = hits.add

        def trace_lines(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return trace_lines
        return trace_lines

    def trace_calls(frame, event, arg):
        code = frame.f_code
        filename = code.co_filename
        tracer = local_tracers.get(filename)
        if tracer is None:
            if filename in skipped:
                return None
            if not os.path.realpath(filename).startswith(root):
                skipped.add(filename)
                return None
            tracer = local_tracers[filename] = local_tracer(
                lines.setdefault(filename, set()))
        entered.add((filename, code.co_firstlineno, code.co_name))
        return tracer

    def dump():
        sys.settrace(None)
        files = {}
        for filename, hits in lines.items():
            files.setdefault(os.path.realpath(filename),
                             {"lines": [], "entered": []})["lines"] += hits
        for filename, first, name in entered:
            files[os.path.realpath(filename)]["entered"].append([first, name])
        path = os.path.join(out, f"{os.getpid()}-{uuid.uuid4().hex}.json")
        with open(path, "w") as handle:
            json.dump(files, handle)

    atexit.register(dump)
    threading.settrace(trace_calls)
    sys.settrace(trace_calls)


if _OUT:
    _install(_OUT, _ROOT)
