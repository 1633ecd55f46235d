#!/usr/bin/env python3
"""Which functions of a package does no run reach? (stdlib only)

    python tools/reach.py record OUT_DIR -- -m repro pipeline run --workdir w
    python tools/reach.py record OUT_DIR -- examples/quickstart.py
    python tools/reach.py report OUT_DIR [--root src/repro]

``record`` runs a script or ``-m module`` under ``sys.setprofile`` and
``threading.setprofile`` and appends the first call of every code object
under ``--root`` to ``OUT_DIR/<pid>.txt``, line-buffered, so forked
collector and gradient workers report too. ``report`` prints, per file,
the outermost functions whose body never ran in any recorded process.
Caveat: ``benchmark.pedantic`` pauses profilers around the timed call, so
record the figure benches with ``--benchmark-disable``.
"""

import argparse
import ast
import os
import runpy
import sys
import threading


def record(out_dir, root, argv):
    os.makedirs(out_dir, exist_ok=True)
    root, seen, files = os.path.realpath(root) + os.sep, set(), {}

    def hook(frame, event, arg):
        code = frame.f_code
        if event != "call" or code in seen:
            return
        seen.add(code)
        path = os.path.realpath(code.co_filename)
        if path.startswith(root):
            pid = os.getpid()
            if pid not in files:
                files[pid] = open(os.path.join(out_dir, f"{pid}.txt"), "a", buffering=1)
            files[pid].write(f"{path}\t{code.co_firstlineno}\n")

    module = argv[1] if argv[0] == "-m" else None
    sys.argv = argv[1:] if module else argv
    if not module:
        sys.path.insert(0, os.path.dirname(os.path.abspath(argv[0])))
    threading.setprofile(hook)
    sys.setprofile(hook)
    if module:
        runpy.run_module(module, run_name="__main__", alter_sys=True)
    else:
        runpy.run_path(argv[0], run_name="__main__")


def report(out_dir, root):
    reached, total = set(), 0
    for name in os.listdir(out_dir):
        with open(os.path.join(out_dir, name)) as f:
            reached.update(tuple(line.rstrip("\n").split("\t")) for line in f)
    for dirpath, _, names in sorted(os.walk(root)):
        for path in sorted(os.path.realpath(os.path.join(dirpath, n)) for n in names if n.endswith(".py")):
            with open(path) as f:
                spans, stack = [], [ast.parse(f.read())]
            while stack:
                for node in ast.iter_child_nodes(stack.pop()):
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                        if (path, str(first)) not in reached:
                            spans.append((first, node.end_lineno, node.name))
                            continue  # nested functions lie inside this span
                    stack.append(node)
            lines = sum(end - first + 1 for first, end, _ in spans)
            total += lines
            if spans:
                print(f"{os.path.relpath(path)}: {lines} lines")
                print("".join(f"  {a}-{b} {fn}\n" for a, b, fn in sorted(spans)), end="")
    print(f"total unreached: {total} lines")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=("record", "report"))
    parser.add_argument("out_dir")
    parser.add_argument("--root", default="src/repro")
    argv = sys.argv[1:]
    cut = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:cut])
    if args.mode == "record":
        record(args.out_dir, args.root, argv[cut + 1:])
    else:
        report(args.out_dir, args.root)
