"""A toolchain backed by a synthetic model, for comparing external mode with
synthetic mode.

``model_stub.py compile ARGS... --out BIN`` writes the arguments before
``--out`` to BIN, one line, leaving out those that name ``DROP``, the way a
compiler ignores a flag that does not apply to its target: configurations
that differ only there give one binary. ``model_stub.py run BIN BENCH TABLE``
prints the time that TABLE, lines of ``bench<TAB>binary<TAB>repr(time)``,
gives the binary under BENCH.

It imports nothing, so under ``python -S`` it starts in milliseconds.
"""
import sys

DROP = "nop"

kind, args = sys.argv[1], sys.argv[2:]
if kind == "compile":
    cut = args.index("--out")
    with open(args[cut + 1], "w") as fh:
        fh.write(" ".join(a for a in args[:cut] if DROP not in a))
else:
    binary, bench, table = args
    with open(binary) as fh:
        key = f"{bench}\t{fh.read()}\t"
    with open(table) as fh:
        print(next(line[len(key):] for line in fh if line.startswith(key)), end="")
