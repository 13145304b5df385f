"""The program entry: ``python -m securakit`` and the ``securakit`` script both call :func:`run`."""

import gc
import sys


def run() -> None:
    """Run one command with the cyclic garbage collector off, freeze the heap, and exit with its code.

    A command is one short process.  It allocates numpy arrays and acyclic
    records, which reference counting frees as they go, so the collector
    finds no garbage worth its passes; yet it makes dozens of them while the
    engines load, and the full collections at interpreter shutdown walk a
    heap the process is about to discard.  ``gc.freeze`` moves every object
    into the permanent generation, which those collections skip.  The exit
    is the normal one, through ``SystemExit``: atexit handlers, the flush of
    the standard streams and ``finally`` blocks still run.  The CLI is
    imported here, after ``gc.disable()``, so argparse, json and the CLI's
    own modules load with the collector already off.

    Only this entry touches the collector: :func:`securakit.cli.main`, the
    engines and any library caller keep it as they find it.
    """
    gc.disable()
    from .cli import main

    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
