"""Process entry point of `python -m mmsverify` and the `mmsverify` script."""

import gc
import sys

from .cli import main


def launch() -> int:
    """Run one invocation in this process, then freeze the heap for its exit.

    cli.main has written and flushed the report. What is left is interpreter
    shutdown, whose garbage collections would walk every object the imports
    and the run made, a few milliseconds each process. gc.freeze() moves
    them all to the permanent generation, which no collection visits, so
    shutdown frees them by reference count alone. Unlike os._exit it keeps
    atexit handlers and a caller such as runpy or cProfile running to their
    end. cli.main and cli.run stay free of it: tests call them in process.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(launch())
