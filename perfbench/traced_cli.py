"""Traced stand-in for `python -m excalc.cli ARGS`.

Usage: traced_cli.py FD ARGS...  Runs the same imports and `cli.main(ARGS)`,
then writes four monotonic-clock stamps (ns) to file descriptor FD: before
`import numpy`, after it, after `import excalc.cli`, and after `main`
returns, or after the traceback of an exception it raised is printed.  Exit
status and output match the real entry point, uncaught exceptions included.
"""

import os
import sys
import time

stamps = [time.monotonic_ns()]
fd = int(sys.argv[1])
code = 1
try:
    import numpy  # noqa: F401

    stamps.append(time.monotonic_ns())
    import excalc.cli

    stamps.append(time.monotonic_ns())
    code = excalc.cli.main(sys.argv[2:])
except Exception:
    sys.excepthook(*sys.exc_info())
finally:
    stamps.append(time.monotonic_ns())
    os.write(fd, " ".join(map(str, stamps)).encode())
    os.close(fd)
sys.exit(code)
