"""The writer process of frameio.WriterProcess: creates each file read
from stdin, in the order sent, until stdin ends.

A record is the path's and the file's length (``<II``), then the path and
the file's bytes.  At the first file it cannot write the process writes the
errno (``<i``) and the path to stdout and exits 1; a truncated record also
exits 1.  It imports only the standard library, so it starts without numpy
or the package, and it ignores SIGINT: the stream process ends it by
closing stdin.
"""

import signal
import struct
import sys

RECORD = struct.Struct("<II")
REPORT = struct.Struct("<i")


def main() -> int:
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    pipe = sys.stdin.buffer
    while True:
        head = pipe.read(RECORD.size)
        if not head:
            return 0
        if len(head) < RECORD.size:
            return 1
        n_name, n_data = RECORD.unpack(head)
        name, data = pipe.read(n_name), pipe.read(n_data)
        if len(name) < n_name or len(data) < n_data:
            return 1
        try:
            with open(name, "wb") as fh:
                fh.write(data)
        except OSError as exc:
            sys.stdout.buffer.write(REPORT.pack(exc.errno or 0) + name)
            return 1


if __name__ == "__main__":
    sys.exit(main())
