"""Fold a ledger file in byte ranges on several processes.

ledger.read_citation_file folds a large ledger here and makes the profiles.
The file is cut just after a line end near each given offset; this process
folds the first part, one child made with os.fork folds each other part
through the same row loop (ledger._fold) and decoder (ledger.text_decoder),
and each journal's fold record comes back through a pipe with marshal.
"""
from __future__ import annotations

import marshal
import os
from signal import SIGKILL
from typing import BinaryIO, Iterator

from . import ledger
from .errors import CitemetricsError, ParseError


def read_ranges(
    fd: int,
    offsets: list[int],
    alias_map: ledger.AliasMap,
    source: str | None,
) -> tuple[dict[str, ledger._Journal], int]:
    """Fold the ledger at `fd` in parts split at the end of the line holding
    each offset; parts after the first are folded by child processes.

    Returns (fold records by journal identity, data rows), as ledger._fold
    returns them for one stream.  This process folds the first part, which
    holds the header, then merges each child's journal records in file
    order (ledger._merge_journal), so first-seen journal and cell order and
    display names are those of one stream.  The earliest part with an error
    raises it, with its line number counted from the top of the file.
    """
    size = os.fstat(fd).st_size
    ends = sorted({_line_end(fd, offset, size) for offset in offsets} | {size})
    children: list[tuple[int, BinaryIO]] = []
    reaped = 0
    try:
        for start, end in zip(ends, ends[1:]):
            children.append(_fork_range(fd, start, end, alias_map, source))
        numbered = ledger._data_lines(_range_lines(fd, 0, ends[0]),
                                      ledger.CITATIONS_HEADER, source)
        journals, rows, lines_before = ledger._fold(numbered, alias_map, source, 1)
        for pid, pipe in children:
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            reaped += 1
            if status != 0:
                raise CitemetricsError(
                    f"{source}: a process reading part of the ledger ended without "
                    f"a result (exit status {os.waitstatus_to_exitcode(status)})"
                )
            kind, *head = marshal.loads(data)
            del data  # only the journal records are kept while they merge
            if kind == "line":
                raise ParseError(lines_before + head[0], head[1], source)
            part_rows, part_lines, records = head
            # Each journal is a marshal record of its own, dropped as it is
            # loaded, so only one journal's cells are ever loaded and not yet merged.
            records.reverse()
            while records:
                ledger._merge_journal(journals, *marshal.loads(records.pop()))
            rows += part_rows
            lines_before += part_lines
    finally:
        for pid, pipe in children[reaped:]:
            pipe.close()
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)
    return journals, rows


def _fork_range(
    fd: int, start: int, end: int, alias_map: ledger.AliasMap, source: str | None
) -> tuple[int, BinaryIO]:
    """Fold bytes [start, end) of the ledger in a child process.

    Returns the child's pid and the read end of a pipe on which it sends,
    with marshal, ("rows", data rows, lines, [one marshal record (identity,
    (display name, cell totals, cell self counts)) per journal, as
    ledger._fold returns them]) or ("line", line number within the part,
    reason), then exits with status 0.
    The child writes nothing else and leaves only by os._exit, so it never
    runs the parent's cleanup or flushes its buffers.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                numbered = enumerate(_range_lines(fd, start, end), 1)
                journals, rows, number = ledger._fold(numbered, alias_map, source)
                result = ("rows", rows, number, [*map(marshal.dumps, journals.items())])
            except ParseError as exc:
                result = ("line", exc.line, exc.reason)
            with open(write_fd, "wb") as pipe:
                marshal.dump(result, pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _line_end(fd: int, offset: int, size: int) -> int:
    """The offset just past the first line feed at or after `offset`, else
    `size`.  Universal newlines end a line at LF, CRLF or a lone CR, so a
    part that starts just after an LF starts a line.
    """
    while offset < size:
        block = os.pread(fd, 1 << 16, offset)
        if not block:
            break
        cut = block.find(b"\n")
        if cut >= 0:
            return offset + cut + 1
        offset += len(block)
    return size


def _range_lines(fd: int, start: int, end: int) -> Iterator[str]:
    """The lines of bytes [start, end), without their line ends, as
    ledger.open_input would split them.

    Blocks are read with os.pread, so the processes sharing the file never
    move each other's offset, decoded by ledger.text_decoder, which turns
    every line end into an LF, and split at the LFs.
    """
    decoder = ledger.text_decoder()
    carry = ""
    while True:
        block = os.pread(fd, min(1 << 16, end - start), start)
        start += len(block)
        lines = (carry + decoder.decode(block, not block)).split("\n")
        carry = lines.pop()
        yield from lines
        if not block:
            break
    if carry:
        yield carry
