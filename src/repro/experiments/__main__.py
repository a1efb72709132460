"""``python -m repro.experiments`` — another name for ``impact-inline tables``.

Usage::

    python -m repro.experiments [table1|table2|table3|table4|breakdown|
                                 all|ablations|extensions] [FLAGS]

It takes exactly the flags of ``impact-inline tables`` (see ``--help``).
"""

from __future__ import annotations

import sys

from repro import cli


def main(argv: list[str] | None = None) -> int:
    return cli.main(["tables", *(sys.argv[1:] if argv is None else argv)])


if __name__ == "__main__":
    sys.exit(main())
