"""One job's set-up: import equichern and parse the given input files.

Usage: python bench/setup_probe.py FILE...  (a `.gcw` file is parsed over the
group file before it). Prints the imported `equichern.__file__`.
"""

import sys
from pathlib import Path

import equichern
from equichern.gcw import parse_gcw
from equichern.groups import parse_group


def main(paths):
    group = None
    for path in paths:
        text = Path(path).read_text(encoding="utf-8")
        if path.endswith(".gcw"):
            parse_gcw(text, group)
        else:
            group = parse_group(text, name=Path(path).stem)
    print(equichern.__file__)


if __name__ == "__main__":
    main(sys.argv[1:])
