"""Regenerate the preset reference CSVs in bench/reference/.

    PYTHONPATH=src python3 bench/make_reference.py

The committed references were produced by the seed implementation.  Only
regenerate them for a change that is meant to alter the preset numbers
beyond the checks' tolerance, and say so in CHANGES.md.
"""

import subprocess
import sys
from pathlib import Path

from checks import REFERENCE_DIR, reference_name
from inputs import PRESETS


def main() -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for preset in PRESETS:
        argv = preset.split()
        text = subprocess.run([sys.executable, "-m", "fracbk.cli", *argv], check=True,
                              stdout=subprocess.PIPE, text=True).stdout
        (REFERENCE_DIR / reference_name(argv)).write_text(text)


if __name__ == "__main__":
    main()
