"""Run ``repro serve`` with the benchmark's layer wrappers installed.

Usage: ``python serve_traced.py LAYERS_OUT serve [serve options...]``.
The daemon runs exactly as ``python -m repro serve ...`` would; when it
has drained, its layer record is written to ``LAYERS_OUT``.
"""

import sys

import layers
from repro import cli


def main() -> int:
    layers_out, argv = sys.argv[1], sys.argv[2:]
    layers.install()
    code = cli.main(argv)
    layers.dump(layers_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
