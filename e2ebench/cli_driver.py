"""Mirror of one ``python -m repro --no-cache`` approximation command,
with a timer around each layer call.

Usage (from the root of a checkout, with ``src`` on ``PYTHONPATH``)::

    python3 e2ebench/cli_driver.py {to-xsd|union|lower} SCHEMA [SCHEMA]

Makes the same public calls as the CLI's ``_cmd_to_xsd`` / ``_cmd_union``
/ ``_cmd_lower`` and prints one JSON object: the output text (which must
equal the CLI's byte for byte), the import time, each layer's busy
seconds and the construction's budget counts.
"""

import json
import sys
import time


def main() -> int:
    started = time.perf_counter()
    import repro.cli  # noqa: F401  (the imports the CLI pays at start-up)
    from repro import cache
    from repro.core.lower import maximal_lower_union
    from repro.core.upper import minimal_upper_approximation, upper_union
    from repro.runtime import Budget
    from repro.schemas.minimize import minimize_single_type
    from repro.schemas.text_format import dumps, load_file
    from repro.strings import kernels

    busy = {"import": time.perf_counter() - started}

    def timed(layer, function, *args, **kwargs):
        begin = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            busy[layer] = busy.get(layer, 0.0) + time.perf_counter() - begin

    command, paths = sys.argv[1], sys.argv[2:]
    with cache.activation(cache.DISABLED):
        schemas = [timed("text_format.loads", load_file, path) for path in paths]
        with Budget() as budget:
            if command == "to-xsd":
                result = timed("upper", minimal_upper_approximation, schemas[0],
                               strategy="blind", guide=None)
            elif command == "union":
                result = timed("upper", upper_union, schemas[0], schemas[1],
                               strategy="blind", guide=None)
            else:
                result = timed("lower", maximal_lower_union, schemas[0], schemas[1])
        minimized = timed("minimize", minimize_single_type, result)
        text = timed("text_format.dumps", dumps, minimized)
    print(json.dumps({
        "output": text,
        "busy": busy,
        "states": budget.states,
        "steps": budget.steps,
        "types_in": len(result.types),
        "types_out": len(minimized.types),
        "memo": kernels.cache_stats(),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
