"""Record the program outputs the benchmark gates compare against.

    python3 perfbench/record.py

Writes ``perfbench/expected.json``: the digest of the ``verify-grid``
output and of each of its instances, the payload digests of every
``cli-oneshot`` command (seed-independent ones, and the seeded ones of
``gen.DEFAULT_SEED``) and every ``gw-session`` value of that seed, asked
as :func:`child._evaluate` asks it.  Run it from the root of a source
checkout, and only at a commit whose outputs are known to be right: the
benchmark treats any difference as a failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import child
import gen
import run


def record_grid() -> dict:
    out = run.spawn(run.program(run.GRID_ARGS))
    doc = json.loads(out.stdout)
    if out.code != 0 or doc["payload"]["ok"] is not True:
        raise SystemExit("the grid does not verify; refusing to record it")
    return {
        "sha256": run.sha256(out.stdout),
        "instances": [run.sha256(json.dumps(inst, sort_keys=True).encode())
                      for inst in doc["payload"]["instances"]],
    }


def record_cli() -> dict:
    from qcblowup import cli

    fixed, seeded = {}, {}
    for sweep in gen.cli_sweeps(gen.DEFAULT_SEED):
        for args in sweep:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(args)
            if code != 0:
                raise SystemExit(f"{' '.join(args)} exited {code}")
            digest = run.payload_digest(json.loads(buf.getvalue()))
            table = fixed if args[0] in ("present", "basis") else seeded
            table[" ".join(args)] = digest
    return {"seed": gen.DEFAULT_SEED, "fixed": fixed, "seeded": seeded}


def record_session() -> dict:
    inputs = gen.session_inputs(gen.DEFAULT_SEED)
    presentations: dict = {}
    values = [[child._evaluate(*child._parse_query(q, presentations)) for q in block]
              for block in inputs["passes"]]
    return {"seed": gen.DEFAULT_SEED, "values": values}


def main() -> int:
    if not (run.SRC / "qcblowup").is_dir():
        print(f"error: no program source at {run.SRC}", file=sys.stderr)
        return 2
    expected = {
        "verify-grid": record_grid(),
        "cli-oneshot": record_cli(),
        "gw-session": record_session(),
    }
    with open(run.HERE / "expected.json", "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
