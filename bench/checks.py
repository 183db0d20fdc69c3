"""Output checks for the clgmd benchmark.

At the reference seed every output is compared with the stored reference:
discrete columns exactly, float columns within FLOAT_TOL.  Every output, at
any seed, must also satisfy the invariants below, which re-derive the spike
and confirmation bits from kappa so a single flipped bit is caught without
a reference.
"""

from __future__ import annotations

import csv
import io

DETECT_COLUMNS = "frame,kappa,u,d,l,r,spike,confirmed,escape_axis,escape_value".split(",")
TRACE_COLUMNS = (
    "frame,t,px,py,pz,vx,vy,vz,kappa,u,d,l,r,spike,confirmed,"
    "cmd_axis,cmd_value,cmd_remaining"
).split(",")
DISCRETE = {"frame", "spike", "confirmed", "escape_axis", "cmd_axis"}

# Floats are written with six decimals, so one rounding flip moves a value
# by 1e-6; the epsilon only absorbs the binary error of that difference.
FLOAT_TOL = 1e-6 + 1e-12
# u+d+l+r and kappa are rounded separately: five half-unit errors at most.
SHARE_TOL = 5 * 0.5e-6 + 1e-12
N_SP = 4
SPEED_0 = 0.6
DT = 0.02
MAX_STEPS = 1000
OUTCOMES = {"AVOIDED", "COLLIDED", "TIMEOUT"}
QUADRANT_INDEX = {"up": 0, "down": 1, "left": 2, "right": 3}
# Placement -> (trace column, sign of a drift away from the obstacle).
AWAY = {"left": ("py", -1.0), "right": ("py", 1.0), "up": ("pz", -1.0), "down": ("pz", 1.0)}


def parse_csv(text: str) -> tuple[list[str], list[dict[str, str]]]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, [])
    return header, [dict(zip(header, row)) for row in reader]


def compare(rows, reference_rows) -> list[str]:
    """Mismatches between two parsed outputs with the same columns."""
    if len(rows) != len(reference_rows):
        return [f"{len(rows)} rows, reference has {len(reference_rows)}"]
    problems = []
    for number, (row, ref) in enumerate(zip(rows, reference_rows), start=1):
        for column, expected in ref.items():
            got = row.get(column)
            if column in DISCRETE:
                same = got == expected
            else:
                try:
                    same = abs(float(got) - float(expected)) <= FLOAT_TOL
                except (TypeError, ValueError):
                    same = False
            if not same:
                problems.append(f"row {number} {column}: {got!r} != reference {expected!r}")
    return problems


def _spike_problems(rows, t_s: float) -> list[str]:
    """spike == (kappa >= t_s) and confirmed == last N_SP spikes all set."""
    problems = []
    history: list[int] = []
    for row in rows:
        number = row["frame"]
        kappa = float(row["kappa"])
        shares = sum(float(row[c]) for c in "udlr")
        if not 0.0 <= kappa <= 255.0:
            problems.append(f"frame {number}: kappa {kappa} outside [0, 255]")
        if abs(shares - kappa) > SHARE_TOL:
            problems.append(f"frame {number}: u+d+l+r = {shares} but kappa = {kappa}")
        if row["spike"] not in ("0", "1") or row["confirmed"] not in ("0", "1"):
            problems.append(f"frame {number}: spike/confirmed not a bit")
            continue
        spike = int(row["spike"])
        if abs(kappa - t_s) > 1e-6 and spike != int(kappa >= t_s):
            problems.append(f"frame {number}: spike {spike} but kappa {kappa}, t_s {t_s}")
        history = (history + [spike])[-N_SP:]
        confirmed = int(len(history) == N_SP and all(history))
        if int(row["confirmed"]) != confirmed:
            problems.append(f"frame {number}: confirmed {row['confirmed']}, spikes say {confirmed}")
    return problems


def detect_invariants(header, rows, frames: int, t_s: float) -> list[str]:
    if header != DETECT_COLUMNS:
        return [f"header {header}"]
    if len(rows) != frames - 1:
        return [f"{len(rows)} rows for {frames} frames"]
    problems = []
    for number, row in enumerate(rows, start=1):
        if row["frame"] != str(number):
            problems.append(f"row {number}: frame {row['frame']}")
        if row["escape_axis"] not in ("y", "z") or (
            abs(abs(float(row["escape_value"])) - SPEED_0) > FLOAT_TOL
        ):
            problems.append(f"row {number}: escape {row['escape_axis']} {row['escape_value']}")
    return problems + _spike_problems(rows, t_s)


def trace_invariants(header, rows, outcome: str, t_s: float) -> list[str]:
    if header != TRACE_COLUMNS:
        return [f"header {header}"]
    if not 1 <= len(rows) <= MAX_STEPS:
        return [f"{len(rows)} rows, expected 1..{MAX_STEPS}"]
    problems = [] if outcome in OUTCOMES else [f"outcome {outcome!r}"]
    for number, row in enumerate(rows):
        if row["frame"] != str(number) or abs(float(row["t"]) - number * DT) > FLOAT_TOL:
            problems.append(f"row {number}: frame {row['frame']} t {row['t']}")
        if row["cmd_axis"] not in ("", "y", "z") or (
            row["cmd_axis"] == ""
            and (float(row["cmd_value"]) != 0.0 or float(row["cmd_remaining"]) != 0.0)
        ):
            problems.append(f"row {number}: command {row['cmd_axis']} {row['cmd_value']}")
    first = rows[0]
    if (first["kappa"], first["spike"], first["confirmed"]) != ("0.000000", "0", "0"):
        problems.append("frame 0 is a detector result; it should only prime")
    return problems + _spike_problems(rows[1:], t_s)


def detect_success(rows, direction: str) -> bool:
    """The first confirmed row's largest potential is the approach side."""
    for row in rows:
        if row["confirmed"] == "1":
            values = [float(row[c]) for c in "udlr"]
            return values.index(max(values)) == QUADRANT_INDEX[direction]
    return False


def trial_success(rows, outcome: str, placement: str) -> bool:
    """C08 rule: offset trials avoid the obstacle while drifting away from
    it; the centred trial with spiking disabled collides."""
    if placement == "centered":
        return outcome == "COLLIDED"
    column, sign = AWAY[placement]
    drift = float(rows[-1][column]) - float(rows[0][column])
    return outcome == "AVOIDED" and drift * sign > 0.0
