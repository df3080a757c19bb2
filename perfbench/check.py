"""Correctness gate: an independent likelihood oracle, stored references and
artifact hashes.

Every run is checked three ways.

* **Oracle** (any seed).  Each fit's reported log-likelihood is recomputed
  at its ``rho_hat`` with a dense ``slogdet`` of I - rho W and a least
  squares solve, independent of the estimator's eigenvalue log-determinant
  and optimizer, and ``rho_hat`` must be a local maximum of that profile.
  Selection deltas are re-added from the fit artifacts, and Moran's I at
  the chosen cutoff is recomputed from OLS residuals.  The oracle reads the
  inputs through netdisturb's public ingest and weight builders.
* **Reference** (the seeds in ``reference/``).  Estimates must match the
  stored values within ``TOLERANCES``: loose enough for an equivalent
  log-determinant or optimizer, exact for the selection winner and the
  chosen cutoff.
* **Hash**.  Every pass over the same inputs must leave a byte-identical
  artifact set.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)

TOLERANCES = {
    "rho_hat_abs": 1e-6,
    "beta_hat_abs": 1e-5,
    "loglik_rel": 1e-7,  # relative to max(1, |value|); also used for aic
    "aggregated_delta_abs": 1e-4,
    "morans_i_rel": 1e-9,
    "oracle_rel": 1e-7,  # reported loglik against the oracle's
    "optimum_step": 1e-3,  # rho_hat +- this must not beat rho_hat
}
# The optimum check costs two dense n^3 log-determinants per fit; above this
# many flows it runs on the first period's fits only.
OPTIMUM_CHECK_MAX_N = 1000
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


class Profile:
    """Concentrated log-likelihood of y = X beta + u, u = rho W u + eps."""

    def __init__(self, y, X, W):
        self.y, self.X, self.W = y, X, W
        self.Wy, self.WX = W @ y, W @ X

    def __call__(self, rho: float) -> float:
        n = self.y.size
        Ay = self.y - rho * self.Wy
        AX = self.X - rho * self.WX
        beta, *_ = np.linalg.lstsq(AX, Ay, rcond=None)
        e = Ay - AX @ beta
        sign, logabsdet = np.linalg.slogdet(np.eye(n) - rho * self.W)
        return -0.5 * n * (LOG_2PI + 1.0) - 0.5 * n * math.log(e @ e / n) + logabsdet


def fit_oracle_error(y, X, W, rho_hat, loglik, aic, converged, degenerate, spatial,
                     bounds=None, check_optimum=True) -> str | None:
    """None if a reported fit agrees with the oracle, else the reason."""
    if not converged:
        return "fit did not converge"
    if degenerate:
        return "degenerate fit"
    if loglik is None or aic is None:
        return "non-finite log-likelihood"
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    W = np.asarray(getattr(W, "entries", W), dtype=float) if spatial else np.zeros((y.size, y.size))
    profile = Profile(y, X, W)
    at_hat = profile(rho_hat)
    tol = TOLERANCES["oracle_rel"]
    if not _close(at_hat, loglik, tol):
        return f"loglik {loglik!r} but the oracle gives {at_hat!r} at rho {rho_hat!r}"
    params = X.shape[1] + (2 if spatial else 1)
    if not _close(aic, -2.0 * at_hat + 2.0 * params, tol):
        return f"aic {aic!r} inconsistent with loglik {at_hat!r}"
    if spatial and check_optimum:
        step = TOLERANCES["optimum_step"]
        lo, hi = bounds if bounds is not None else (-1.0, 1.0)
        for rho in (rho_hat - step, rho_hat + step):
            if lo < rho < hi and profile(rho) > at_hat + 1e-9 * max(1.0, abs(at_hat)):
                return f"rho_hat {rho_hat!r} is not a maximum: the profile is higher at {rho!r}"
    return None


# ----------------------------------------------------------------------------
# Panel workloads


def parse_candidates(text: str):
    """(structure id, NeighborhoodSpec or None for rho0) for each candidate."""
    from netdisturb import NeighborhoodSpec

    out = []
    for token in (t.strip() for t in text.split(",")):
        if token == "rho0":
            out.append(("rho0", None))
            continue
        kind, _, cutoff = token.partition(":")
        spec = NeighborhoodSpec(kind, cutoff_km=float(cutoff)) if cutoff else NeighborhoodSpec(kind)
        out.append((spec.structure_id, spec))
    return out


def load_periods(data: Path, lag: int = 2):
    """Per period: (index, y, X) read through netdisturb's public ingest."""
    import netdisturb as nd

    snapshots = nd.load_panel(data / "edges.csv", data / "roster.csv")
    nodal = [nd.impute_linear(nd.load_nodal_csv(data / f"{name}.csv", name)) for name in ("x1", "x2")]
    dyadic = {
        "alliance": nd.load_dyadic_csv(data / "alliance.csv", "alliance", True, 0.0),
        "distance": nd.load_dyadic_csv(data / "distance.csv", "distance", True, None),
    }
    recipe = (nd.CovariateTerm("x1", "sender"), nd.CovariateTerm("x2", "receiver"))
    periods = {}
    for snapshot in snapshots:
        index = nd.index_flows(snapshot)
        design = nd.build_design(snapshot, index, nodal, list(dyadic.values()), recipe=recipe, lag=lag)
        periods[snapshot.period] = (index, nd.log_flow_vector(snapshot, index), np.asarray(design.rows))
    return periods, dyadic


def _read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def panel_result(out: Path, candidates) -> dict:
    """The reference-comparable values a pipeline pass wrote to `out`."""
    fits = {}
    for cand_id, _ in candidates:
        for path in sorted((out / "fits" / cand_id).glob("period_*.json")):
            period = int(path.stem.split("_")[1])
            doc = _read_json(path)
            fits[f"{period}/{cand_id}"] = doc
    selection = _read_json(out / "selection.json")["aggregated"]
    scan = _read_json(out / "scan.json")
    return {
        "fits": fits,
        "selection": {"winner": selection["winner"], "aggregated_delta": selection["delta"]},
        "scan": {"best_cutoff_km": scan["best_cutoff_km"], "best_morans_i": scan["best_morans_i"]},
    }


def reference_view(result: dict) -> dict:
    """What a reference file stores of a panel or study result."""
    if "reps" in result:
        return {"reps": [{"rho_hat": r["rho_hat"], "beta_hat": r["beta_hat"]} for r in result["reps"]]}
    return {
        "fits": {
            key: {"rho_hat": doc["rho_hat"], "loglik": doc["loglik"], "aic": doc["aic"]}
            for key, doc in result["fits"].items()
        },
        "selection": result["selection"],
        "scan": result["scan"],
    }


def _morans_i_at(cutoff, periods, residuals, distances) -> float:
    """Moran's I of pooled residuals, import-anchored weights at `cutoff`."""
    z = np.concatenate([residuals[t] for t in sorted(periods)])
    zc_all = z - z.mean()
    quad = s0 = 0.0
    start = 0
    for t in sorted(periods):
        index = periods[t][0]
        zc = zc_all[start : start + index.n]
        start += index.n
        anchors = [r for _, r in index.dyads]
        names = sorted(set(anchors))
        pos = {name: k for k, name in enumerate(names)}
        close = np.zeros((len(names), len(names)), dtype=bool)
        for a in range(len(names)):
            for b in range(a + 1, len(names)):
                close[a, b] = close[b, a] = distances.lookup(names[a], names[b], t) < cutoff
        code = np.array([pos[r] for r in anchors])
        adjacency = close[np.ix_(code, code)]
        counts = adjacency.sum(axis=1)
        rows = counts > 0
        quad += float(zc[rows] @ ((adjacency @ zc)[rows] / counts[rows]))
        s0 += float(rows.sum())
    return z.size / s0 * quad / float(zc_all @ zc_all)


def _structure_context(spec, dyadic):
    if spec.kind.startswith("alliance"):
        return dyadic["alliance"]
    if spec.kind.startswith("distance"):
        return dyadic["distance"]
    return None


def panel_oracle(data: Path, out: Path, candidates, result: dict) -> dict[str, list[str]]:
    """Oracle errors of one pipeline pass, keyed by operation."""
    errors: dict[str, list[str]] = {}

    def fail(op, message):
        errors.setdefault(op, []).append(message)

    import netdisturb as nd

    periods, dyadic = load_periods(data)
    report = _read_json(out / "fit_report.json")
    for failure in report["failures"]:
        fail(f"fit:{failure['period']}/{failure['structure']}", f"fit failed: {failure['error']}")
    if report["periods_fitted"] != sorted(periods):
        fail("stage:fit", f"fitted periods {report['periods_fitted']} != {sorted(periods)}")

    residuals = {}
    for t, (index, y, X) in periods.items():
        residuals[t] = y - X @ np.linalg.lstsq(X, y, rcond=None)[0]
        for cand_id, spec in candidates:
            op = f"fit:{t}/{cand_id}"
            doc = result["fits"].get(f"{t}/{cand_id}")
            if doc is None:
                fail(op, "no fit artifact")
                continue
            W = None
            if spec is not None:
                W = nd.build_weight_matrix(spec, index, _structure_context(spec, dyadic))
            error = fit_oracle_error(
                y, X, W, doc["rho_hat"], doc["loglik"], doc["aic"], doc["converged"],
                doc["degenerate"], spatial=spec is not None, bounds=doc.get("rho_bounds"),
                check_optimum=index.n <= OPTIMUM_CHECK_MAX_N or t == min(periods),
            )
            if error:
                fail(op, error)

    # Selection: aggregated AIC re-added from the fit stage's own artifacts.
    structures = [cand_id for cand_id, _ in candidates]
    sums = {s: sum(result["fits"][f"{t}/{s}"]["aic"] for t in periods if f"{t}/{s}" in result["fits"]) for s in structures}
    best = min(sums.values())
    winner = next(s for s in structures if sums[s] == best)
    if result["selection"]["winner"] != winner:
        fail("stage:select", f"winner {result['selection']['winner']} != argmin of summed AIC {winner}")
    for s in structures:
        got = result["selection"]["aggregated_delta"][s]
        if got is None or abs(got - (sums[s] - best)) > TOLERANCES["aggregated_delta_abs"]:
            fail("stage:select", f"aggregated delta of {s}: {got!r} != {sums[s] - best!r}")

    # Scan: the reported best is the first maximum of scan.csv, and Moran's I
    # there matches the oracle.
    with open(out / "scan.csv", encoding="utf-8") as fh:
        rows = [r for r in csv.DictReader(fh) if r["defined"] == "1"]
    values = [float(r["morans_i"]) for r in rows]
    top = int(np.argmax(values))
    scan = result["scan"]
    if float(rows[top]["cutoff_km"]) != scan["best_cutoff_km"]:
        fail("stage:scan", f"best cutoff {scan['best_cutoff_km']} is not the first maximum of scan.csv")
    expected = _morans_i_at(scan["best_cutoff_km"], periods, residuals, dyadic["distance"])
    if not _close(scan["best_morans_i"], expected, 1e-8):
        fail("stage:scan", f"Moran's I {scan['best_morans_i']!r} != oracle {expected!r}")

    manifest = _read_json(out / "manifest.json")
    if manifest.get("failures"):
        fail("stage:diagnose", f"diagnose failures: {manifest['failures']}")
    with open(out / "qq.csv", encoding="utf-8") as fh:
        qq_rows = sum(1 for _ in fh) - 1
    if qq_rows != sum(index.n for index, _, _ in periods.values()):
        fail("stage:diagnose", f"qq.csv has {qq_rows} rows for {sum(i.n for i, _, _ in periods.values())} flows")
    return errors


# ----------------------------------------------------------------------------
# References and hashes


def reference_path(workload: str, seed: int, smoke: bool = False) -> Path:
    return REFERENCE_DIR / f"{workload}-seed{seed}{'-smoke' if smoke else ''}.json"


def compare_reference(reference: dict, result: dict) -> dict[str, list[str]]:
    """Mismatches between a stored reference and a result, keyed by operation."""
    errors: dict[str, list[str]] = {}

    def fail(op, message):
        errors.setdefault(op, []).append(message)

    actual = reference_view(result)
    tol = TOLERANCES
    if "reps" in reference:
        if len(actual["reps"]) != len(reference["reps"]):
            fail("study", f"{len(actual['reps'])} replicates, reference has {len(reference['reps'])}")
        for k, (ref, got) in enumerate(zip(reference["reps"], actual["reps"])):
            if abs(ref["rho_hat"] - got["rho_hat"]) > tol["rho_hat_abs"]:
                fail(f"rep:{k}", f"rho_hat {got['rho_hat']!r} != reference {ref['rho_hat']!r}")
            if np.max(np.abs(np.subtract(ref["beta_hat"], got["beta_hat"]))) > tol["beta_hat_abs"]:
                fail(f"rep:{k}", f"beta_hat {got['beta_hat']} != reference {ref['beta_hat']}")
        return errors

    for key, ref in reference["fits"].items():
        got = actual["fits"].get(key)
        op = f"fit:{key}"
        if got is None:
            fail(op, "missing")
            continue
        if abs(ref["rho_hat"] - got["rho_hat"]) > tol["rho_hat_abs"]:
            fail(op, f"rho_hat {got['rho_hat']!r} != reference {ref['rho_hat']!r}")
        for field in ("loglik", "aic"):
            if got[field] is None or not _close(ref[field], got[field], tol["loglik_rel"]):
                fail(op, f"{field} {got[field]!r} != reference {ref[field]!r}")
    sel_ref, sel = reference["selection"], actual["selection"]
    if sel["winner"] != sel_ref["winner"]:
        fail("stage:select", f"winner {sel['winner']} != reference {sel_ref['winner']}")
    for s, ref in sel_ref["aggregated_delta"].items():
        got = sel["aggregated_delta"].get(s)
        if got is None or abs(got - ref) > tol["aggregated_delta_abs"]:
            fail("stage:select", f"aggregated delta of {s}: {got!r} != reference {ref!r}")
    scan_ref, scan = reference["scan"], actual["scan"]
    if scan["best_cutoff_km"] != scan_ref["best_cutoff_km"]:
        fail("stage:scan", f"best cutoff {scan['best_cutoff_km']} != reference {scan_ref['best_cutoff_km']}")
    if not _close(scan["best_morans_i"], scan_ref["best_morans_i"], tol["morans_i_rel"]):
        fail("stage:scan", f"Moran's I {scan['best_morans_i']!r} != reference {scan_ref['best_morans_i']!r}")
    return errors


def tree_digest(*roots: Path) -> str:
    """SHA-256 over the relative paths and bytes of every file under `roots`."""
    digest = hashlib.sha256()
    for root in roots:
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def differing_files(copy: Path, original: Path) -> list[str]:
    """Files under `copy` whose bytes differ from, or are missing under,
    `original`.  ``manifest.json`` is skipped: every stage rewrites it."""
    return [
        str(path.relative_to(copy))
        for path in sorted(p for p in copy.rglob("*") if p.is_file() and p.name != "manifest.json")
        if not (original / path.relative_to(copy)).is_file()
        or (original / path.relative_to(copy)).read_bytes() != path.read_bytes()
    ]
