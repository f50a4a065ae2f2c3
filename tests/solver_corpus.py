"""Differential corpus for solve_qp: dump one tree's answers, compare two dumps.

    python tests/solver_corpus.py dump OUT.json
    python tests/solver_corpus.py compare A.json B.json

``dump`` solves 2426 problems with the ``trimarket`` package found on the
import path (set ``PYTHONPATH`` to pick a checkout) and writes, per solve,
the status, iteration count, message, objective and primal vector, the
primal residual (``residuals.primal_inf``) of an optimal answer, and how
many ``qp.linprog`` probes it ran.  Per factor site it records the band
Cholesky factors made (``qp.dpbtrf`` calls, the one after a replaced
pivot included), the largest band dimension (a factored matrix's rows
less its bordered coupling rows) and bandwidth among them (0 when none),
the total band dimension, the stored band entries (bw + 1 per row of the
band) summed over the factors, the pivots replaced (``qp.dpbtrf`` calls
that report ``info > 0``, a pivot that is not positive, which
``qp._BandFactor`` replaces and factors again), the factors that broke
down (``qp._Kkt.factor`` raised RuntimeError: a pivot that fails again
after its replacement, or a singular border), the orderings made
(``qp.reverse_cuthill_mckee`` calls, one per KKT pattern built) and the
band solves (``qp._Kkt.shifted_solve`` calls: each refined solve's first
solve plus its refinement steps), with the refinement steps among them
(a ``qp._Kkt.solve``'s band solves past its first), and the triangular
sweeps behind them (``qp.dtbtrs``: the forward sweep of the border's
columns, once per factor, and the two sweeps of each solve), the calls
and the right-hand-side columns they took.  A factor, an ordering and a
sweep are the polish's whenever ``_polish`` is running, and the interior
point's otherwise.  The sites are ``ipm``, the interior point's
orderings, ``ipm_cholesky``, its factors, solves and sweeps, and
``polish``, every factor, solve, sweep and ordering of the polish.

The corpus is ``random_instance`` seeds 0-599 x {default, ``r_min=0.95``} x
``max_iter`` {200, 8}, plus 26 synth-data solves at T=168-672: default,
uncapped, r = 0.995, an unmeetable REC floor, and two with lossy storage.
For each synth case with an optimal answer it also solves the neighbours
``run_scenario`` solves in full mode (quota + 1, and r + 0.01 where r
leaves room), once warm-started from that answer and once cold, and
records under ``neighbours`` whether the warm solve was answered from the
start's active set (``iterations == 0``), its objective minus the cold
one, and each solve's factor sites (``band_warm``, ``band_cold``).  The
base and its neighbours are solved inside one ``qp.kkt_pattern_scope``,
as ``run_scenario`` solves them, so their KKT systems share patterns.
It takes about 15 s on a 2-core VM.

``compare`` prints the status, iteration, message and objective (1e-8
relative) mismatch counts and the largest |dx| over solves with the same
status, for all solves and for the lossless-storage ones (eta_c = eta_d =
1) alone; then how many solves optimal in both trees moved x at all and
beyond 1e-9 (largest |dx|), with the five largest moves by name; then
each status transition from A to B with its count.  Then,
for each tree, the iteration and probe totals by status, the total
factorizations and the total band solves with the refinement steps
among them, then the ``dtbtrs`` calls and right-hand-side columns; per
site, the band factors with the largest and total band dimension, the
largest bandwidth, the stored entries, the replaced pivots, the
breakdowns, the band solves and refinement steps, the ``dtbtrs`` calls
(columns), and the orderings, over every solve, neighbours included,
then the orderings of the neighbour solves alone; the probe totals
by message, over the solves that are not optimal, with the solves
that carry each message; and the largest primal residual of an
optimal answer, and the orderings per solve: their total over every
site divided by the solves, neighbours left out, and the most any one
solve made.  Then the number of solves whose
iteration count changed, by status; per status, a histogram of the
change (B - A); and each solve that changed status or whose count rose.
Then each solve whose probe count changed, A -> B.  Then both trees'
totals of polish factorizations, and each solve whose count changed.
Last, per tree, how many neighbour solves were answered warm and the
largest warm-minus-cold objective gap among those.

Not collected by pytest (the file name does not match test_*).
"""

from __future__ import annotations

import json
import sys
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def _synth_cases():
    from trimarket.model import EssParams, default_config
    from trimarket.scenarios import SynthSpec, synth_data

    def case(name, seed, horizon=168, tweak=lambda cfg: cfg):
        cfg = tweak(default_config(horizon))
        return name, cfg, synth_data(SynthSpec(seed=seed, horizon=horizon))

    def lossy(cfg):
        return type(cfg)(**{**cfg.__dict__, "ess": EssParams(40.0, 40.0, 80.0, 0.95, 0.9)})

    cases = [case(f"synth168/{s}", s) for s in range(1, 13)]
    cases += [case(f"synth336/{s}", s, 336) for s in (1, 2, 3, 4)]
    cases += [case("synth672/7", 7, 672)]
    for s in (7, 8):
        cases.append(case(f"uncapped/{s}", s, tweak=lambda c: c.with_caps(
            g_cap=float("inf"), r_cap=float("inf"), c_cap=float("inf"))))
    for s in (7, 8, 2007):
        cases.append(case(f"r0995/{s}", s, tweak=lambda c: c.with_policy(r=0.995)))
    for s in (7, 8):
        cases.append(case(f"rec_floor_unmeetable/{s}", s, tweak=lambda c: c.with_inventories(
            rec=False, cer=True).with_caps(r_cap=0.0).with_policy(r=1.0)))
    for s in (7, 8):
        cases.append(case(f"lossy/{s}", s, tweak=lossy))
    return cases


SITES = ("ipm", "ipm_cholesky", "polish")
BAND_KEYS = ("factors", "dim", "bw", "total_dim", "stored", "replaced", "breakdowns",
             "orderings", "solves", "refinements", "dtbtrs", "dtbtrs_cols")
NO_BAND = dict.fromkeys(BAND_KEYS, 0)

def _record(cfg, problem, settings, band, probes):
    from trimarket.qp import solve_qp

    band.clear()
    probes.clear()
    sol = solve_qp(problem, settings)
    return sol, {
        "status": sol.status,
        "iterations": sol.iterations,
        "message": sol.message,
        "objective": sol.objective,
        "x": sol.x.tolist(),
        "lossless": cfg.ess.eta_c == 1.0 and cfg.ess.eta_d == 1.0,
        "primal_inf": sol.residuals.primal_inf if sol.status == "optimal" else None,
        "band": _sites(band),
        "linprog": probes.get("linprog", 0),
    }


def _sites(band) -> dict:
    """A copy of the factor sites' counts of one solve."""
    return {site: dict(band.get(site, NO_BAND)) for site in SITES}


def _neighbours(model, base, band) -> dict:
    """run_scenario's neighbour solves of an optimal base, warm against cold."""
    from trimarket.analysis import solve_for_param

    moves = {"quota": model.quota + 1.0}
    if model.config.policy.r + 0.01 <= 1.0:
        moves["r"] = model.config.policy.r + 0.01
    out = {}
    for param, value in moves.items():
        band.clear()
        _, warm = solve_for_param(model, param, value, start=base)
        band_warm = _sites(band)
        band.clear()
        _, cold = solve_for_param(model, param, value)
        out[param] = {"warm": warm.status == "optimal" and warm.iterations == 0,
                      "gap": warm.objective - cold.objective,
                      "band_warm": band_warm, "band_cold": _sites(band)}
    return out


def _count_calls(qp, name) -> dict:
    """Wrap qp.<name> so that each call counts under name."""
    counts, real = {}, getattr(qp, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return real(*args, **kwargs)

    setattr(qp, name, counted)
    return counts


def _count_band(qp) -> dict:
    """Wrap qp's band factors, solves and orderings: count per site.

    The wrapped calls are qp.dpbtrf, qp.dtbtrs, qp._Kkt.factor,
    qp._Kkt.shifted_solve, qp._Kkt.solve and qp.reverse_cuthill_mckee.

    A call is the polish's whenever _polish is running (it factors through
    _Kkt.factor, as the interior point does), and the interior point's
    otherwise; the interior point's factors, solves and sweeps count
    under "ipm_cholesky" and its orderings under "ipm", and every call of
    the polish under "polish".  Each factor is counted with its
    dimensions, its store and whether it reported a pivot that is not
    positive; each _Kkt.factor that raises RuntimeError is a breakdown.
    Each band solve counts once, and a _Kkt.solve's band solves past its
    first as refinement steps.  Each dtbtrs call counts with its
    right-hand side's columns.
    """
    band, depth, order = {}, [0], qp.reverse_cuthill_mckee
    polish, cholesky, sweep = qp._polish, qp.dpbtrf, qp.dtbtrs
    factor, shifted, refined = qp._Kkt.factor, qp._Kkt.shifted_solve, qp._Kkt.solve

    def site(kind="_cholesky"):
        return band.setdefault("polish" if depth[0] else "ipm" + kind,
                               dict.fromkeys(BAND_KEYS, 0))

    def wrapped(*args, **kwargs):
        depth[0] += 1
        try:
            return polish(*args, **kwargs)
        finally:
            depth[0] -= 1

    def cholesky_counted(ab, **kwargs):
        counts, out = site(), cholesky(ab, **kwargs)
        counts["factors"] += 1
        counts["dim"] = max(counts["dim"], ab.shape[1])
        counts["bw"] = max(counts["bw"], ab.shape[0] - 1)
        counts["total_dim"] += ab.shape[1]
        counts["stored"] += ab.size
        counts["replaced"] += out[-1] > 0
        return out

    def factor_counted(kkt):
        try:
            return factor(kkt)
        except RuntimeError:
            site()["breakdowns"] += 1
            raise

    def shifted_counted(kkt, vec):
        site()["solves"] += 1
        return shifted(kkt, vec)

    def refined_counted(kkt, *args, **kwargs):
        counts = site()
        before = counts["solves"]
        try:
            return refined(kkt, *args, **kwargs)
        finally:
            counts["refinements"] += max(counts["solves"] - before - 1, 0)

    def ordered(*args, **kwargs):
        site("")["orderings"] += 1
        return order(*args, **kwargs)

    def swept(ab, b, **kwargs):
        counts = site()
        counts["dtbtrs"] += 1
        counts["dtbtrs_cols"] += b.shape[1] if b.ndim == 2 else 1
        return sweep(ab, b, **kwargs)

    qp._polish = wrapped
    qp._Kkt.factor = factor_counted
    qp.dpbtrf = cholesky_counted
    qp.dtbtrs = swept
    qp._Kkt.shifted_solve = shifted_counted
    qp._Kkt.solve = refined_counted
    qp.reverse_cuthill_mckee = ordered
    return band


def dump(out: str) -> None:
    import trimarket.qp as qp
    from _instances import build, random_instance

    band = _count_band(qp)
    probes = _count_calls(qp, "linprog")
    records = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for seed in range(600):
            for r_min in (0.0, 0.95):
                cfg, data = random_instance(seed, r_min=r_min)
                _, problem = build(cfg, data)
                for max_iter in (200, 8):
                    key = f"random/{seed}/r_min={r_min}/max_iter={max_iter}"
                    _, records[key] = _record(cfg, problem, qp.SolverSettings(max_iter=max_iter),
                                              band, probes)
        for name, cfg, data in _synth_cases():
            model, problem = build(cfg, data)
            with qp.kkt_pattern_scope():
                sol, records[name] = _record(cfg, problem, qp.SolverSettings(), band, probes)
                if sol.status == "optimal":
                    records[name]["neighbours"] = _neighbours(model, sol, band)
    Path(out).write_text(json.dumps(records))
    print(f"{len(records)} solves written to {out}")


def _same_objective(a: float, b: float) -> bool:
    if a != a or b != b:  # NaN objective on every non-optimal status
        return a != a and b != b
    return abs(a - b) <= 1e-8 * max(1.0, abs(a), abs(b))


def _factors(r: dict) -> int:
    """The factorizations of one solve."""
    return sum(site["factors"] for site in r["band"].values())


def _neighbour_bands(d: dict) -> list:
    """The factor sites of every neighbour solve in a dump."""
    return [n[k] for r in d.values() for n in r.get("neighbours", {}).values()
            for k in ("band_warm", "band_cold")]


def _sweeps(counts: list) -> str:
    """The dtbtrs calls and right-hand-side columns summed over per-site counts."""
    return (f"dtbtrs {sum(c['dtbtrs'] for c in counts)} "
            f"({sum(c['dtbtrs_cols'] for c in counts)})")


def compare(path_a: str, path_b: str) -> None:
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    if a.keys() != b.keys():
        sys.exit(f"the dumps hold different solves ({len(a)} vs {len(b)})")
    for label, keys in (("all", list(a)), ("lossless", [k for k in a if a[k]["lossless"]])):
        counts = dict.fromkeys(("status", "iterations", "message", "objective"), 0)
        max_dx = 0.0
        for k in keys:
            ra, rb = a[k], b[k]
            for field in ("status", "iterations", "message"):
                counts[field] += ra[field] != rb[field]
            counts["objective"] += not _same_objective(ra["objective"], rb["objective"])
            if ra["status"] == rb["status"]:
                dx = max((abs(u - v) for u, v in zip(ra["x"], rb["x"])), default=0.0)
                max_dx = max(max_dx, dx)
        mism = ", ".join(f"{n} {c}" for n, c in counts.items())
        print(f"{label}: {len(keys)} solves; mismatches: {mism}; max |dx| {max_dx:.3g}")
    moves = {k: max((abs(u - v) for u, v in zip(a[k]["x"], b[k]["x"])), default=0.0)
             for k in a if a[k]["status"] == b[k]["status"] == "optimal"}
    largest = sorted((dx, k) for k, dx in moves.items() if dx > 0)[::-1][:5]
    moved = [dx for dx in moves.values() if dx > 0]
    print(f"optimal in both: {len(moves)} solves; x moved in {len(moved)}, "
          f"beyond 1e-9 in {sum(dx > 1e-9 for dx in moved)}; largest: "
          + (", ".join(f"{k} {dx:.3g}" for dx, k in largest) or "none"))
    transitions = {}
    for k in a:
        if a[k]["status"] != b[k]["status"]:
            t = f"{a[k]['status']} -> {b[k]['status']}"
            transitions[t] = transitions.get(t, 0) + 1
    print("status transitions: "
          + (", ".join(f"{t}: {n}" for t, n in sorted(transitions.items())) or "none"))
    for label, d in (("A", a), ("B", b)):
        by_status = {}
        for r in d.values():
            it, pr = by_status.get(r["status"], (0, 0))
            by_status[r["status"]] = (it + r["iterations"], pr + r["linprog"])
        totals = "; ".join(f"{st} {it} iterations, {pr} probes"
                           for st, (it, pr) in sorted(by_status.items()))
        neighbours = _neighbour_bands(d)
        every = [r["band"] for r in d.values()] + neighbours
        print(f"{label}: {totals}; "
              f"{sum(s['factors'] for b in every for s in b.values())} factorizations, "
              f"{sum(s['solves'] for b in every for s in b.values())} band solves "
              f"({sum(s['refinements'] for b in every for s in b.values())} "
              f"refinement steps); triangular sweeps (right-hand-side columns): "
              + _sweeps([s for b in every for s in b.values()]))
        for site in SITES:
            bands = [b[site] for b in every]
            print(f"{label} {site}: {sum(b['factors'] for b in bands)} band factors; "
                  f"dimension largest {max(b['dim'] for b in bands)}, total "
                  f"{sum(b['total_dim'] for b in bands)}; largest bandwidth "
                  f"{max(b['bw'] for b in bands)}; {sum(b['stored'] for b in bands)} "
                  f"stored entries; {sum(b['replaced'] for b in bands)} replaced pivots, "
                  f"{sum(b['breakdowns'] for b in bands)} breakdowns; "
                  f"{sum(b['solves'] for b in bands)} band solves "
                  f"({sum(b['refinements'] for b in bands)} refinement steps; "
                  f"{_sweeps(bands)}); "
                  f"{sum(b['orderings'] for b in bands)} orderings, "
                  f"{sum(b[site]['orderings'] for b in neighbours)} "
                  f"of them in {len(neighbours)} neighbour solves")
        by_message = {}
        for r in d.values():
            if r["status"] != "optimal":
                n, pr = by_message.get(r["message"], (0, 0))
                by_message[r["message"]] = (n + 1, pr + r["linprog"])
        print(f"{label} probes by message: " + "; ".join(
            f"{msg!r} {pr} in {n} solves" for msg, (n, pr) in sorted(by_message.items())))
        worst = max((r["primal_inf"] for r in d.values() if r["status"] == "optimal"), default=0.0)
        print(f"{label}: largest optimal primal residual {worst:.3g}")
        orderings = [sum(s["orderings"] for s in r["band"].values()) for r in d.values()]
        print(f"{label}: {sum(orderings)} orderings in {len(d)} solves "
              f"({sum(orderings) / len(d):.3f} per solve, at most {max(orderings)} in one)")
    changed_by_status = {}
    changed = [k for k in a if a[k]["iterations"] != b[k]["iterations"]]
    for k in changed:
        st = a[k]["status"] if a[k]["status"] == b[k]["status"] else "status changed"
        changed_by_status[st] = changed_by_status.get(st, 0) + 1
    by_status = ", ".join(f"{st} {n}" for st, n in sorted(changed_by_status.items())) or "none"
    print(f"solves whose iterations changed: {by_status}")
    histograms = {}
    for k in changed:
        st = a[k]["status"] if a[k]["status"] == b[k]["status"] else "status changed"
        delta = b[k]["iterations"] - a[k]["iterations"]
        histograms.setdefault(st, {})[delta] = histograms.setdefault(st, {}).get(delta, 0) + 1
    for st, hist in sorted(histograms.items()):
        print(f"  {st}, B - A: " + ", ".join(f"{d:+d}: {n}" for d, n in sorted(hist.items())))
    for k in a:
        ra, rb = a[k], b[k]
        if ra["status"] != rb["status"]:
            print(f"  {k}: {ra['status']} -> {rb['status']}, "
                  f"{ra['iterations']} -> {rb['iterations']} iterations")
        elif rb["iterations"] > ra["iterations"]:
            print(f"  {k}: {ra['iterations']} -> {rb['iterations']} iterations")
    probes = [k for k in a if a[k]["linprog"] != b[k]["linprog"]]
    print(f"solves whose probe count changed: {len(probes)}")
    for k in probes:
        print(f"  {k}: {a[k]['linprog']} -> {b[k]['linprog']} probes")
    polished = {k: (a[k]["band"]["polish"]["factors"], b[k]["band"]["polish"]["factors"])
                for k in a}
    changed = [k for k, (u, v) in polished.items() if u != v]
    print(f"polish factorizations: {sum(u for u, _ in polished.values())} vs "
          f"{sum(v for _, v in polished.values())}; {len(changed)} solves changed count")
    for k in changed:
        print(f"  {k}: {polished[k][0]} -> {polished[k][1]}")
    for label, d in (("A", a), ("B", b)):
        solves = [n for r in d.values() for n in r.get("neighbours", {}).values()]
        warm = sum(n["warm"] for n in solves)
        gap = max((abs(n["gap"]) for n in solves if n["warm"]), default=0.0)
        print(f"{label}: {warm} of {len(solves)} neighbour solves answered warm; "
              f"largest |warm - cold| objective gap among them {gap:.3g}")


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "dump":
        dump(sys.argv[2])
    elif len(sys.argv) == 4 and sys.argv[1] == "compare":
        compare(sys.argv[2], sys.argv[3])
    else:
        sys.exit(__doc__)
