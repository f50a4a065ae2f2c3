"""Differential corpus for solve_qp: dump one tree's answers, compare two dumps.

    python tests/solver_corpus.py dump OUT.json
    python tests/solver_corpus.py compare A.json B.json

``dump`` solves 2426 problems with the ``trimarket`` package found on the
import path (set ``PYTHONPATH`` to pick a checkout) and writes, per solve,
the status, iteration count, message, objective and primal vector, the
primal residual (``residuals.primal_inf``) of an optimal answer, and how
many ``qp.linprog`` probes it ran.  Per factor site (the interior point's
band factor ``ipm``, its partial-pivot ``fallback`` and the ``polish``,
told apart by the ``_Kkt.band_factor``, ``_Kkt.fallback_factor`` or
``_polish`` call each ``qp.dgbtrf`` call runs in) it records the band
factors made, the largest band dimension (a factored matrix's rows less
its bordered coupling rows) and bandwidth among them (0 when none), the
total band dimension, and the stored band entries, (3 bw + 1) times the
dimension, summed over the factors.  The
corpus is ``random_instance`` seeds 0-599 x {default, ``r_min=0.95``} x
``max_iter`` {200, 8}, plus 26 synth-data solves at T=168-672: default,
uncapped, r = 0.995, an unmeetable REC floor, and two with lossy storage.
For each synth case with an optimal answer it also solves the neighbours
``run_scenario`` solves in full mode (quota + 1, and r + 0.01 where r
leaves room), once warm-started from that answer and once cold, and
records under ``neighbours`` whether the warm solve was answered from the
start's active set (``iterations == 0``) and its objective minus the cold
one.  It takes about 40 s on a 2-core VM.

``compare`` prints the status, iteration, message and objective (1e-8
relative) mismatch counts and the largest |dx| over solves with the same
status, for all solves and for the lossless-storage ones (eta_c = eta_d =
1) alone, then each status transition from A to B with its count.  Then,
for each tree, the iteration and probe totals by status and the total
factorizations; per site, the band factors with the largest and total
band dimension, the largest bandwidth and the stored entries; and the
largest primal residual of an optimal answer.  Then the number of solves
whose iteration count changed, by status; per status, a histogram of the
change (B - A); and each solve that changed status or whose count rose.
Then both trees' totals of fallback plus polish factorizations, and each
solve whose count changed.  Last, per tree, how many neighbour solves were
answered warm and the largest warm-minus-cold objective gap among those.
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


SITES = {"band_factor": "ipm", "fallback_factor": "fallback", "_polish": "polish"}
BAND_KEYS = ("factors", "dim", "bw", "total_dim", "stored")


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
        "band": {site: band.get(site, dict.fromkeys(BAND_KEYS, 0)) for site in SITES.values()},
        "linprog": probes.get("linprog", 0),
    }


def _neighbours(model, base) -> dict:
    """run_scenario's neighbour solves of an optimal base, warm against cold."""
    from trimarket.analysis import solve_for_param

    moves = {"quota": model.quota + 1.0}
    if model.config.policy.r + 0.01 <= 1.0:
        moves["r"] = model.config.policy.r + 0.01
    out = {}
    for param, value in moves.items():
        _, warm = solve_for_param(model, param, value, start=base)
        _, cold = solve_for_param(model, param, value)
        out[param] = {"warm": warm.status == "optimal" and warm.iterations == 0,
                      "gap": warm.objective - cold.objective}
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
    """Wrap qp.dgbtrf: count its calls per factor site, with their dimensions and stores.

    The site is the innermost of _Kkt.band_factor, _Kkt.fallback_factor
    and _polish running at the call.
    """
    band, stack, real = {}, [], qp.dgbtrf

    def entered(name, method):
        def wrapped(*args, **kwargs):
            stack.append(SITES[name])
            try:
                return method(*args, **kwargs)
            finally:
                stack.pop()
        return wrapped

    def counted(ab, kl, ku, **kwargs):
        site = band.setdefault(stack[-1], dict.fromkeys(BAND_KEYS, 0))
        site["factors"] += 1
        site["dim"] = max(site["dim"], ab.shape[1])
        site["bw"] = max(site["bw"], kl, ku)
        site["total_dim"] += ab.shape[1]
        site["stored"] += ab.size
        return real(ab, kl, ku, **kwargs)

    for owner, name in ((qp._Kkt, "band_factor"), (qp._Kkt, "fallback_factor"), (qp, "_polish")):
        setattr(owner, name, entered(name, getattr(owner, name)))
    qp.dgbtrf = counted
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
            sol, records[name] = _record(cfg, problem, qp.SolverSettings(), band, probes)
            if sol.status == "optimal":
                records[name]["neighbours"] = _neighbours(model, sol)
    Path(out).write_text(json.dumps(records))
    print(f"{len(records)} solves written to {out}")


def _same_objective(a: float, b: float) -> bool:
    if a != a or b != b:  # NaN objective on every non-optimal status
        return a != a and b != b
    return abs(a - b) <= 1e-8 * max(1.0, abs(a), abs(b))


def _factors(r: dict) -> int:
    """The factorizations of one solve."""
    return sum(site["factors"] for site in r["band"].values())


def _fallback_and_polish(r: dict) -> int:
    return r["band"]["fallback"]["factors"] + r["band"]["polish"]["factors"]


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
        print(f"{label}: {totals}; {sum(_factors(r) for r in d.values())} factorizations")
        for site in SITES.values():
            bands = [r["band"][site] for r in d.values()]
            print(f"{label} {site}: {sum(b['factors'] for b in bands)} band factors; "
                  f"dimension largest {max(b['dim'] for b in bands)}, total "
                  f"{sum(b['total_dim'] for b in bands)}; largest bandwidth "
                  f"{max(b['bw'] for b in bands)}; {sum(b['stored'] for b in bands)} "
                  f"stored entries")
        worst = max((r["primal_inf"] for r in d.values() if r["status"] == "optimal"), default=0.0)
        print(f"{label}: largest optimal primal residual {worst:.3g}")
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
    partial = {k: (_fallback_and_polish(a[k]), _fallback_and_polish(b[k])) for k in a}
    changed = [k for k, (u, v) in partial.items() if u != v]
    print(f"fallback + polish factorizations: {sum(u for u, _ in partial.values())} vs "
          f"{sum(v for _, v in partial.values())}; {len(changed)} solves changed count")
    for k in changed:
        print(f"  {k}: {partial[k][0]} -> {partial[k][1]}")
    for label, d in (("A", a), ("B", b)):
        solves = [n for r in d.values() for n in r.get("neighbours", {}).values()]
        if not solves:
            print(f"{label}: no neighbour solves recorded")
            continue
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
