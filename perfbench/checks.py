"""Output checks: every command's output against the reference recorded for
the same workload variant.

``summarize`` reduces one output file to the numbers that are checked;
``check`` compares such a summary with the recorded one and returns a list of
problems (empty when the output passes).  Byte identity with the reference
is reported separately by the caller (``sha256``) and never fails a check.

Tolerances:

- probs: each probability within 1e-9 relative (absolute floor 1e-15 of the
  table's largest entry); normalized entries equal probabilities / sum to
  1e-12; p_vac within 1e-10 relative; pattern lists identical.
- compare: each TVD within 1e-8 relative (floor 1e-12).  The likelihood is
  held to 1e-8 when the samples CSV it read is byte-identical to the
  reference's, and otherwise its sample count must lie within 6 sigma.
- sample: row count exact, and the per-pattern counts a plausible draw from
  the distribution the sampler must draw from: the reference ``probs``
  probabilities of the collision-free patterns with N <= n_max, p_vac for
  N=0 and the rest of the mass for discards.  A pattern of probability 0
  (N > n_max, a collision, a mode beyond d) fails at once.  Then two
  chi-square goodness-of-fit tests, one over the patterns and one over the
  photon numbers (and discards), which sees a shift between sectors that
  the many pattern cells dilute.  Cells expected fewer than 5 times are
  pooled, first within their photon number, then together.  A test fails
  when the Wilson-Hilferty z of its statistic exceeds 5 (a false alarm
  about once in 3.5 million draws).  A last-bit change of a probability may
  flip a few pulses, so no byte check.
- simulate: header and row labels identical; for every (setting, modes) row
  label the sum over phi of the counts and its cos(2 phi) and sin(2 phi)
  components within 6 sigma (two independent Poisson draws) plus 1.
- reconstruct: when the records CSV it read is byte-identical to the
  reference's, B, C and gamma within 1e-9 of the largest entry and flags
  identical.  Otherwise the records carry another shot-noise draw, and only
  gamma and diag C are held, to 2% of their largest entry: between two
  noise draws at 1e8 pulses they moved by 0.1-0.2%, while single entries of
  B and off-diagonal C moved by 40% and 120% of the largest entry.
- lock: gains, residual std and every traced phase within 1e-6 relative
  (absolute 1e-6 for phases); pairs, divergence flag and times identical.
- oracle: engine and oracle values within 1e-9 relative; they must also
  agree with each other within 1e-6.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math

PROB_RTOL = 1e-9
PROB_FLOOR = 1e-15
NORM_TOL = 1e-12
PVAC_RTOL = 1e-10
TVD_RTOL = 1e-8
LIKELIHOOD_TOL = 1e-8
SIGMAS = 6.0
GOF_MIN_EXPECTED = 5.0
GOF_Z = 5.0
RECON_EXACT_TOL = 1e-9
RECON_NOISE_TOL = 0.02
LOCK_RTOL = 1e-6
ORACLE_RTOL = 1e-9
ORACLE_AGREEMENT = 1e-6
DIGITS = 13  # significant digits kept in recorded references


def sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _r(x: float) -> float:
    return float(f"{x:.{DIGITS}g}")


def _cplx(rows) -> list:
    return [[[_r(re), _r(im)] for re, im in row] for row in rows]


# ---------------------------------------------------------------------------
# summaries

def summarize(name: str, path: str) -> dict:
    """Reduce one command output file to the numbers the check compares."""
    summary = {"sha256": sha256(path)}
    summary.update(SUMMARIZERS[name](path))
    return summary


def _probs(path):
    obj = json.load(open(path))
    dists = {}
    for total, dist in obj["distributions"].items():
        probs = dist["probabilities"]
        s = sum(probs)
        norm_err = max((abs(q - (p / s if s > 0 else p))
                        for p, q in zip(probs, dist["normalized"])),
                       default=0.0)
        dists[total] = {
            "patterns_sha": hashlib.sha256(
                ",".join(dist["patterns"]).encode()).hexdigest()[:16],
            "probabilities": [_r(p) for p in probs],
            "norm_err": norm_err,
        }
    return {"model": obj["model"], "p_vac": obj["p_vac"],
            "distributions": dists}


def _compare(path):
    obj = json.load(open(path))
    return {"tvd_by_total": obj["tvd_by_total"],
            "likelihood": obj.get("likelihood")}


def _sample(path):
    header = None
    rows = 0
    patterns = {}
    with open(path) as f:
        for line in f:
            if line.startswith("#"):
                header = line.strip()
                continue
            if line.startswith("pulse,"):
                continue
            rows += 1
            mask = line.split(",", 2)[1]
            patterns[mask] = patterns.get(mask, 0) + 1
    return {"header": header, "rows": rows,
            "patterns": dict(sorted(patterns.items()))}


def _simulate(path):
    with open(path) as f:
        lines = f.read().splitlines()
    header = lines[0] if lines and lines[0].startswith("#") else None
    reader = csv.reader(lines[1:] if header else lines)
    if next(reader) != ["setting", "phi", "modes", "counts", "pulses"]:
        raise ValueError("records CSV header changed")
    stats: dict = {}
    for setting, phi, modes, count, pulses in reader:
        c = float(count)
        p = 0.0 if phi == "" else float(phi)
        s = stats.setdefault(f"{setting}/{modes}", [0.0, 0.0, 0.0, 0, pulses])
        s[0] += c
        s[1] += c * math.cos(2 * p)
        s[2] += c * math.sin(2 * p)
        s[3] += 1
    return {"header": header,
            "stats": {k: [_r(v[0]), _r(v[1]), _r(v[2]), v[3], v[4]]
                      for k, v in sorted(stats.items())}}


def _reconstruct(path):
    obj = json.load(open(path))
    return {"d": obj["d"], "b": _cplx(obj["b"]), "c": _cplx(obj["c"]),
            "gamma": [_r(g) for g in obj["gamma"]],
            "flags": obj["flags"], "fallback_entries": obj["fallback_entries"]}


def _lock(path):
    obj = json.load(open(path))
    return {k: obj[k] for k in ("gains", "setpoint", "residual_std",
                                "diverged", "pairs", "duration", "seed")} | {
        "trace_phi": [_r(p) for p in obj["trace_phi"]],
        "trace_times": [_r(t) for t in obj["trace_times"]]}


def _oracle(path):
    obj = json.load(open(path))
    return {k: obj[k] for k in ("pattern", "engine", "oracle", "abs_diff")}


SUMMARIZERS = {"probs": _probs, "compare": _compare, "sample": _sample,
               "simulate": _simulate, "reconstruct": _reconstruct,
               "lock": _lock, "oracle": _oracle}


# ---------------------------------------------------------------------------
# comparison with the reference

def _close(got, want, rtol, floor=0.0) -> bool:
    return abs(got - want) <= rtol * abs(want) + floor


def check(cmd: dict, got: dict, reference: dict,
          input_identical: bool = True) -> list:
    """Problems found comparing the summary ``got`` of command ``cmd`` (a
    workload spec entry) with the workload's recorded ``reference``
    ({command name: summary}).

    ``input_identical`` says whether the file the command read (the samples
    CSV for compare, the records CSV for reconstruct) was byte-identical to
    the one the reference command read.
    """
    name = cmd["name"]
    ref = reference.get(name)
    if ref is None:
        return [f"{name}: no reference recorded"]
    if name == "sample":
        problems = _check_sample(got, ref, cmd, reference.get("probs"))
    else:
        problems = CHECKERS[name](got, ref, input_identical, cmd)
    return [f"{name}: {p}" for p in problems]


def _check_probs(got, ref, _, cmd):
    out = []
    if got["model"] != ref["model"]:
        out.append(f"model {got['model']} != {ref['model']}")
    if not _close(got["p_vac"], ref["p_vac"], PVAC_RTOL):
        out.append(f"p_vac {got['p_vac']!r} != {ref['p_vac']!r}")
    if sorted(got["distributions"]) != sorted(ref["distributions"]):
        return out + ["photon-number sectors differ"]
    for total, want in ref["distributions"].items():
        have = got["distributions"][total]
        if have["patterns_sha"] != want["patterns_sha"]:
            out.append(f"N={total}: pattern list differs")
            continue
        if have["norm_err"] > NORM_TOL:
            out.append(f"N={total}: normalized != probabilities/sum "
                       f"({have['norm_err']:.1e})")
        floor = PROB_FLOOR * max(want["probabilities"], default=0.0)
        bad = [i for i, (p, q) in enumerate(zip(have["probabilities"],
                                                want["probabilities"]))
               if not _close(p, q, PROB_RTOL, floor)]
        if bad:
            i = bad[0]
            out.append(f"N={total}: {len(bad)} probabilities off, first #{i} "
                       f"{have['probabilities'][i]!r} vs "
                       f"{want['probabilities'][i]!r}")
    return out


def _sigma_ok(got: float, want: float, var: float, slack: float) -> bool:
    return abs(got - want) <= SIGMAS * math.sqrt(2 * max(var, 0.0)) + slack


def _check_compare(got, ref, input_identical, cmd):
    out = []
    if sorted(got["tvd_by_total"]) != sorted(ref["tvd_by_total"]):
        out.append("TVD photon-number sectors differ")
    else:
        for total, want in ref["tvd_by_total"].items():
            have = got["tvd_by_total"][total]
            if not _close(have, want, TVD_RTOL, 1e-12):
                out.append(f"TVD N={total}: {have!r} vs {want!r}")
    lg, lr = got["likelihood"], ref["likelihood"]
    if (lg is None) != (lr is None):
        return out + ["likelihood missing"]
    if lr is None:
        return out
    if input_identical:
        if (lg["samples"], lg["flagged"]) != (lr["samples"], lr["flagged"]):
            out.append(f"likelihood samples/flagged {lg['samples']}/"
                       f"{lg['flagged']} vs {lr['samples']}/{lr['flagged']}")
        if not _close(lg["log_ratio"], lr["log_ratio"], LIKELIHOOD_TOL,
                      LIKELIHOOD_TOL):
            out.append(f"log L {lg['log_ratio']!r} vs {lr['log_ratio']!r}")
    elif not _sigma_ok(lg["samples"], lr["samples"], lr["samples"], 2):
        out.append(f"likelihood sample count {lg['samples']} vs "
                   f"{lr['samples']}")
    if not math.isfinite(lg["log_ratio"]) and lg["flagged"] == 0:
        out.append("non-finite log L without flagged samples")
    return out


def _sector_patterns(d: int, total: int, patterns_sha: str):
    """The pattern strings of one ``probs`` sector, in the order whose hash
    the summary recorded: collision-free (combinations of modes) or with
    collisions (count tuples in lexicographic order).  None if neither."""
    free = ["".join("1" if i in modes else "0" for i in range(d))
            for modes in itertools.combinations(range(d), total)]
    for order in (free, ["".join(map(str, c))
                         for c in _compositions(d, total)]):
        if hashlib.sha256(",".join(order).encode()).hexdigest()[:16] \
                == patterns_sha:
            return order
    return None


def _compositions(d: int, total: int):
    if d == 1:
        yield (total,)
        return
    for c in range(total + 1):
        for rest in _compositions(d - 1, total - c):
            yield (c, *rest)


def sample_distribution(probs: dict, d: int, n_max: int) -> dict:
    """{bitmask hex or "discard": probability} that ``sample --n-max
    n_max`` draws from, built from a ``probs`` summary of the same state and
    model.  Mirrors the sampler: negative entries clipped, then normalized
    together with the discard mass."""
    dist = {"0": probs["p_vac"]}
    for total in range(1, n_max + 1):
        sector = probs["distributions"].get(str(total))
        if sector is None:
            if total <= d:
                raise ValueError(f"no N={total} probabilities recorded")
            continue
        names = _sector_patterns(d, total, sector["patterns_sha"])
        if names is None:
            raise ValueError(f"N={total}: unknown pattern order")
        for name, p in zip(names, sector["probabilities"]):
            if max(name) <= "1":
                dist[format(int(name[::-1], 2), "x")] = p
    dist["discard"] = max(0.0, 1.0 - sum(dist.values()))
    dist = {k: max(p, 0.0) for k, p in dist.items()}
    norm = sum(dist.values())
    return {k: p / norm for k, p in dist.items()}


def gof_z(cells) -> float:
    """Wilson-Hilferty z of the chi-square statistic of (group, expected,
    observed) cells, after pooling cells expected fewer than
    GOF_MIN_EXPECTED times: first within their group, then together (and
    into the smallest bin if still too small)."""
    bins, pools = [], {}
    for group, e, o in cells:
        if e >= GOF_MIN_EXPECTED:
            bins.append([e, o])
        else:
            pool = pools.setdefault(group, [0.0, 0])
            pool[0] += e
            pool[1] += o
    rest = [0.0, 0]
    for pool in pools.values():
        if pool[0] >= GOF_MIN_EXPECTED:
            bins.append(pool)
        else:
            rest[0] += pool[0]
            rest[1] += pool[1]
    if rest[0] >= GOF_MIN_EXPECTED or (bins == [] and rest[0] > 0):
        bins.append(rest)
    elif rest[0] > 0:
        smallest = min(bins)
        smallest[0] += rest[0]
        smallest[1] += rest[1]
    k = len(bins) - 1
    if k < 1:
        return 0.0
    x2 = sum((o - e) ** 2 / e for e, o in bins)
    return ((x2 / k) ** (1 / 3) - (1 - 2 / (9 * k))) / math.sqrt(2 / (9 * k))


def _check_sample(got, ref, cmd, probs):
    out = []
    if got["header"] != ref["header"]:
        out.append(f"header {got['header']!r} vs {ref['header']!r}")
    if got["rows"] != ref["rows"]:
        out.append(f"{got['rows']} rows vs {ref['rows']}")
    if probs is None or probs["model"] != "full":
        return out + ["no reference probs of the full model to test against"]
    try:
        dist = sample_distribution(probs, cmd["modes"], cmd["n_max"])
    except ValueError as exc:
        return out + [f"reference probs unusable: {exc}"]
    impossible = {k: c for k, c in got["patterns"].items()
                  if c and dist.get(k, 0.0) == 0.0}
    if impossible:
        k = sorted(impossible)[0]
        out.append(f"{sum(impossible.values())} pulses on patterns of "
                   f"probability 0, first {k!r}")
    n = got["rows"]

    cells = [(k if k == "discard" else bin(int(k, 16)).count("1"), n * p,
              got["patterns"].get(k, 0)) for k, p in dist.items()]
    sectors = {}
    for group, e, o in cells:
        sector = sectors.setdefault(group, [0.0, 0])
        sector[0] += e
        sector[1] += o
    for what, z in (("pattern", gof_z(cells)),
                    ("photon-number", gof_z((g, e, o) for g, (e, o)
                                            in sectors.items()))):
        if z > GOF_Z:
            out.append(f"{what} counts do not fit the reference distribution"
                       f" (chi-square z {z:.1f} > {GOF_Z})")
    return out


def _check_simulate(got, ref, _, cmd):
    out = []
    if got["header"] != ref["header"]:
        out.append(f"header {got['header']!r} vs {ref['header']!r}")
    if sorted(got["stats"]) != sorted(ref["stats"]):
        return out + ["record labels differ"]
    bad = []
    for label, want in ref["stats"].items():
        have = got["stats"][label]
        if have[3:] != want[3:]:
            bad.append(f"{label} layout")
            continue
        # counts are binomial, so their variance is below the count itself
        bad += [f"{label}[{i}] {have[i]!r} vs {want[i]!r}" for i in range(3)
                if not _sigma_ok(have[i], want[i], want[0], 1.0)]
    if bad:
        out.append(f"{len(bad)} record sums off, first {bad[0]}")
    return out


def _check_reconstruct(got, ref, input_identical, cmd):
    if got["d"] != ref["d"]:
        return [f"d {got['d']} vs {ref['d']}"]

    def flat(m):
        return [x for row in m for pair in row for x in pair]

    def diag(m):
        return [m[i][i][0] for i in range(len(m))]

    if input_identical:
        tol = RECON_EXACT_TOL
        parts = (("b", flat(got["b"]), flat(ref["b"])),
                 ("c", flat(got["c"]), flat(ref["c"])),
                 ("gamma", got["gamma"], ref["gamma"]))
    else:
        tol = RECON_NOISE_TOL
        parts = (("diag c", diag(got["c"]), diag(ref["c"])),
                 ("gamma", got["gamma"], ref["gamma"]))
    out = []
    for key, have, want in parts:
        scale = max(abs(x) for x in want)
        worst = max(abs(h - w) for h, w in zip(have, want))
        if worst > tol * scale:
            out.append(f"{key} off by {worst:.3e} (scale {scale:.3e})")
    if input_identical and (got["flags"], got["fallback_entries"]) != \
            (ref["flags"], ref["fallback_entries"]):
        out.append("flags differ")
    return out


def _check_lock(got, ref, _, cmd):
    out = []
    for key in ("pairs", "diverged", "duration", "seed", "trace_times"):
        if got[key] != ref[key]:
            out.append(f"{key} differs")
    for key in ("kp", "ki", "kd"):
        if not _close(got["gains"][key], ref["gains"][key], LOCK_RTOL, 1e-12):
            out.append(f"gain {key} {got['gains'][key]!r} vs "
                       f"{ref['gains'][key]!r}")
    for key in ("setpoint", "residual_std"):
        if not _close(got[key], ref[key], LOCK_RTOL):
            out.append(f"{key} {got[key]!r} vs {ref[key]!r}")
    if len(got["trace_phi"]) != len(ref["trace_phi"]) or any(
            not _close(p, q, LOCK_RTOL, LOCK_RTOL)
            for p, q in zip(got["trace_phi"], ref["trace_phi"])):
        out.append("phase trace differs")
    return out


def _check_oracle(got, ref, _, cmd):
    out = []
    if got["pattern"] != ref["pattern"]:
        out.append("pattern differs")
    for key in ("engine", "oracle"):
        if not _close(got[key], ref[key], ORACLE_RTOL):
            out.append(f"{key} {got[key]!r} vs {ref[key]!r}")
    if not abs(got["engine"] - got["oracle"]) <= ORACLE_AGREEMENT:
        out.append(f"engine and oracle disagree by {got['abs_diff']!r}")
    return out


CHECKERS = {"probs": _check_probs, "compare": _check_compare,
            "simulate": _check_simulate,
            "reconstruct": _check_reconstruct, "lock": _check_lock,
            "oracle": _check_oracle}
