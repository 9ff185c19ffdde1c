"""Turns one tzbench record into the benchmark's metrics.

Conventions:
- Percentiles interpolate linearly between closest ranks: the p-quantile of
  n sorted samples sits at rank p * (n - 1), 0-based (numpy's "linear",
  Excel's PERCENTILE.INC).
- A percentile is reported only where at least MIN_BEYOND samples lie beyond
  it, i.e. at sorted indices above its rank.
- Library counters are cumulative per TA (ServeStats' paging/prefix fields,
  KvArena::prefix_stats(), KvPagePool::stats()), so every count is a delta
  between snapshots taken at a unit's boundaries.
- Counts per unit (a cold start or a burst) average over the first cycle of
  unit types, which every run completes, so they repeat exactly across runs
  of one seed however many units a run fits in.
"""

import math
import statistics

MIN_BEYOND = 10

# Per-layer metrics: name -> (unit, better, the end-to-end metric it should
# move and the workload it should move it on). Order is the report's.
PER_LAYER = {
    "core.load_model_ms.p50": ("ms", "lower", "ttft_ms.p50 on cold-start"),
    "core.restore_mbps": ("MB/s", "higher", "ttft_ms.p50 on cold-start"),
    "core.first_prefill_ms.p50": ("ms", "lower", "ttft_ms.p50 on cold-start"),
    "core.decode_ms_per_tok.p50": ("ms", "lower", "itl_ms.p50 on cold-start"),
    "core.unload_ms.p50": ("ms", "lower", "tokens_per_s on cold-start"),
    "tee.npu_jobs": ("count", "lower", "ttft_ms.p50 on cold-start"),
    "hw.smc_round_trips": ("count", "lower", "ttft_ms.p50 on cold-start"),
    "tee.params_mb": ("MB", "lower", "secure_mem_mb on all"),
    "tee.scratch_mb": ("MB", "lower", "secure_mem_mb on all"),
    "serve.tick_ms.p50": ("ms", "lower", "itl_ms.* on chat-serve"),
    "serve.tick_ms.p90": ("ms", "lower", "itl_ms.* on chat-serve"),
    "serve.decode_ms.p50": ("ms", "lower",
                            "itl_ms.p50, tokens_per_s on chat-serve"),
    "serve.other_ms.p90": ("ms", "lower",
                           "itl_ms.p90, ttft_ms.p50 on chat-serve"),
    "serve.batch.p50": ("count", "higher", "tokens_per_s on chat-serve"),
    "serve.preemptions": ("count", "lower", "ttft_ms.p90 on chat-serve"),
    "serve.ticks": ("count", "lower", "tokens_per_s on chat-serve"),
    "llm.decode_weight_gbps": ("GB/s", "higher",
                               "tokens_per_s on chat-serve"),
    "llm.prefix_hit_frac": ("frac", "higher", "ttft_ms.p50 on chat-serve"),
    "llm.prefix_token_frac": ("frac", "higher", "ttft_ms.p50 on chat-serve"),
    "llm.cow_copies": ("count", "lower", "itl_ms.p50 on chat-serve"),
    # The spill figures come from the traced chat-serve run's spill probe;
    # no timed phase spills, so no end-to-end metric reflects them.
    "llm.kv_spills": ("count", "lower", "none (chat-serve spill probe)"),
    "llm.kv_restores": ("count", "lower", "none (chat-serve spill probe)"),
    "llm.kv_crypto_mb": ("MB", "lower", "none (chat-serve spill probe)"),
    "llm.kv_resident_mb.max": ("MB", "lower", "secure_mem_mb on chat-serve"),
    "llm.kv_reserved_mb": ("MB", "lower", "secure_mem_mb on chat-serve"),
    "req.sent": ("count", "higher", "tokens_per_s on all"),
    "req.ok": ("count", "higher", "failures on all"),
    "req.failed": ("count", "lower", "failures on all (0 when clean)"),
    "llm.kv_pages_lost": ("count", "lower", "failures on all (0 when clean)"),
    "tee.npu_jobs_recovered": ("count", "lower",
                               "failures on all (0 when clean)"),
    "crypto.aes_ctr_mbps": ("MB/s", "higher",
                            "ceiling for core.restore_mbps and spill crypto"),
    "crypto.sha256_mbps": ("MB/s", "higher",
                           "ceiling for core.restore_mbps and spill crypto"),
    "host.stream_gbps": ("GB/s", "higher",
                         "ceiling for llm.decode_weight_gbps"),
    "host.ref_ms.start": ("ms", "lower", "host drift diagnostic"),
    "host.ref_ms.end": ("ms", "lower", "host drift diagnostic"),
    "trace.overhead_frac.tokens_per_s": ("frac", "lower",
                                         "tracer cost on all"),
    "trace.overhead_frac.ttft_ms.p50": ("frac", "lower",
                                        "tracer cost on all"),
}

# Counts that must repeat exactly across runs of one seed, traced or not.
STABLE_COUNTS = ("tee.npu_jobs", "hw.smc_round_trips", "serve.ticks",
                 "serve.preemptions", "llm.kv_spills", "llm.kv_restores")

SPAN_FIELDS = ("name", "phase", "start_ns", "end_ns", "parent", "req", "sess",
               "bytes", "tokens", "inner_ns")
TIMED_PHASE = 1


def beyond(n, p):
    """Samples lying above the p-quantile's rank among n samples."""
    return n - 1 - math.floor(p * (n - 1)) if n else 0


def supported(n, p):
    return beyond(n, p) >= MIN_BEYOND


def percentile(values, p):
    """Linear interpolation between closest ranks; rank p * (n - 1)."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    rank = p * (len(xs) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def delta(before, after):
    """Per-unit counter deltas; cumulative counters never go backwards."""
    out = {}
    for key, end in after.items():
        d = end - before.get(key, 0)
        if d < 0:
            raise ValueError(f"counter {key} went backwards: "
                             f"{before.get(key, 0)} -> {end}")
        out[key] = d
    return out


def first_cycle(units, cycle):
    """Deltas of the first `cycle` units (one of each unit type)."""
    if len(units) < cycle:
        raise ValueError(f"run completed {len(units)} units, fewer than one "
                         f"cycle of {cycle}")
    return [delta(u["before"], u["after"]) for u in units[:cycle]]


def mean_count(deltas, key):
    return sum(d[key] for d in deltas) / len(deltas)


def end_to_end(rec):
    """The untraced run's metrics: name -> (value, samples)."""
    units = rec["units"]
    ttft = [x for u in units for x in u["ttft_ms"]]
    itl = [x for u in units for x in u["itl_ms"]]
    out_tokens = sum(u["out_tokens"] for u in units)
    metrics = {
        "setup_s": (statistics.median(rec["setup_s"]), len(rec["setup_s"])),
        "ttft_ms.p50": (percentile(ttft, 0.5), len(ttft)),
        "itl_ms.p50": (percentile(itl, 0.5), len(itl)),
        "itl_ms.p90": (percentile(itl, 0.9), len(itl)),
        "tokens_per_s": (out_tokens / rec["timed_s"], out_tokens),
        "secure_mem_mb": ((rec["params_peak_bytes"] +
                           rec["scratch_peak_bytes"]) / 1e6, 1),
        "peak_rss_mb": (rec["peak_rss_bytes"] / 1e6, 1),
    }
    for name, (p, samples) in (("ttft_ms.p50", (0.5, ttft)),
                               ("itl_ms.p50", (0.5, itl)),
                               ("itl_ms.p90", (0.9, itl))):
        if not supported(len(samples), p):
            raise ValueError(f"{name}: {len(samples)} samples leave fewer "
                             f"than {MIN_BEYOND} beyond it")
    return metrics


def tail_report(rec):
    """Percentiles the sample supports beyond the contract's (report only)."""
    ttft = [x for u in rec["units"] for x in u["ttft_ms"]]
    out = {}
    if supported(len(ttft), 0.9):
        out["ttft_ms.p90"] = (percentile(ttft, 0.9), len(ttft))
    return out


def spans_by_name(rec, name):
    """Spans called `name` from the timed phase, or from the whole run when
    the timed phase never calls that layer (it then ran only in setup or the
    after-run probe)."""
    spans = [dict(zip(SPAN_FIELDS, s)) for s in rec["spans"]
             if s[0] == name]
    timed = [s for s in spans if s["phase"] == TIMED_PHASE]
    return timed or spans


def ms(span):
    return (span["end_ns"] - span["start_ns"]) / 1e6


def group_rate(units):
    """(tokens/s, ttft p50) over a set of units."""
    wall = sum(u["wall_s"] for u in units)
    ttft = [x for u in units for x in u["ttft_ms"]]
    return (sum(u["out_tokens"] for u in units) / wall,
            percentile(ttft, 0.5))


def per_layer(rec):
    """The traced run's metrics: name -> (value, samples)."""
    m = {}
    units = rec["units"]
    meta = rec["meta"]

    loads = spans_by_name(rec, "ta.LoadModel")
    m["core.load_model_ms.p50"] = (percentile([ms(s) for s in loads], 0.5),
                                   len(loads))
    m["core.restore_mbps"] = (percentile(
        [s["bytes"] / 1e6 / (ms(s) / 1e3) for s in loads], 0.5), len(loads))
    for name, span in (("core.first_prefill_ms.p50", "ta.BeginSession"),
                       ("core.unload_ms.p50", "ta.Unload")):
        spans = spans_by_name(rec, span)
        m[name] = (percentile([ms(s) for s in spans], 0.5), len(spans))
    steps = [s for s in spans_by_name(rec, "ta.StepSession") if s["tokens"]]
    m["core.decode_ms_per_tok.p50"] = (percentile(
        [ms(s) / s["tokens"] for s in steps], 0.5), len(steps))

    m.update(unit_counts(rec))
    if rec["spill_probe"]:
        m.update(spill_counts(rec, rec["spill_probe"]))
    m["tee.params_mb"] = (rec["params_peak_bytes"] / 1e6, 1)
    m["tee.scratch_mb"] = (rec["scratch_peak_bytes"] / 1e6, 1)

    ticks = spans_by_name(rec, "serve.Tick")
    tick_ms = [ms(s) for s in ticks]
    decoding = [s for s in ticks if s["tokens"]]
    m["serve.tick_ms.p50"] = (percentile(tick_ms, 0.5), len(ticks))
    m["serve.tick_ms.p90"] = (percentile(tick_ms, 0.9), len(ticks))
    m["serve.decode_ms.p50"] = (percentile(
        [s["inner_ns"] / 1e6 for s in decoding], 0.5), len(decoding))
    m["serve.other_ms.p90"] = (percentile(
        [ms(s) - s["inner_ns"] / 1e6 for s in ticks], 0.9), len(ticks))
    m["serve.batch.p50"] = (percentile([s["tokens"] for s in ticks], 0.5),
                            len(ticks))
    # One weight stream per decoding tick: exact when the batch runs as one
    # group, a lower bound when an over-subscribed pool splits it.
    decode_s = sum(s["inner_ns"] for s in decoding) / 1e9
    m["llm.decode_weight_gbps"] = (
        meta["decode_weight_bytes"] * len(decoding) / decode_s / 1e9,
        len(decoding))

    m["llm.kv_resident_mb.max"] = (rec["kv_resident_max_bytes"] / 1e6, 1)
    m["llm.kv_reserved_mb"] = (rec["kv_reserved_bytes"] / 1e6, 1)

    totals = [delta(u["before"], u["after"]) for u in units]
    sent = sum(u["sent"] for u in units)
    failed = rec["check"]["mismatched"]
    m["req.sent"] = (sent, len(units))
    m["req.ok"] = (sent - failed, len(units))
    m["req.failed"] = (failed, len(units))
    m["llm.kv_pages_lost"] = (sum(d["pages_lost"] for d in totals),
                              len(units))
    m["tee.npu_jobs_recovered"] = (
        sum(d["npu_jobs_recovered"] for d in totals), len(units))

    host = rec["host"]
    m["crypto.aes_ctr_mbps"] = (host["aes_ctr_mbps"], 5)
    m["crypto.sha256_mbps"] = (host["sha256_mbps"], 5)
    m["host.stream_gbps"] = (host["stream_gbps"], 3)
    m["host.ref_ms.start"] = (host["ref_ms_start"], 5)
    m["host.ref_ms.end"] = (host["ref_ms_end"], 5)

    # Traced and untraced units alternate in one run, so host drift hits
    # both groups alike; positive = tracing made it slower.
    traced = [u for u in units if u["traced"]]
    untraced = [u for u in units if not u["traced"]]
    tps_on, ttft_on = group_rate(traced)
    tps_off, ttft_off = group_rate(untraced)
    m["trace.overhead_frac.tokens_per_s"] = (1 - tps_on / tps_off,
                                             len(units))
    m["trace.overhead_frac.ttft_ms.p50"] = (ttft_on / ttft_off - 1,
                                            len(units))
    missing = set(PER_LAYER) - set(m)
    if missing:
        raise ValueError(f"per-layer metrics not computed: {sorted(missing)}")
    return m


def unit_counts(rec):
    """Counts per unit, averaged over the first cycle: name -> (value, n)."""
    cyc = first_cycle(rec["units"], rec["meta"]["cycle_units"])
    n = len(cyc)
    m = {}
    # Co-driver jobs and world switches happen per TA load: a cold start,
    # or on the warm workloads each setup's load.
    timed = [l for l in rec["loads"] if l["phase"] == TIMED_PHASE]
    loads = [delta(l["before"], l["after"])
             for l in (timed[:n] if timed else rec["loads"])]
    m["tee.npu_jobs"] = (mean_count(loads, "npu_jobs"), len(loads))
    m["hw.smc_round_trips"] = (mean_count(loads, "smc_round_trips"),
                               len(loads))
    m["serve.preemptions"] = (mean_count(cyc, "preemptions"), n)
    m["serve.ticks"] = (mean_count(cyc, "ticks"), n)
    lookups = sum(d["prefix_lookups"] for d in cyc)
    m["llm.prefix_hit_frac"] = (
        sum(d["prefix_hits"] for d in cyc) / lookups if lookups else 0.0, n)
    prompt_tokens = sum(u["prompt_tokens"] for u in rec["units"][:n])
    m["llm.prefix_token_frac"] = (
        sum(d["prefix_adopted"] for d in cyc) / prompt_tokens, n)
    m["llm.cow_copies"] = (mean_count(cyc, "cow_copies"), n)
    m.update(spill_counts(rec, rec["units"][:n]))
    return m


def spill_counts(rec, units):
    """KV page spills and restores per unit, and the bytes they encrypt or
    decrypt and hash: name -> (value, n)."""
    deltas = [delta(u["before"], u["after"]) for u in units]
    n = len(deltas)
    spills = mean_count(deltas, "spills")
    restores = mean_count(deltas, "restores")
    return {"llm.kv_spills": (spills, n),
            "llm.kv_restores": (restores, n),
            "llm.kv_crypto_mb": ((spills + restores) *
                                 rec["kv_page_bytes"] / 1e6, n)}


def counts(rec):
    """The counts that must repeat exactly across runs of one seed."""
    m = unit_counts(rec)
    return {name: m[name][0] for name in STABLE_COUNTS}
