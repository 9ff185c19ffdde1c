#!/usr/bin/env python3
"""Bench-regression guard for the fig17/fig13 smoke runs (ISSUE 5, PR 6).

Default mode parses a freshly produced BENCH_engine.json and fails CI when
the NPU prefill trajectory regresses:

  1. prefill_ms.npu_offload must beat prefill_ms.batched_t1 — the whole
     point of the fused co-driver path (both measured in the same run, so
     the check is host-independent).
  2. npu_codriver.jobs_per_prefill must stay within the fused budget
     (<= 48 on the bench-medium 96-token prompt): a job-granularity
     regression reintroduces per-job world switches long before it shows up
     in wall time on a fast runner.
  3. decode_tok_s.threads_1 must not drop more than 15% against the
     committed snapshot — applied only when the snapshot was produced by
     the same SIMD ISA (comparing absolute tok/s across different
     microarchitectures is noise, not signal).

--fault mode guards the TZLLM_FAULT_PLAN sweep (PR 6): the run must have
actually injected faults, recovery (retry or CPU fallback) must have
absorbed them, and the degraded prefill must still complete within 2x of
the CPU batched_t1 baseline. The clean must-beat and job-budget rules do
not apply: failed attempts occupy extra jobs by design.

--preemption mode guards BENCH_preemption.json (fig13): checkpoint ->
evict -> restore must resume with identical greedy tokens (same TA and
fresh-TA crash restore), and the recovery-under-fault generation must
complete with identical tokens.

--serving mode guards BENCH_serving.json (fig18): batched decode at 4
sessions must deliver >= 2x the single-session aggregate decode
throughput (both measured in the same run, so the ratio is
host-independent), every session's tokens must be bit-identical to its
solo run, and the eviction-under-pressure scenario must have actually
preempted and resumed with identical tokens. When the run includes the
16-session over-subscription scenario (ISSUE 9), paged spill must beat
whole-session eviction on p99 TTFT with pages actually spilled and both
modes' tokens identical to solo.

--chaos mode guards the BENCH_serving.json chaos section (ISSUE 10):
every armed fault plan must complete all requests with bit-identical
tokens and zero failures, the spill plans must have actually lost and
recomputed pages, the ckpt_drop plan must have actually restarted an
evictee, the ta_crash cycle must have recovered checkpointed sessions on
a fresh TA, and each plan's degraded p99 TTFT must stay within 3x the
clean point of its own scenario (paged for the spill plans, evict for
ckpt_drop) from the same run.

--caching mode guards BENCH_caching.json (fig14, ISSUE 9): every
shared-prefix point at >= 50% must land a warm TTFT strictly below the
cold (0%) point, the spill/restore path must have actually run (restore
count > 0), the prefix registry must have hit, and every request's tokens
must be bit-identical to the unshared reference engine. All
ratio/flag based — no committed-snapshot compare.

Usage:
  check_bench_regression.py <fresh.json> <committed-snapshot.json>
  check_bench_regression.py --fault <fresh.json>
  check_bench_regression.py --preemption <BENCH_preemption.json>
  check_bench_regression.py --serving <BENCH_serving.json>
  check_bench_regression.py --chaos <BENCH_serving.json>
  check_bench_regression.py --caching <BENCH_caching.json>
"""

import json
import sys


def fail(msg):
    print(f"::error::bench regression: {msg}")
    sys.exit(1)


def load(path):
    with open(path) as f:
        return json.load(f)


def check_clean(fresh, committed):
    npu = fresh["prefill_ms"]["npu_offload"]
    cpu = fresh["prefill_ms"]["batched_t1"]
    if fresh.get("fault_plan"):
        fail(
            f"clean-mode guard ran on a faulted run (fault_plan = "
            f"'{fresh['fault_plan']}'): unset TZLLM_FAULT_PLAN or use --fault"
        )
    if npu >= cpu:
        fail(
            f"prefill_ms.npu_offload ({npu:.2f} ms) does not beat "
            f"batched_t1 ({cpu:.2f} ms): the NPU offload path regressed"
        )
    print(f"npu_offload {npu:.2f} ms < batched_t1 {cpu:.2f} ms: OK")

    jobs = fresh["npu_codriver"]["jobs_per_prefill"]
    if jobs > 48:
        fail(
            f"jobs_per_prefill = {jobs} > 48: fused job granularity "
            "regressed toward one-job-per-matmul"
        )
    print(f"jobs_per_prefill {jobs} <= 48: OK")

    fresh_t1 = fresh["decode_tok_s"]["threads_1"]
    committed_t1 = committed["decode_tok_s"]["threads_1"]
    if fresh.get("simd_isa") == committed.get("simd_isa"):
        if fresh_t1 < 0.85 * committed_t1:
            fail(
                f"decode_tok_s.threads_1 dropped {fresh_t1:.0f} vs "
                f"committed {committed_t1:.0f} (> 15%)"
            )
        print(
            f"decode threads_1 {fresh_t1:.0f} vs committed "
            f"{committed_t1:.0f}: OK"
        )
    else:
        print(
            f"decode threads_1 check skipped: fresh isa "
            f"{fresh.get('simd_isa')} != snapshot {committed.get('simd_isa')}"
        )


def check_fault(fresh):
    if not fresh.get("fault_plan"):
        fail("--fault guard ran on a clean run: TZLLM_FAULT_PLAN was not set")
    codriver = fresh["npu_codriver"]
    if codriver["faults_injected"] <= 0:
        fail(
            f"fault plan '{fresh['fault_plan']}' armed but injected no "
            "faults: the sweep exercised nothing"
        )
    recovered = codriver["jobs_recovered"] + codriver["fallback_jobs"]
    if recovered <= 0:
        fail(
            f"{codriver['faults_injected']:.0f} faults/prefill injected but "
            "no job was retried or re-run on the CPU: recovery never engaged"
        )
    npu = fresh["prefill_ms"]["npu_offload"]
    cpu = fresh["prefill_ms"]["batched_t1"]
    if npu > 2.0 * cpu:
        fail(
            f"fallback-mode prefill ({npu:.2f} ms under "
            f"'{fresh['fault_plan']}') exceeds 2x batched_t1 ({cpu:.2f} ms): "
            "degraded mode costs more than giving up on the NPU"
        )
    print(
        f"fault sweep '{fresh['fault_plan']}': "
        f"{codriver['faults_injected']:.0f} faults/prefill, "
        f"{codriver['jobs_recovered']:.0f} retried, "
        f"{codriver['fallback_jobs']:.0f} CPU-fallback, "
        f"prefill {npu:.2f} ms <= 2x batched_t1 {cpu:.2f} ms: OK"
    )


def check_preemption(fresh):
    for key in ("tokens_identical", "crash_tokens_identical"):
        if fresh.get(key) is not True:
            fail(
                f"{key} is {fresh.get(key)}: checkpoint/restore diverged "
                "from the uninterrupted run"
            )
    print(
        f"checkpoint {fresh['checkpoint_ms']:.3f} ms, restore "
        f"{fresh['restore_ms']:.3f} ms, crash restore "
        f"{fresh['crash_restore_ms']:.3f} ms, tokens identical: OK"
    )
    fault = fresh.get("fault", {})
    if fault.get("completed") is not True:
        fail("recovery-under-fault generation did not complete")
    if fault.get("tokens_identical") is not True:
        fail(
            f"recovery-under-fault tokens diverged under plan "
            f"'{fault.get('plan')}'"
        )
    if fault.get("faults_injected", 0) <= 0:
        fail(
            f"fault plan '{fault.get('plan')}' injected nothing: the "
            "recovery-under-fault run exercised no recovery"
        )
    print(
        f"recovery under '{fault['plan']}': completed, tokens identical, "
        f"{fault['faults_injected']} injected / "
        f"{fault['jobs_recovered']} retried / "
        f"{fault['fallback_jobs']} CPU-fallback: OK"
    )


def check_serving(fresh):
    sessions = fresh["sessions"]
    solo = sessions["1"]["aggregate_tok_s"]
    at4 = sessions["4"]["aggregate_tok_s"]
    if at4 < 2.0 * solo:
        fail(
            f"aggregate decode at 4 sessions ({at4:.1f} tok/s) is below 2x "
            f"single-session ({solo:.1f} tok/s): batched decode stopped "
            "amortizing the weight stream"
        )
    print(f"4-session aggregate {at4:.1f} tok/s >= 2x solo {solo:.1f}: OK")
    if fresh.get("tokens_identical") is not True:
        fail(
            "batched-decode tokens diverged from the solo runs: the "
            "bit-identity contract broke"
        )
    print("per-session tokens identical to solo: OK")
    preemption = fresh.get("preemption", {})
    if preemption.get("preemptions", 0) < 1:
        fail(
            "eviction-under-pressure scenario preempted nothing: the "
            "priority eviction path went unexercised"
        )
    if preemption.get("tokens_identical") is not True:
        fail("evictee tokens diverged after checkpoint/restore")
    print(
        f"eviction under pressure: {preemption['preemptions']} "
        "preemption(s), evictee tokens identical: OK"
    )
    oversub = fresh.get("oversubscription")
    if oversub is not None:
        paged = oversub.get("paged", {})
        evict = oversub.get("evict", {})
        if paged.get("page_spills", 0) <= 0:
            fail(
                "over-subscription scenario spilled no pages: the paged "
                "run never hit the KV budget it claims to over-subscribe"
            )
        if oversub.get("paged_beats_evict_ttft_p99") is not True:
            fail(
                f"paged p99 TTFT ({paged.get('ttft_ms_p99')} ms) no longer "
                f"beats whole-session eviction "
                f"({evict.get('ttft_ms_p99')} ms) under over-subscription"
            )
        for mode, point in (("paged", paged), ("evict", evict)):
            if point.get("tokens_identical") is not True:
                fail(
                    f"over-subscribed {mode} tokens diverged from the solo "
                    "runs"
                )
        print(
            f"over-subscription: paged p99 {paged['ttft_ms_p99']:.1f} ms < "
            f"evict p99 {evict['ttft_ms_p99']:.1f} ms, "
            f"{paged['page_spills']} spills, tokens identical: OK"
        )


def check_chaos(fresh):
    chaos = fresh.get("chaos")
    if chaos is None:
        fail(
            "--chaos guard ran on a BENCH_serving.json without a chaos "
            "section: fig18 predates the chaos sweep or was truncated"
        )
    clean_p99 = {
        "paged": chaos.get("ttft_ms_p99_clean", 0.0),
        "evict": chaos.get("ttft_ms_p99_clean_evict", 0.0),
    }
    if clean_p99["paged"] <= 0:
        fail("chaos section carries no clean paged p99 TTFT to compare to")
    for plan, point in sorted(chaos.get("plans", {}).items()):
        if point.get("failed", 1) != 0:
            fail(
                f"plan '{plan}' failed {point.get('failed')} request(s): "
                "chaos must be absorbed, not surfaced"
            )
        if point.get("tokens_identical") is not True:
            fail(
                f"plan '{plan}' diverged from the solo tokens: a fault "
                "plan changed generation output"
            )
        if plan.startswith("spill_") and (
            point.get("pages_lost", 0) <= 0
            or point.get("pages_recomputed", 0) <= 0
        ):
            fail(
                f"plan '{plan}' lost {point.get('pages_lost', 0)} / "
                f"recomputed {point.get('pages_recomputed', 0)} pages: the "
                "recompute-on-loss path went unexercised"
            )
        if plan.startswith("ckpt_") and point.get("sessions_restarted", 0) <= 0:
            fail(
                f"plan '{plan}' restarted no session: the dropped-"
                "checkpoint restart path went unexercised"
            )
        # Each degraded run is bounded against ITS OWN clean scenario: the
        # spill plans run the paged point, ckpt_drop the evict point.
        baseline = point.get("baseline", "paged")
        clean = clean_p99.get(baseline, 0.0)
        if clean <= 0:
            fail(
                f"plan '{plan}' names baseline '{baseline}' but the chaos "
                "section carries no clean p99 for it"
            )
        degraded = point.get("ttft_ms_p99", 0.0)
        if degraded > 3.0 * clean:
            fail(
                f"plan '{plan}' degraded p99 TTFT ({degraded:.1f} ms) "
                f"exceeds 3x its clean {baseline} point ({clean:.1f} ms): "
                "chaos recovery costs more than the availability it buys"
            )
        print(
            f"plan '{plan}': {point['completed']} completed, "
            f"{point.get('pages_recomputed', 0)} pages recomputed, "
            f"{point.get('sessions_restarted', 0)} restarted, tokens "
            f"identical, degraded p99 {degraded:.1f} ms <= 3x clean "
            f"{baseline} {clean:.1f} ms: OK"
        )
    crash = chaos.get("ta_crash", {})
    if crash.get("crashes", 0) < 1:
        fail("ta_crash scenario never crashed: the plan went unexercised")
    if crash.get("sessions_recovered", 0) <= 0:
        fail(
            "ta_crash recovery restored no checkpointed session: Recover() "
            "restarted everything from scratch (manifest or snapshots lost)"
        )
    if crash.get("tokens_identical") is not True:
        fail(
            f"ta_crash fleet tokens diverged under plan "
            f"'{crash.get('plan')}'"
        )
    print(
        f"ta_crash '{crash.get('plan')}': {crash['crashes']} crash(es), "
        f"{crash['sessions_recovered']} recovered / "
        f"{crash.get('sessions_restarted', 0)} restarted over "
        f"{crash.get('auto_checkpoints', 0)} checkpoint rounds, "
        f"{crash.get('completed', 0)} completed, tokens identical: OK"
    )


def check_caching(fresh):
    points = fresh["points"]
    cold = points["0"]["ttft_ms"]
    for proportion, point in sorted(points.items(), key=lambda kv: int(kv[0])):
        if int(proportion) >= 50 and not point["ttft_ms"] < cold:
            fail(
                f"shared-prefix TTFT at {proportion}% "
                f"({point['ttft_ms']:.2f} ms) does not beat the cold point "
                f"({cold:.2f} ms): prefix adoption stopped paying for itself"
            )
        if point.get("tokens_identical") is not True:
            fail(
                f"tokens at {proportion}% shared diverged from the unshared "
                "reference engine: the bit-identity contract broke"
            )
        if int(proportion) >= 50 and point.get("prefix_hits", 0) <= 0:
            fail(
                f"no prefix-registry hit at {proportion}% shared: adoption "
                "went unexercised where it must engage"
            )
    if fresh.get("page_restores", 0) <= 0:
        fail(
            "caching sweep restored no spilled pages: the encrypted "
            "spill/restore path went unexercised (pool no longer "
            "over-subscribed?)"
        )
    warm = points[max(points, key=int)]
    print(
        f"caching: cold {cold:.2f} ms -> 100% shared "
        f"{warm['ttft_ms']:.2f} ms ({warm['ttft_vs_cold']:.2f}x), "
        f"hit rate {fresh.get('prefix_hit_rate', 0):.2f}, "
        f"{fresh['page_spills']} spills / {fresh['page_restores']} "
        "restores, tokens identical: OK"
    )


def main():
    if len(sys.argv) == 3 and sys.argv[1] == "--fault":
        check_fault(load(sys.argv[2]))
    elif len(sys.argv) == 3 and sys.argv[1] == "--preemption":
        check_preemption(load(sys.argv[2]))
    elif len(sys.argv) == 3 and sys.argv[1] == "--serving":
        check_serving(load(sys.argv[2]))
    elif len(sys.argv) == 3 and sys.argv[1] == "--chaos":
        check_chaos(load(sys.argv[2]))
    elif len(sys.argv) == 3 and sys.argv[1] == "--caching":
        check_caching(load(sys.argv[2]))
    elif len(sys.argv) == 3:
        check_clean(load(sys.argv[1]), load(sys.argv[2]))
    else:
        fail(
            f"usage: {sys.argv[0]} <fresh.json> <committed.json> | "
            "--fault <fresh.json> | --preemption <preemption.json> | "
            "--serving <serving.json> | --chaos <serving.json> | "
            "--caching <caching.json>"
        )
    print("bench regression guard: all checks passed")


if __name__ == "__main__":
    main()
