#include "serving/cluster.hh"

#include <algorithm>
#include <cstdint>

#include "audit/audit.hh"
#include "common/logging.hh"

namespace pipellm {
namespace serving {

const char *
toString(RoutePolicy policy)
{
    switch (policy) {
      case RoutePolicy::RoundRobin:
        return "round-robin";
      case RoutePolicy::LeastLoaded:
        return "least-loaded";
    }
    return "?";
}

ClusterRouter::ClusterRouter(runtime::Platform &platform,
                             const RuntimeFactory &factory,
                             ClusterConfig config)
    : platform_(platform), config_(std::move(config)),
      load_(platform.numDevices(), 0),
      alive_(platform.numDevices(), true)
{
    PIPELLM_ASSERT(factory, "cluster router needs a runtime factory");
    runtimes_.reserve(platform.numDevices());
    for (unsigned d = 0; d < platform.numDevices(); ++d) {
        auto rt = factory(platform, runtime::DeviceId(d));
        PIPELLM_ASSERT(rt, "runtime factory returned null for device ",
                       d);
        PIPELLM_ASSERT(rt->deviceId() == d,
                       "factory bound device ", rt->deviceId(),
                       " where ", d, " was requested");
        runtimes_.push_back(std::move(rt));
    }
}

runtime::RuntimeApi &
ClusterRouter::runtime(runtime::DeviceId id)
{
    PIPELLM_ASSERT(id < runtimes_.size(), "replica ", id,
                   " out of range (", runtimes_.size(), " replicas)");
    return *runtimes_[id];
}

unsigned
ClusterRouter::aliveCount() const
{
    unsigned n = 0;
    for (bool a : alive_)
        n += a;
    return n;
}

std::uint64_t
ClusterRouter::costOf(const trace::Request &req) const
{
    // KV footprint and compute both scale with prompt plus every
    // sampled output sequence, so that sum is the load unit.
    return std::uint64_t(req.prompt_len) +
           std::uint64_t(config_.engine.parallel_sampling) *
               req.output_len;
}

bool
ClusterRouter::isCandidate(unsigned d, std::uint64_t cost) const
{
    if (!alive_[d])
        return false;
    // Disaggregated runs: front-end arrivals only target prefill
    // replicas; decode replicas receive work via migration.
    if (!decode_role_.empty() && decode_role_[d])
        return false;
    std::uint64_t cap = config_.admission.max_outstanding_cost;
    // An idle replica always qualifies: the cap is backpressure, not
    // a request-size limit, and no other replica can do better.
    if (cap == 0 || load_[d] == 0)
        return true;
    return load_[d] + cost <= cap;
}

std::optional<runtime::DeviceId>
ClusterRouter::route(const trace::Request &req)
{
    unsigned n = numReplicas();
    std::uint64_t cost = costOf(req);
    if (config_.policy == RoutePolicy::RoundRobin) {
        // Rotation skips dead/capped replicas; with every replica
        // healthy this is the plain cursor walk, decision for
        // decision. A full lap without a candidate leaves the cursor
        // untouched for the retry.
        unsigned d = next_;
        for (unsigned tried = 0; tried < n; ++tried) {
            if (isCandidate(d, cost)) {
                next_ = (d + 1) % n;
                load_[d] += cost;
                return runtime::DeviceId(d);
            }
            d = (d + 1) % n;
        }
        return std::nullopt;
    }
    int best = -1;
    for (unsigned d = 0; d < n; ++d) {
        if (!isCandidate(d, cost))
            continue;
        if (best < 0 || load_[d] < load_[unsigned(best)])
            best = int(d);
    }
    if (best < 0)
        return std::nullopt;
    load_[unsigned(best)] += cost;
    return runtime::DeviceId(unsigned(best));
}

void
ClusterRouter::markReplicaDead(runtime::DeviceId id)
{
    PIPELLM_ASSERT(id < alive_.size(), "replica ", id,
                   " out of range (", alive_.size(), " replicas)");
    alive_[id] = false;
    load_[id] = 0;
}

ClusterResult
ClusterRouter::run(const trace::Trace &requests)
{
    unsigned n = numReplicas();

    // Fresh routing state per run: stale totals from a previous trace
    // (or from completed requests) must not skew least-loaded.
    next_ = 0;
    std::fill(load_.begin(), load_.end(), 0);
    std::fill(alive_.begin(), alive_.end(), true);

    // Role partition: the first prefill_n replicas take front-end
    // arrivals, the rest only ever receive migrated decode work.
    const bool disagg = config_.disagg.enabled && n >= 2;
    unsigned prefill_n = 0;
    decode_role_.clear();
    if (disagg) {
        prefill_n = config_.disagg.prefill_replicas
                        ? config_.disagg.prefill_replicas
                        : n / 2;
        prefill_n = std::min(prefill_n, n - 1);
        PIPELLM_ASSERT(prefill_n >= 1,
                       "disaggregation needs a prefill replica");
        decode_role_.assign(n, 0);
        for (unsigned d = prefill_n; d < n; ++d)
            decode_role_[d] = 1;
    }

    ClusterResult agg;
    agg.replicas.resize(n);
    std::vector<std::unique_ptr<VllmEngine>> engines;
    engines.reserve(n);
    for (unsigned d = 0; d < n; ++d) {
        agg.replicas[d].device = runtime::DeviceId(d);
        agg.replicas[d].prefill = disagg && d < prefill_n;
        agg.replicas[d].runtime_name = runtimes_[d]->name();
        engines.push_back(std::make_unique<VllmEngine>(
            *runtimes_[d], config_.engine));
        engines[d]->beginRun();
    }

    // The migration fabric: per-ordered-pair encrypted links created
    // lazily on first use; one instance spans the whole run so link
    // IV counters advance monotonically within a session epoch.
    KvMigrator migrator(platform_, config_.disagg.migration);

    // Finished prefills land here (per source replica) and are
    // migrated at the next delivery barrier.
    struct Handoff
    {
        trace::Request req;
        Tick finished = 0;
        unsigned src = 0;
    };
    std::vector<std::vector<Handoff>> handoffs(n);
    if (disagg) {
        for (unsigned d = 0; d < prefill_n; ++d) {
            engines[d]->setCompletionSink(
                [&handoffs, d](const trace::Request &r, Tick at) {
                    handoffs[d].push_back(Handoff{r, at, d});
                });
        }
    }

    // Event-interleaved co-simulation: all replicas advance together
    // on a conservative min-clock frontier. A request is routed when
    // the frontier reaches its arrival, so the least-loaded decision
    // reads each replica's *live* outstanding load at that moment; a
    // replica only steps while no earlier arrival is pending, so
    // shared host resources (crypto pool, bridge) see the replicas'
    // traffic interleaved rather than replica-by-replica.
#if PIPELLM_AUDIT_ENABLED
    const std::uint64_t run_id = audit::Auditor::instance().newId();
#endif
    // The arrival queue is mutable: a crashed replica's orphans are
    // re-inserted (sorted, never before the cursor) as fresh arrivals
    // at the detect tick.
    struct PendingReq
    {
        trace::Request req;
        bool requeued = false;
    };
    std::vector<PendingReq> pending;
    pending.reserve(requests.size());
    for (const auto &r : requests)
        pending.push_back(PendingReq{r, false});
    std::size_t next_arrival = 0;

    // One crash arrival per replica, drawn up front in device order,
    // so the schedule is a pure function of the plan's seed. All
    // maxTick (never) unless crashes are armed.
    auto &injector = platform_.faultInjector();
    std::vector<Tick> crash_at(n, maxTick);
    for (unsigned d = 0; d < n; ++d) {
        // The draw is consumed even for filtered-out devices so the
        // plan's crash_devices restriction never shifts the decision
        // stream of the other replicas or fault kinds.
        Tick t = injector.drawCrashTime();
        crash_at[d] =
            injector.plan().crashAllowed(d) ? t : maxTick;
    }
    // Rejoin-complete tick per replica; maxTick = no restart pending.
    std::vector<Tick> rejoin_at(n, maxTick);

    // Sorted reinsertion into the arrival queue, never before the
    // cursor: crash orphans, backpressure holds and all-dead rejoin
    // waits all come back through here.
    auto enqueue = [&](PendingReq again) {
        auto pos = std::upper_bound(
            pending.begin() + std::ptrdiff_t(next_arrival),
            pending.end(), again.req.arrival,
            [](Tick t, const PendingReq &p) {
                return t < p.req.arrival;
            });
        pending.insert(pos, std::move(again));
    };

    auto crash = [&](unsigned d, Tick detect) {
        alive_[d] = false;
        load_[d] = 0;
        injector.noteInjected(fault::Kind::ReplicaCrash);
        auto &rep = agg.replicas[d];
        rep.crashed = true;
        rep.crash_time = detect;
        ++rep.crash_count;
        std::uint64_t lost = 0;
        auto orphans = engines[d]->drainUnfinished(lost);
        rep.lost_tokens += lost;
        // The whole restart timeline is computed eagerly at the
        // crash: seeded repair delay, SPDM re-key (fresh key, new IV
        // epoch), staged weight re-upload and warm-up probe all
        // charge real simulated time on this replica's runtime at
        // future ticks (resource submission clamps each interval to
        // the resource's own free time, so early submission is
        // legal). The replica itself is revived lazily, when the
        // router next sees an arrival at or past the rejoin tick.
        Tick delay = injector.drawRestartDelay();
        if (delay != maxTick) {
            injector.noteInjected(fault::Kind::ReplicaRestart);
            Tick live = runtimes_[d]->restart(detect + delay);
            live = engines[d]->reloadWeights(live);
            live = runtimes_[d]->warmupProbe(live);
            rejoin_at[d] = live;
            ++rep.restarts;
            rep.time_to_rejoin += live - detect;
        }
        bool survivors = aliveCount() > 0;
        bool any_rejoin = false;
        for (Tick r : rejoin_at)
            any_rejoin |= r != maxTick;
        for (const auto &orphan : orphans) {
            if (!survivors && !any_rejoin) {
                ++rep.dropped;
                continue;
            }
            // Failover is causal: the orphan re-arrives at the detect
            // tick (its own arrival if that is later), restarting from
            // the prompt on whichever replica routing picks then. With
            // every replica down but a restart pending, delivery
            // defers it to the rejoin instead of dropping it.
            trace::Request again = orphan;
            again.arrival = std::max(again.arrival, detect);
            enqueue(PendingReq{again, true});
            ++rep.requeued;
        }
    };

    // Replicas that can take front-end arrivals: prefill replicas in
    // a disaggregated run, everyone otherwise.
    auto routableAlive = [&]() {
        unsigned limit = disagg ? prefill_n : n;
        unsigned c = 0;
        for (unsigned d = 0; d < limit; ++d)
            c += alive_[d];
        return c;
    };

    // Least-loaded live decode replica, or -1 when none survives.
    auto pickDecode = [&]() {
        int best = -1;
        for (unsigned d = prefill_n; d < n; ++d) {
            if (!alive_[d])
                continue;
            if (best < 0 || load_[d] < load_[unsigned(best)])
                best = int(d);
        }
        return best;
    };

    // KV bytes a finished prefill must move: its prompt blocks.
    auto kvFootprint = [&](const trace::Request &r) {
        std::uint64_t bt = config_.engine.block_tokens;
        std::uint64_t blocks =
            std::max<std::uint64_t>((r.prompt_len + bt - 1) / bt, 1);
        return blocks * engines[0]->blockBytes();
    };

    // Hand a decode-stage request to replica d at tick at. The KV is
    // already resident there (migrated, or local fallback), so the
    // engine skips prefill compute. Not a front-end delivery: no
    // noteDelivery, no routing-policy state.
    auto submitDecode = [&](unsigned d, const trace::Request &req,
                            Tick at) {
        load_[d] += costOf(req);
        engines[d]->advanceTo(at);
        engines[d]->submitMigrated(req);
    };

    // Router-side recovery counters (the migrator counts per-stream
    // events; re-routing and crash fallbacks are routing decisions).
    std::uint64_t rerouted = 0;
    std::uint64_t local_fallbacks = 0;

    auto migrateAndSubmit = [&](const Handoff &h) {
        Tick when = h.finished;
        unsigned src = h.src;
        // The prefill replica died after finishing this prefill but
        // before the handoff was processed: its KV died with it, so
        // the request restarts from the trace like any crash orphan.
        if (!alive_[src]) {
            trace::Request again = h.req;
            again.arrival = std::max(again.arrival, when);
            enqueue(PendingReq{again, true});
            ++agg.replicas[src].requeued;
            return;
        }
        std::uint64_t kv_bytes = kvFootprint(h.req);
        bool first = true;
        while (true) {
            int dst = pickDecode();
            if (dst < 0) {
                // No live decode replica: graceful degradation —
                // decode locally on the prefill replica, whose KV is
                // already resident.
                ++local_fallbacks;
                submitDecode(src, h.req, when);
                return;
            }
            if (!first)
                ++rerouted;
            first = false;
            auto mr = migrator.migrate(runtime::DeviceId(src),
                                       runtime::DeviceId(unsigned(dst)),
                                       kv_bytes, when);
            if (mr.status == MigrationStatus::Completed) {
                submitDecode(unsigned(dst), h.req, mr.done);
                return;
            }
            if (mr.status == MigrationStatus::Stalled) {
                // The watchdog gave up (the migrator already counted
                // the fallback): decode locally instead of waiting.
                submitDecode(src, h.req, mr.done);
                return;
            }
            // DestCrashed: the destination died under the stream. It
            // is torn down exactly like a scheduled crash (orphans
            // requeue, restart timeline, fresh crypto sessions), then
            // the loop re-routes the migration from chunk zero on a
            // surviving decode replica.
            crash(unsigned(dst), mr.done);
            migrator.rekeyLinksOf(runtime::DeviceId(unsigned(dst)));
            when = mr.done;
        }
    };

    // Handoffs are processed only here, at delivery barriers and at
    // the all-idle point, so migrations see resource timelines and
    // routing state at well-defined frontier points.
    auto processHandoffs = [&]() {
        if (!disagg)
            return;
        std::vector<Handoff> batch;
        for (unsigned d = 0; d < n; ++d) {
            batch.insert(batch.end(), handoffs[d].begin(),
                         handoffs[d].end());
            handoffs[d].clear();
        }
        if (batch.empty())
            return;
        // Deterministic order regardless of which replica produced
        // which handoff: finish tick, then source, then request id.
        std::sort(batch.begin(), batch.end(),
                  [](const Handoff &a, const Handoff &b) {
                      if (a.finished != b.finished)
                          return a.finished < b.finished;
                      if (a.src != b.src)
                          return a.src < b.src;
                      return a.req.id < b.req.id;
                  });
        for (const auto &h : batch)
            migrateAndSubmit(h);
    };

    // Deliberately by value: a crash inside may grow `pending`,
    // invalidating any reference into it.
    auto deliver = [&](PendingReq p) {
        const trace::Request &req = p.req;
        // Revive replicas whose rejoin sequence completed before this
        // arrival: session re-keyed, weights resident, probe
        // round-tripped — they re-enter routing empty and draw a
        // fresh crash arrival for their second life.
        for (unsigned d = 0; d < n; ++d) {
            if (alive_[d] || rejoin_at[d] == maxTick ||
                rejoin_at[d] > req.arrival)
                continue;
            alive_[d] = true;
            load_[d] = engines[d]->outstandingCost();
            auto &rep = agg.replicas[d];
            rep.rejoined = true;
            rep.rejoin_time = rejoin_at[d];
            Tick revived = rejoin_at[d];
            rejoin_at[d] = maxTick;
            Tick next = injector.drawCrashTime();
            if (!injector.plan().crashAllowed(d))
                next = maxTick;
            crash_at[d] = (next == maxTick || revived > maxTick - next)
                              ? maxTick
                              : revived + next;
        }
        // An idle replica's clock never advances, so its crash is
        // detected here — when the router would next hand it work.
        for (unsigned d = 0; d < n; ++d) {
            if (alive_[d] && !engines[d]->hasWork() &&
                crash_at[d] <= req.arrival)
                crash(d, req.arrival);
        }
        if (routableAlive() == 0) {
            // With a restart in flight the request waits for the
            // rejoin instead of dying with the cluster. Only a
            // routable (prefill-role) rejoin helps an arrival.
            Tick soonest = maxTick;
            unsigned limit = disagg ? prefill_n : n;
            for (unsigned d = 0; d < limit; ++d)
                soonest = std::min(soonest, rejoin_at[d]);
            if (soonest != maxTick) {
                ++agg.deferred_to_rejoin;
                PendingReq again = std::move(p);
                again.req.arrival =
                    std::max(again.req.arrival, soonest);
                enqueue(std::move(again));
                return;
            }
            ++agg.dropped;
            return;
        }
        const AdmissionConfig &adm = config_.admission;
        std::uint64_t cost = costOf(req);
        if (adm.shed_enabled && adm.service_cost_per_sec > 0 &&
            req.deadline != 0) {
            // Optimistic bound: the least-loaded replica drains its
            // backlog plus this request at the full estimated service
            // rate and nothing else ever arrives. If even that misses
            // the deadline, the request is provably unmeetable — shed
            // it now instead of burning replica time on a guaranteed
            // SLO violation.
            std::uint64_t best_load = ~std::uint64_t(0);
            unsigned limit = disagg ? prefill_n : n;
            for (unsigned d = 0; d < limit; ++d) {
                if (alive_[d])
                    best_load = std::min(best_load, load_[d]);
            }
            Tick finish =
                req.arrival + seconds(double(best_load + cost) /
                                      adm.service_cost_per_sec);
            if (finish > req.deadline) {
                ++agg.shed_requests;
                agg.shed_tokens += std::uint64_t(req.output_len) *
                                   config_.engine.parallel_sampling;
                return;
            }
        }
        auto routed = route(req);
        if (!routed) {
            // Backpressure: every alive replica is at the admission
            // cap. Hold the request at the front-end until the
            // earliest busy replica has stepped (its clock strictly
            // advances, so this terminates); it re-enters the arrival
            // queue just past that clock.
            ++agg.backpressure_deferrals;
            Tick retry = maxTick;
            for (unsigned d = 0; d < n; ++d) {
                if (engines[d]->hasWork())
                    retry = std::min(retry, engines[d]->clock());
            }
            PIPELLM_ASSERT(retry != maxTick,
                           "every replica capped yet none working");
            PendingReq again = std::move(p);
            again.req.arrival =
                std::max(again.req.arrival, retry + Tick(1));
            enqueue(std::move(again));
            return;
        }
        runtime::DeviceId d = *routed;
        auto &rep = agg.replicas[d];
        ++rep.requests;
        if (p.requeued)
            ++rep.absorbed;
        rep.routed_tokens += std::uint64_t(req.output_len) *
                             config_.engine.parallel_sampling;
        engines[d]->advanceTo(req.arrival);
        // Disaggregated: the prefill replica serves only the prompt
        // and hands the request off through its completion sink.
        if (disagg)
            engines[d]->submitPrefill(req);
        else
            engines[d]->submit(req);
        PIPELLM_AUDIT_HOOK(audit::Auditor::instance().noteDelivery(
            run_id, req.arrival, engines[d]->clock()));
    };
    while (true) {
        // A busy replica whose clock passed its crash time dies
        // before it can step again; its orphans join the arrival
        // queue at the detect tick.
        for (unsigned d = 0; d < n; ++d) {
            if (alive_[d] && engines[d]->hasWork() &&
                engines[d]->clock() >= crash_at[d])
                crash(d, engines[d]->clock());
        }
        int busiest = -1;
        for (unsigned d = 0; d < n; ++d) {
            if (engines[d]->hasWork() &&
                (busiest < 0 ||
                 engines[d]->clock() < engines[busiest]->clock()))
                busiest = int(d);
        }
#if PIPELLM_AUDIT_ENABLED
        // The schedule frontier is the earlier of the min busy
        // clock and the next pending arrival; it gates which
        // replica may step. The noted (monotone) frontier also
        // folds in handoffs still waiting for their barrier:
        // busy replicas legitimately run past a finished prefill
        // before the barrier settles it, and the migration it
        // starts then submits decode work behind the busy-min —
        // so a pending handoff bounds the global frontier
        // without gating the stepper.
        Tick frontier = maxTick;
        if (busiest >= 0)
            frontier = engines[busiest]->clock();
        if (next_arrival < pending.size()) {
            frontier = std::min(
                frontier, pending[next_arrival].req.arrival);
        }
        Tick noted = frontier;
        for (const auto &hs : handoffs) {
            for (const auto &h : hs)
                noted = std::min(noted, h.finished);
        }
        if (noted != maxTick)
            audit::Auditor::instance().noteFrontier(run_id,
                                                    noted);
#endif
        if (busiest < 0) {
            // Every replica idle: settle handoffs first — a
            // migration can hand new decode work to an idle
            // replica, which must run before the trace can end.
            processHandoffs();
            bool woke = false;
            for (unsigned d = 0; d < n; ++d)
                woke |= engines[d]->hasWork();
            if (woke)
                continue;
            if (next_arrival >= pending.size())
                break;
            deliver(pending[next_arrival++]);
            continue;
        }
        if (next_arrival < pending.size() &&
            pending[next_arrival].req.arrival <=
                engines[busiest]->clock()) {
            // Delivery barrier: every busy replica has reached
            // the arrival, so handoffs settle here.
            processHandoffs();
            deliver(pending[next_arrival++]);
            continue;
        }
        PIPELLM_AUDIT_HOOK(
            audit::Auditor::instance().noteReplicaStep(
                run_id, engines[busiest]->clock(), frontier));
        engines[busiest]->stepOnce();
        load_[busiest] = engines[busiest]->outstandingCost();
        ++agg.engine_steps;
    }

    if (disagg) {
        // The migrator's per-stream counters plus the router-side
        // recovery decisions join the cluster-wide fault ledger.
        agg.faults.merge(migrator.faultReport());
        agg.faults.migrations_rerouted += rerouted;
        agg.faults.migration_fallbacks += local_fallbacks;
    }

    double latency_weight = 0;
    std::uint64_t routed_tokens_total = 0;
    std::uint64_t completed_tokens_total = 0;
    sim::SampleSet merged_latency;
    for (unsigned d = 0; d < n; ++d) {
        auto &rep = agg.replicas[d];
        rep.result = engines[d]->finish();
        rep.runtime_stats = runtimes_[d]->stats();
        rep.faults = runtimes_[d]->faultReport();
        agg.faults.merge(rep.faults);

        agg.completed += rep.result.completed;
        agg.preemptions += rep.result.preemptions;
        agg.makespan = std::max(agg.makespan, rep.result.total_time);
        routed_tokens_total += rep.routed_tokens;
        completed_tokens_total += rep.result.completed_tokens;
        agg.dropped += rep.dropped;
        agg.slo_missed += rep.result.slo_missed;
        agg.slo_missed_tokens += rep.result.slo_missed_tokens;
        double w = double(rep.result.completed);
        agg.normalized_latency += w * rep.result.normalized_latency;
        // Legacy completed-weighted mean of per-replica p90s: not a
        // percentile, kept only so committed CSV columns built from
        // it stay byte-identical.
        agg.replica_weighted_p90 +=
            w * rep.result.p90_normalized_latency;
        latency_weight += w;
        for (double s : rep.result.latency_samples.samples())
            merged_latency.add(s);
        agg.completions.insert(agg.completions.end(),
                               rep.result.completions.begin(),
                               rep.result.completions.end());

        // Crash/restart accounting lives on the router, not the
        // runtimes.
        agg.faults.replica_crashes += rep.crash_count;
        agg.faults.replica_restarts += rep.restarts;
        agg.faults.restart_rejoin_ticks += rep.time_to_rejoin;
        agg.faults.requeued_requests += rep.requeued;
        agg.faults.lost_tokens += rep.lost_tokens;
    }
    agg.faults.dropped_requests = agg.dropped;
    if (latency_weight > 0) {
        agg.normalized_latency /= latency_weight;
        agg.replica_weighted_p90 /= latency_weight;
    }
    // The true cluster-wide p90 comes from the merged per-request
    // samples; with one replica it equals the legacy field exactly.
    if (merged_latency.count() > 0)
        agg.p90_normalized_latency = merged_latency.percentile(90);
    std::sort(agg.completions.begin(), agg.completions.end(),
              [](const CompletionEvent &a, const CompletionEvent &b) {
                  return a.at < b.at;
              });
    if (agg.makespan > 0) {
        agg.tokens_per_sec =
            double(routed_tokens_total) / toSeconds(agg.makespan);
        agg.goodput_tokens_per_sec =
            double(completed_tokens_total) / toSeconds(agg.makespan);
        agg.slo_goodput_tokens_per_sec =
            double(completed_tokens_total - agg.slo_missed_tokens) /
            toSeconds(agg.makespan);
    }
#if PIPELLM_AUDIT_ENABLED
    {
        std::uint64_t residual = 0;
        for (auto l : load_)
            residual += l;
        audit::Auditor::instance().noteRunEnd(run_id, residual);
        // Every byte the per-device links forwarded into the shared
        // host bridge must be accounted there, and vice versa.
        if (const auto *bridge = platform_.hostBridge()) {
            audit::Auditor::instance().checkConservation(
                bridge->auditId());
        }
    }
#endif
    return agg;
}

} // namespace serving
} // namespace pipellm
