#include "serve/placer.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"
#include "sim/parallel.hh"

namespace vstream
{

void
FleetConfig::validate() const
{
    serve.validate();
    if (shards == 0) {
        vs_fatal("fleet needs at least one shard");
    }
    if (rehearse_block == 0) {
        vs_fatal("rehearse_block must be >= 1");
    }
    chaos.validate(shards);
}

Placer::Placer(FleetConfig cfg, SessionFactory factory)
    : cfg_(cfg), factory_(std::move(factory)), core_(cfg_.serve)
{
    cfg_.validate();
    vs_assert(factory_ != nullptr, "fleet needs a session factory");
    shards_.reserve(cfg_.shards);
    for (std::uint32_t i = 0; i < cfg_.shards; ++i) {
        shards_.emplace_back(i);
    }
    // Equal slices to start; rebalance() re-weights them later.
    const double n = static_cast<double>(cfg_.shards);
    for (Shard &s : shards_) {
        s.setSlices(cfg_.serve.bandwidth_budget_mbps / n,
                    static_cast<double>(
                        cfg_.serve.framebuffer_budget_bytes) /
                        n);
    }
    next_rebalance_ = cfg_.rebalance_period;

    // Shared dedup tier: one fault domain per shard.  Off means the
    // tier is never constructed and nothing downstream can observe
    // it (zero-cost-when-off).
    if (cfg_.dedup.enabled) {
        dedup_ = std::make_unique<SharedMachTier>(cfg_.dedup,
                                                  cfg_.shards);
    }

    // Chaos wiring.  With no crash rules and no checkpoint period
    // the journals and checkpoints stay empty and none of the new
    // event sources ever fires: the layer is inert.
    journaling_ =
        cfg_.chaos.anyRuleFor(FleetFaultClass::kShardCrash);
    checkpointing_ =
        journaling_ || cfg_.chaos.checkpoint_period > 0;
    journals_.resize(cfg_.shards);
    checkpoints_.resize(cfg_.shards);
    brownout_depth_.assign(cfg_.shards, 0);
    if (cfg_.chaos.checkpoint_period > 0) {
        next_checkpoint_ = cfg_.chaos.checkpoint_period;
    }
    for (const FleetFaultRule &rule : cfg_.chaos.rules) {
        switch (rule.cls) {
          case FleetFaultClass::kShardCrash:
            chaos_events_.push_back(
                ChaosEvent{rule.at, ChaosEvent::Kind::kCrash,
                           rule.shard, 1.0});
            break;
          case FleetFaultClass::kShardBrownout:
            chaos_events_.push_back(
                ChaosEvent{rule.at,
                           ChaosEvent::Kind::kBrownoutStart,
                           rule.shard, rule.factor});
            chaos_events_.push_back(
                ChaosEvent{rule.at + rule.duration,
                           ChaosEvent::Kind::kBrownoutEnd,
                           rule.shard, 1.0});
            break;
          case FleetFaultClass::kFlashCrowd:
            // Floods enter through withFlashCrowds on the arrival
            // schedule, not through the event loop.
            break;
        }
    }
    // Stable: same-tick events apply in rule order.
    std::stable_sort(chaos_events_.begin(), chaos_events_.end(),
                     [](const ChaosEvent &a, const ChaosEvent &b) {
                         return a.tick < b.tick;
                     });
}

std::uint32_t
Placer::pickShard() const
{
    // Least loaded; strict-less compare, so the lowest shard id
    // wins ties (the deterministic tie-break the invariance tests
    // rely on).
    std::uint32_t best = 0;
    double best_load = shards_[0].load();
    for (std::uint32_t i = 1; i < shards_.size(); ++i) {
        const double l = shards_[i].load();
        if (l < best_load) {
            best = i;
            best_load = l;
        }
    }
    return best;
}

std::uint32_t
Placer::pickSurvivor(std::uint32_t crashed) const
{
    std::uint32_t best = crashed == 0 ? 1 : 0;
    double best_load = shards_[best].load();
    for (std::uint32_t i = best + 1; i < shards_.size(); ++i) {
        if (i == crashed) {
            continue;
        }
        const double l = shards_[i].load();
        if (l < best_load) {
            best = i;
            best_load = l;
        }
    }
    return best;
}

void
Placer::rebalance()
{
    ++rebalances_;
    // Re-weight slices toward observed reservations, with a floor
    // so an idle shard keeps attracting arrivals.  Purely advisory:
    // slices weight pickShard() and nothing else, so this cannot
    // change admission, timing, or any emitted stat.
    double total_bw = 0.0;
    double total_fb = 0.0;
    for (const Shard &s : shards_) {
        total_bw += s.bwReservedMBps();
        total_fb += static_cast<double>(s.fbReservedBytes());
    }
    const double n = static_cast<double>(shards_.size());
    const double floor_frac = 0.5 / n;
    for (Shard &s : shards_) {
        const double bw_share =
            total_bw > 0.0 ? s.bwReservedMBps() / total_bw : 1.0 / n;
        const double fb_share =
            total_fb > 0.0
                ? static_cast<double>(s.fbReservedBytes()) / total_fb
                : 1.0 / n;
        s.setSlices(cfg_.serve.bandwidth_budget_mbps *
                        (floor_frac + 0.5 * bw_share),
                    static_cast<double>(
                        cfg_.serve.framebuffer_budget_bytes) *
                        (floor_frac + 0.5 * fb_share));
    }
}

void
Placer::advanceTo(Tick t)
{
    vs_assert(t >= cur_tick_, "fleet timeline moved backwards");
    for (;;) {
        // Five event sources, ordered by (tick, source rank):
        // finish < queue-timeout < checkpoint < chaos < rebalance.
        // Finishes first so budget freed at T is visible to
        // everything else at T (an admission wins a tie with the
        // queue deadline); checkpoint-before-crash at the same tick
        // means the crash loses nothing.
        Tick best = maxTick;
        const AdmissionDue due = core_.next(best);
        int kind = due == AdmissionDue::kFinish     ? 0
                   : due == AdmissionDue::kDeadline ? 1
                                                    : -1;
        if (checkpointing_ && next_checkpoint_ < best) {
            best = next_checkpoint_;
            kind = 2;
        }
        if (next_chaos_ < chaos_events_.size() &&
            chaos_events_[next_chaos_].tick < best) {
            best = chaos_events_[next_chaos_].tick;
            kind = 3;
        }
        if (cfg_.rebalance_period > 0 && next_rebalance_ < best) {
            best = next_rebalance_;
            kind = 4;
        }
        if (kind < 0 || best > t) {
            break;
        }
        cur_tick_ = std::max(cur_tick_, best);
        switch (kind) {
          case 0:
            finishOne();
            break;
          case 1:
            expireFront();
            break;
          case 2:
            takeAllCheckpoints();
            next_checkpoint_ += cfg_.chaos.checkpoint_period;
            break;
          case 3:
            applyChaos(chaos_events_[next_chaos_++]);
            break;
          default:
            rebalance();
            next_rebalance_ += cfg_.rebalance_period;
            break;
        }
    }
    cur_tick_ = std::max(cur_tick_, t);
}

void
Placer::finishOne()
{
    Live l = core_.popFinish();
    shards_[l.shard].release(l.demand.bw_mbps, l.demand.fb_bytes);
    core_.release(l.demand);
    // Fold-at-finish: the outcome becomes durable shard state only
    // now, so a crash before this point cleanly unwinds the session
    // (it is failed over, not half-counted).  The fold is exact and
    // commutative, so the bytes cannot tell this apart from the
    // fold-at-admit order.
    shards_[l.shard].absorb(l.outcome);
    if (dedup_) {
        // Dedup accounting was settled at admit; it becomes durable
        // together with the outcome, and the session's tier refs
        // drop now that nothing cites them.
        shards_[l.shard].absorbDedup(l.dedup_settle);
        dedup_->release(l.dedup_lease);
    }
    if (journaling_) {
        JournalEntry e;
        e.arrival = l.arrival;
        e.start = l.start;
        if (dedup_) {
            e.dedup_settle = l.dedup_settle;
            e.dedup_blocks = std::move(l.outcome.dedup);
        }
        journals_[l.shard].push_back(std::move(e));
    }
    drainWaiting();
}

void
Placer::expireFront()
{
    core_.expireFront();
    ++recovery_.queue_timeouts;
    updateFleetHealth();
}

void
Placer::takeCheckpoint(std::uint32_t shard)
{
    ShardSnapshot snap;
    snap.tick = cur_tick_;
    snap.absorbed = shards_[shard].absorbed();
    snap.stats = shards_[shard].snapshot();
    checkpoints_[shard] = serializeShardSnapshot(snap);
    // Everything up to here is inside the checkpoint; the journal
    // restarts empty.
    journals_[shard].clear();
}

void
Placer::takeAllCheckpoints()
{
    ++checkpoints_taken_;
    for (std::uint32_t i = 0; i < cfg_.shards; ++i) {
        takeCheckpoint(i);
    }
}

void
Placer::applyChaos(const ChaosEvent &ev)
{
    switch (ev.kind) {
      case ChaosEvent::Kind::kCrash:
        crashShard(ev.shard);
        break;
      case ChaosEvent::Kind::kBrownoutStart:
        ++recovery_.brownouts;
        ++brownout_depth_[ev.shard];
        shards_[ev.shard].setBrownoutFactor(ev.factor);
        updateFleetHealth();
        break;
      case ChaosEvent::Kind::kBrownoutEnd:
        vs_assert(brownout_depth_[ev.shard] > 0,
                  "brownout end without a matching start");
        if (--brownout_depth_[ev.shard] == 0) {
            shards_[ev.shard].setBrownoutFactor(1.0);
        }
        updateFleetHealth();
        break;
    }
}

void
Placer::crashShard(std::uint32_t shard)
{
    ++recovery_.crashes;
    Shard &sh = shards_[shard];
    sh.crashReset();
    if (dedup_) {
        // The crashed shard's fault domain dies with it: every entry
        // drops, outstanding leases become void, and the epoch bump
        // makes the wipe observable.  Neighbour domains are
        // untouched - blast radius by construction.
        dedup_->wipeDomain(shard);
    }

    // Restore the last checkpoint *through the wire format*, so
    // every recovery exercises the real serialization path.
    vs_assert(!checkpoints_[shard].empty(),
              "shard crashed before the tick-0 checkpoint");
    ShardSnapshot snap;
    std::string error;
    if (!tryDeserializeShardSnapshot(checkpoints_[shard].data(),
                                     checkpoints_[shard].size(),
                                     snap, error)) {
        vs_panic("shard ", shard, " checkpoint corrupt: ", error);
    }
    sh.restore(snap.stats, snap.absorbed);
    recovery_.restored += snap.absorbed;

    // Replay the finishes journaled since that checkpoint.  The
    // factory is pure and rehearsal hermetic, so each replayed
    // outcome is bit-identical to the one the crash destroyed.
    for (const JournalEntry &e : journals_[shard]) {
        SessionConfig c = factory_(e.arrival);
        c.id = e.arrival.id;
        c.leave_after = e.arrival.leave_after;
        c.dedup_record = dedup_ != nullptr;
        SessionOutcome o = rehearseSession(c).outcome;
        rebaseOutcome(o, e.start);
        sh.absorb(o);
        if (dedup_) {
            // Settlement depends on tier state at the *original*
            // admit, so replay re-absorbs the journaled settle
            // verbatim and rebuilds tier content stats-suppressed.
            sh.absorbDedup(e.dedup_settle);
            dedup_->republish(shard, e.dedup_blocks);
        }
        ++recovery_.replayed;
    }
    journals_[shard].clear();

    // Fail the orphaned in-flight sessions over to survivors.  The
    // crashed shard's reservations died with it; the survivors pick
    // them up, and the *global* reservation never moved - failover
    // cannot admit, reject or delay anyone.
    for (auto &[seq, l] : core_.running()) {
        if (l.shard != shard) {
            continue;
        }
        const std::uint32_t to = pickSurvivor(shard);
        shards_[to].reserve(l.demand.bw_mbps, l.demand.fb_bytes);
        l.shard = to;
        ++recovery_.failed_over;
    }

    // Re-checkpoint immediately: a second crash of this shard must
    // restore to *this* state, not double-replay the old journal.
    takeCheckpoint(shard);
}

void
Placer::updateFleetHealth()
{
    if (!cfg_.chaos.enabled()) {
        return;
    }
    FleetHealth want = FleetHealth::kHealthy;
    if (cfg_.chaos.shed_depth > 0 &&
        core_.waiting() >= cfg_.chaos.shed_depth) {
        want = FleetHealth::kShedding;
    } else {
        for (const std::uint32_t depth : brownout_depth_) {
            if (depth > 0) {
                want = FleetHealth::kBrownedOut;
                break;
            }
        }
    }
    if (want != ladder_.state()) {
        ladder_.transitionTo(want, cur_tick_);
    }
}

void
Placer::admit(Pending &&p, const Demand &d)
{
    ++admitted_;
    const std::uint32_t sh = pickShard();
    shards_[sh].reserve(d.bw_mbps, d.fb_bytes);
    core_.reserve(d);

    Live l;
    l.outcome = std::move(p.reh.outcome);
    rebaseOutcome(l.outcome, cur_tick_);
    l.arrival = p.arrival;
    l.start = cur_tick_;
    l.shard = sh;
    l.demand = d;

    // Settle the session's block log against its shard's fault
    // domain on the serial timeline; the acquired lease holds the
    // cited entries resident until the session finishes.
    if (dedup_ && l.outcome.dedup.any()) {
        l.dedup_settle =
            dedup_->publish(sh, l.outcome.dedup, l.dedup_lease);
    }

    const Tick finish_tick = l.outcome.end_tick;
    core_.scheduleFinish(finish_tick, std::move(l));
    peak_active_ = std::max<std::uint64_t>(peak_active_,
                                           core_.active());
}

void
Placer::drainWaiting()
{
    core_.drain([this](auto &&w) {
        admit(std::move(w.item), w.demand);
    });
    updateFleetHealth();
}

void
Placer::submitRehearsed(Pending &&p, const Demand &d)
{
    // run() rejected the whales unrehearsed, so what does not fit
    // now queues - unless the fleet is shedding.
    if (core_.fits(d)) {
        admit(std::move(p), d);
        return;
    }
    // The shedding ladder: past the configured queue depth the fleet
    // drops arrivals outright instead of letting the queue (and its
    // deadline backlog) grow without bound.
    if (cfg_.chaos.shed_depth > 0 &&
        core_.waiting() >= cfg_.chaos.shed_depth) {
        ++recovery_.shed;
        updateFleetHealth();
        return;
    }
    ++queued_;
    core_.enqueue(std::move(p), d, cur_tick_);
    peak_waiting_ =
        std::max<std::uint64_t>(peak_waiting_, core_.waiting());
    updateFleetHealth();
}

void
Placer::run(const std::vector<ArrivalEvent> &arrivals)
{
    vs_assert(!ran_, "a Placer runs one schedule");
    ran_ = true;
    if (checkpointing_) {
        // The implicit tick-0 checkpoint: every crash has a
        // restore point even before the first periodic one.
        takeAllCheckpoints();
    }
    std::size_t base = 0;
    while (base < arrivals.size()) {
        const std::size_t n =
            std::min<std::size_t>(cfg_.rehearse_block,
                                  arrivals.size() - base);
        // Build the block's configs serially (the factory may be
        // stateful when journaling is off), then rehearse the
        // admissible ones in parallel.
        std::vector<SessionConfig> cfgs;
        std::vector<Demand> demands(n);
        std::vector<bool> whale(n, false);
        cfgs.reserve(n);
        std::vector<std::size_t> live;
        live.reserve(n);
        for (std::size_t j = 0; j < n; ++j) {
            const ArrivalEvent &a = arrivals[base + j];
            vs_assert(j + base == 0 ||
                          a.tick >= arrivals[base + j - 1].tick,
                      "arrival schedule must be non-decreasing");
            SessionConfig c = factory_(a);
            c.id = a.id;
            c.leave_after = a.leave_after;
            c.dedup_record = dedup_ != nullptr;
            demands[j] = Demand::of(c.pipeline);
            // Whales can never fit: reject without rehearsing (the
            // decision is budget-only, so skipping the rehearsal
            // cannot perturb the timeline).
            whale[j] = !core_.couldEverFit(demands[j]);
            if (!whale[j]) {
                live.push_back(j);
            }
            cfgs.push_back(std::move(c));
        }
        std::vector<RehearsedSession> rehs = parallelMap(
            cfg_.jobs, live.size(), [&](std::size_t k) {
                return rehearseSession(cfgs[live[k]]);
            });
        // Feed the block through the timeline in arrival order.
        std::size_t next_live = 0;
        for (std::size_t j = 0; j < n; ++j) {
            advanceTo(arrivals[base + j].tick);
            if (whale[j]) {
                ++rejected_;
                continue;
            }
            submitRehearsed(Pending{std::move(rehs[next_live++]),
                                    arrivals[base + j]},
                            demands[j]);
        }
        base += n;
    }
    // Drain: every finish frees budget, which admits more of the
    // queue; the whale rule guarantees the queue empties (deadline
    // expiries along the way fire inside advanceTo).
    while (core_.inFlight() > 0) {
        advanceTo(core_.nextFinish());
    }
    vs_assert(core_.waiting() == 0,
              "fleet drained with sessions still queued");
    if (dedup_) {
        // Surface the per-domain aggregates through the shard
        // snapshots so fleet reports can attribute poisoning (false
        // hits, breaker trips) to its blast radius.
        for (std::uint32_t d = 0; d < cfg_.shards; ++d) {
            shards_[d].foldDedupDomain(dedup_->domainStats(d),
                                       dedup_->entries(d),
                                       dedup_->liveRefs(d), d);
        }
    }
}

StatsSnapshot
Placer::fleetSnapshot() const
{
    StatsSnapshot fleet;
    for (const Shard &s : shards_) {
        fleet.merge(s.snapshot());
    }
    return fleet;
}

} // namespace vstream
