#include "serve/session_manager.hh"

#include <utility>

#include "sim/logging.hh"
#include "sim/parallel.hh"
#include "sim/stats_registry.hh"

namespace vstream
{

SessionManager::SessionManager(ServeConfig cfg) : core_(cfg)
{
    cfg.validate();
}

Admission
SessionManager::submit(SessionConfig cfg)
{
    const Demand d = Demand::of(cfg.pipeline);
    if (core_.fits(d)) {
        activate(std::move(cfg), d);
        return Admission::kAdmitted;
    }
    if (core_.couldEverFit(d)) {
        ++queued_;
        core_.enqueue(std::move(cfg), d, now_);
        return Admission::kQueued;
    }
    ++rejected_;
    return Admission::kRejected;
}

void
SessionManager::activate(SessionConfig cfg, const Demand &d)
{
    ++admitted_;
    RehearsedSession reh;
    if (RehearsedSession *pre = rehearsed_.find(cfg.id)) {
        reh = std::move(*pre);
        rehearsed_.erase(cfg.id);
    } else {
        reh = rehearseSession(cfg);
    }
    Active a;
    a.demand = d;
    a.start_offset = now_;
    a.outcome = std::move(reh.outcome);
    core_.reserve(d);
    if (reh.immediate) {
        finalize(std::move(a));
    } else {
        core_.scheduleFinish(now_ + reh.local_end, std::move(a));
    }
}

void
SessionManager::precompute(const std::vector<SessionConfig> &cfgs,
                           unsigned jobs)
{
    std::vector<RehearsedSession> rehearsals = parallelMap(
        jobs, cfgs.size(), [&](std::size_t i) {
            return rehearseSession(cfgs[i]);
        });
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        vs_assert(rehearsed_.find(cfgs[i].id) == nullptr,
                  "session ", cfgs[i].id, " rehearsed twice");
        rehearsed_[cfgs[i].id] = std::move(rehearsals[i]);
    }
}

void
SessionManager::finalize(Active a)
{
    SessionOutcome o = std::move(a.outcome);
    rebaseOutcome(o, a.start_offset);
    if (dedup_tier_ != nullptr && o.dedup.any()) {
        // Settle on the serial timeline, in completion order.  With
        // one fault domain and no failover there is no lease
        // lifetime to model beyond the session itself, so the refs
        // release immediately (stale epochs still reclaim through
        // the same path the fleet uses).
        DedupLease lease;
        dedup_totals_ +=
            dedup_tier_->publish(dedup_domain_, o.dedup, lease);
        dedup_tier_->release(lease);
    }
    if (o.final_state == HealthState::kEvicted) {
        ++evicted_;
    }
    breaker_trips_ += o.breaker_trips;
    outcomes_.push_back(std::move(o));

    core_.release(a.demand);
    drainWaiting();
}

void
SessionManager::expireFront()
{
    const auto w = core_.expireFront();
    ++queue_timeouts_;
    // The session never ran: record a marker outcome (id/group and
    // the queue span) so the caller can see who timed out.
    SessionOutcome o;
    o.id = w.item.id;
    o.group = w.item.stats_group;
    o.queue_timeout = true;
    o.start_offset = w.enqueue;
    o.end_tick = now_;
    outcomes_.push_back(std::move(o));
}

void
SessionManager::drainWaiting()
{
    core_.drain([this](auto &&w) {
        activate(std::move(w.item), w.demand);
    });
}

void
SessionManager::runAll()
{
    Tick at = 0;
    for (AdmissionDue due = core_.next(at);
         due != AdmissionDue::kNone; due = core_.next(at)) {
        now_ = at;
        if (due == AdmissionDue::kFinish) {
            finalize(core_.popFinish());
        } else {
            expireFront();
        }
    }
    vs_assert(core_.waiting() == 0,
              "timeline drained with sessions still queued");
}

void
SessionManager::setDedup(SharedMachTier *tier, std::uint32_t domain)
{
    vs_assert(tier == nullptr || domain < tier->domains(),
              "dedup domain out of range for the attached tier");
    dedup_tier_ = tier;
    dedup_domain_ = domain;
}

void
SessionManager::regStats(StatsRegistry &r)
{
    r.addCallback("serve.admitted", "sessions admitted (ever active)",
                  [this] {
                      return static_cast<double>(admitted_);
                  });
    r.addCallback("serve.rejected",
                  "submissions rejected at admission", [this] {
                      return static_cast<double>(rejected_);
                  });
    r.addCallback("serve.queued",
                  "submissions that waited in the admission queue",
                  [this] { return static_cast<double>(queued_); });
    r.addCallback("serve.evicted", "sessions evicted by the ladder",
                  [this] {
                      return static_cast<double>(evicted_);
                  });
    r.addCallback("serve.breakerTrips",
                  "MACH circuit-breaker trips across all sessions",
                  [this] {
                      return static_cast<double>(breaker_trips_);
                  });
    r.addCallback("serve.queueTimeouts",
                  "queued sessions expired past the deadline",
                  [this] {
                      return static_cast<double>(queue_timeouts_);
                  });
    r.addCallback("serve.active", "sessions currently active", [this] {
        return static_cast<double>(core_.active());
    });
    // vstream:allow(stats-hygiene) live gauge: tracks reservations
    r.addCallback("serve.bandwidthReservedMBps",
                  "estimated DRAM bandwidth reserved, MB/s",
                  [this] { return core_.bwReservedMBps(); });
    // vstream:allow(stats-hygiene) live gauge: tracks reservations
    r.addCallback("serve.framebufferReservedBytes",
                  "frame-buffer pool bytes reserved", [this] {
                      return static_cast<double>(
                          core_.fbReservedBytes());
                  });
    if (dedup_tier_ == nullptr) {
        // Dedup off: no serve.dedup.* keys at all, so stats dumps
        // stay byte-identical to pre-dedup builds.
        return;
    }
    r.addCallback("serve.dedup.sharedHits",
                  "DRAM writes elided by citing another session's "
                  "shared-tier block",
                  [this] {
                      return static_cast<double>(
                          dedup_totals_.shared_hits);
                  });
    r.addCallback("serve.dedup.selfHits",
                  "DRAM writes elided against the session's own "
                  "published block",
                  [this] {
                      return static_cast<double>(
                          dedup_totals_.self_hits);
                  });
    r.addCallback("serve.dedup.bytesElided",
                  "DRAM write bytes elided by the shared tier",
                  [this] {
                      return static_cast<double>(
                          dedup_totals_.bytes_elided);
                  });
    r.addCallback("serve.dedup.uniquePublished",
                  "blocks published into the shared tier", [this] {
                      return static_cast<double>(
                          dedup_totals_.unique_published);
                  });
    r.addCallback("serve.dedup.falseHits",
                  "shared-tier citations demoted by verify-on-hit",
                  [this] {
                      return static_cast<double>(
                          dedup_totals_.false_hits);
                  });
    r.addCallback("serve.dedup.blockedWrites",
                  "writes not considered for sharing (quarantine or "
                  "stale-epoch drain)",
                  [this] {
                      return static_cast<double>(
                          dedup_totals_.blocked_writes);
                  });
    r.addCallback("serve.dedup.breakerTrips",
                  "shared-tier epoch bumps forced by false-hit "
                  "storms",
                  [this] {
                      return static_cast<double>(
                          dedup_tier_->totals().trips);
                  });
}

void
SessionManager::resetStats()
{
    admitted_ = 0;
    rejected_ = 0;
    queued_ = 0;
    evicted_ = 0;
    breaker_trips_ = 0;
    queue_timeouts_ = 0;
    dedup_totals_ = DedupSettle{};
    if (dedup_tier_ != nullptr) {
        dedup_tier_->resetStats();
    }
}

} // namespace vstream
