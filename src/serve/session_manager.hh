/**
 * @file
 * Multi-session server core.
 *
 * The SessionManager runs N concurrent streaming sessions over one
 * shared timeline.  Admission (serve/admission.hh, shared with the
 * fleet Placer) guards two aggregate budgets - estimated DRAM
 * bandwidth and frame-buffer pool bytes - plus a hard cap on active
 * sessions: over-budget submissions are queued (admitted as finishing
 * sessions release budget, or expired past the queue deadline) or
 * rejected when they could never fit.
 *
 * Each admitted session is rehearsed on its own private substrate
 * (rehearseSession) and its outcome replayed at its finish tick.
 * Each session is its own fault domain: trace damage, arrival-stall
 * storms, DRAM abandon-budget exhaustion, and MACH false-hit storms
 * degrade, quarantine, or evict only that session (serve/health.hh)
 * while neighbours keep bit-identical results.
 */

#ifndef VSTREAM_SERVE_SESSION_MANAGER_HH
#define VSTREAM_SERVE_SESSION_MANAGER_HH

#include <cstdint>
#include <vector>

#include "core/flat_table.hh"
#include "serve/admission.hh"
#include "serve/session.hh"
#include "serve/shared_mach.hh"

namespace vstream
{

class StatsRegistry;

/** Admission control + shared-timeline driver + fault domains. */
class SessionManager
{
  public:
    explicit SessionManager(ServeConfig cfg);

    SessionManager(const SessionManager &) = delete;
    SessionManager &operator=(const SessionManager &) = delete;

    /**
     * Submit a session.
     *
     * Admitted sessions start at the current tick, rehearsed here
     * unless precompute() already did; queued ones start when enough
     * budget frees up.  A session done at start finishes, and
     * releases its budget, before submit() returns.
     */
    Admission submit(SessionConfig cfg);

    /**
     * Rehearse @p cfgs across up to @p jobs worker threads before
     * they are submitted (the parallel soak path).
     *
     * activate() then takes the stored rehearsal instead of
     * rehearsing at admission.  Rehearsal is hermetic, so outcomes,
     * counters and stats are byte-identical with or without it, at
     * any job count (tests/test_serve.cc Rehearsal.*, and the CI
     * soak-smoke job at --jobs 1 and 4).  Admission is untouched:
     * budgets, queueing and rejection still play out on the shared
     * timeline.
     */
    void precompute(const std::vector<SessionConfig> &cfgs,
                    unsigned jobs);

    /** Drive every admitted (and eventually queued) session to
     * completion or eviction. */
    void runAll();

    /** Finished sessions, in completion order. */
    const std::vector<SessionOutcome> &outcomes() const
    {
        return outcomes_;
    }

    std::uint64_t admitted() const { return admitted_; }
    std::uint64_t rejected() const { return rejected_; }
    std::uint64_t queuedTotal() const { return queued_; }
    std::uint64_t evicted() const { return evicted_; }
    /** Queued sessions expired past ServeConfig::queue_deadline. */
    std::uint64_t queueTimeouts() const { return queue_timeouts_; }
    std::uint64_t breakerTrips() const { return breaker_trips_; }
    std::size_t activeCount() const { return core_.active(); }
    std::size_t waitingCount() const { return core_.waiting(); }

    /** Estimated bandwidth currently reserved, MB/s. */
    double bandwidthReservedMBps() const
    {
        return core_.bwReservedMBps();
    }
    /** Frame-buffer bytes currently reserved. */
    std::uint64_t framebufferReservedBytes() const
    {
        return core_.fbReservedBytes();
    }

    Tick curTick() const { return now_; }

    /**
     * Attach a shared MACH dedup tier (single-mode serving: the
     * whole manager is one fault domain, @p domain).  Sessions whose
     * config sets dedup_record have their materialization log
     * settled against the tier when they finish; because a
     * single-domain manager has no cross-session lease lifetime to
     * model, the refs are released immediately after settling.
     * Call before regStats() so the serve.dedup.* counters register.
     */
    void setDedup(SharedMachTier *tier, std::uint32_t domain = 0);

    /** Settled dedup totals across finished sessions (zeros until a
     * tier is attached and a recording session finishes). */
    const DedupSettle &dedupTotals() const { return dedup_totals_; }

    /** Register serve.* counters (admitted/rejected/queued/...). */
    void regStats(StatsRegistry &r);

    /** Zero the admission counters; live gauges (reservations,
     * active count) are untouched. */
    void resetStats();

  private:
    /** An admitted session until its finish. */
    struct Active
    {
        Demand demand;
        Tick start_offset = 0;
        SessionOutcome outcome; // rehearsed, not yet rebased
    };

    void activate(SessionConfig cfg, const Demand &d);
    void finalize(Active a);
    void expireFront();
    void drainWaiting();

    AdmissionCore<SessionConfig, Active> core_;
    /** The shared timeline's current tick. */
    Tick now_ = 0;
    std::vector<SessionOutcome> outcomes_;
    /** Rehearsals by session id, consumed (erased) at activation.
     * Never iterated, so the unordered probe order of the flat table
     * cannot leak into output. */
    FlatMap<std::uint64_t, RehearsedSession> rehearsed_;

    /** Optional shared dedup tier (not owned; single fault domain).
     * Touched only from finalize on the serial timeline. */
    // vstream:shard_local
    SharedMachTier *dedup_tier_ = nullptr;
    std::uint32_t dedup_domain_ = 0;
    /** Sum of every finished session's settle outcome. */
    DedupSettle dedup_totals_;

    std::uint64_t admitted_ = 0;
    std::uint64_t rejected_ = 0;
    std::uint64_t queued_ = 0;
    std::uint64_t evicted_ = 0;
    std::uint64_t breaker_trips_ = 0;
    std::uint64_t queue_timeouts_ = 0;
};

} // namespace vstream

#endif // VSTREAM_SERVE_SESSION_MANAGER_HH
