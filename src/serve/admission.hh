/**
 * @file
 * The admission policy of the serving tier, shared by the
 * SessionManager and the fleet Placer.
 *
 * Both drivers decide *whether* and *when* a session runs with this
 * one core, so the same arrivals admit, queue, reject and time out
 * identically under either:
 *
 *  - *Budgets.*  A session reserves its estimated DRAM bandwidth and
 *    frame-buffer bytes (Demand) while active, under the aggregate
 *    ServeConfig budgets and a cap on active sessions.  A submission
 *    that fits is admitted; one that could fit an idle server is
 *    queued; one that never could (a "whale") is rejected.
 *  - *Strict-FIFO wait queue.*  Only the front is ever admitted: no
 *    head-of-line skipping, so admission order does not depend on
 *    session sizes.  With ServeConfig::queue_deadline the front
 *    expires once it has waited that long.
 *  - *Finish timeline.*  Admitted sessions finish in (tick, admission
 *    seq) order, and a finish beats a queue deadline at the same
 *    tick, so budget freed at T admits the queue before anything
 *    expires at T.
 *
 * The drivers keep what is theirs: outcome records and stats (the
 * manager), placement, chaos and shedding (the Placer).
 */

#ifndef VSTREAM_SERVE_ADMISSION_HH
#define VSTREAM_SERVE_ADMISSION_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <queue>
#include <utility>
#include <vector>

#include "serve/session.hh"
#include "sim/logging.hh"

namespace vstream
{

/** Aggregate budgets guarded at admission. */
struct ServeConfig
{
    /** Aggregate DRAM-bandwidth budget, MB/s (estimated demand of
     * all active sessions must stay below this). */
    double bandwidth_budget_mbps = 2000.0;
    /** Aggregate frame-buffer pool budget, bytes. */
    std::uint64_t framebuffer_budget_bytes = 64ULL << 20;
    /** Hard cap on concurrently active sessions. */
    std::uint32_t max_active = 64;
    /**
     * Admission-queue deadline in ticks (0 = wait forever).  A
     * session still queued this long after submission expires
     * instead of occupying the waitlist indefinitely - the bound the
     * bounded-queue lint (tools/vstream_analyze) checks for.
     */
    Tick queue_deadline = 0;

    void validate() const;
};

/** Outcome of one submission. */
enum class Admission : std::uint8_t
{
    kAdmitted = 0,
    kQueued,
    kRejected,
};

/** Budget one session reserves while it is active. */
struct Demand
{
    double bw_mbps = 0.0;
    std::uint64_t fb_bytes = 0;

    /** The session budget estimators applied to @p cfg. */
    static Demand of(const PipelineConfig &cfg);
};

/** Which admission event is due next. */
enum class AdmissionDue : std::uint8_t
{
    kNone = 0,
    kFinish,
    kDeadline,
};

/**
 * Budgets, wait queue and finish timeline.  @p Queued is the driver's
 * record of a waiting submission, @p Running of an admitted session
 * until it finishes.
 */
template <typename Queued, typename Running>
class AdmissionCore
{
  public:
    /** One queued submission and the tick it entered the queue (the
     * deadline base). */
    struct Waiting
    {
        Queued item;
        Demand demand;
        Tick enqueue = 0;
    };

    explicit AdmissionCore(const ServeConfig &cfg) : cfg_(cfg) {}

    // --- budgets --------------------------------------------------------

    /** Room for @p d under every budget right now. */
    bool
    fits(const Demand &d) const
    {
        return active_ < cfg_.max_active &&
               bw_reserved_ + d.bw_mbps <= cfg_.bandwidth_budget_mbps &&
               fb_reserved_ + d.fb_bytes <=
                   cfg_.framebuffer_budget_bytes;
    }

    /** The whale rule: @p d fits an idle server.  Anything else is
     * rejected, so the queue always drains. */
    bool
    couldEverFit(const Demand &d) const
    {
        return d.bw_mbps <= cfg_.bandwidth_budget_mbps &&
               d.fb_bytes <= cfg_.framebuffer_budget_bytes;
    }

    void
    reserve(const Demand &d)
    {
        bw_reserved_ += d.bw_mbps;
        fb_reserved_ += d.fb_bytes;
        ++active_;
    }

    void
    release(const Demand &d)
    {
        vs_assert(active_ > 0, "releasing on an idle server");
        vs_assert(fb_reserved_ >= d.fb_bytes,
                  "frame-buffer reservation underflow");
        bw_reserved_ -= d.bw_mbps;
        fb_reserved_ -= d.fb_bytes;
        --active_;
    }

    /** Sessions holding a reservation. */
    std::size_t active() const { return active_; }
    double bwReservedMBps() const { return bw_reserved_; }
    std::uint64_t fbReservedBytes() const { return fb_reserved_; }

    // --- wait queue -----------------------------------------------------

    void
    enqueue(Queued item, const Demand &d, Tick now)
    {
        waiting_.push_back(Waiting{std::move(item), d, now});
    }

    std::size_t waiting() const { return waiting_.size(); }

    /** Hand queue fronts to @p admit for as long as they fit.  The
     * front is popped before @p admit runs, so @p admit may release
     * budget and drain again. */
    template <typename Admit>
    void
    drain(Admit &&admit)
    {
        while (!waiting_.empty() && fits(waiting_.front().demand)) {
            Waiting w = std::move(waiting_.front());
            waiting_.pop_front();
            admit(std::move(w));
        }
    }

    /** Tick the queue front expires; maxTick when the queue is empty,
     * deadlines are off, or the deadline is past the tick range. */
    Tick
    frontDeadline() const
    {
        const Tick dl = cfg_.queue_deadline;
        if (dl == 0 || waiting_.empty()) {
            return maxTick;
        }
        // The front has the earliest enqueue tick (strict FIFO),
        // hence the earliest deadline.
        const Tick enq = waiting_.front().enqueue;
        return enq > maxTick - dl ? maxTick : enq + dl;
    }

    /** Remove the queue front once frontDeadline() has passed. */
    Waiting
    expireFront()
    {
        Waiting w = std::move(waiting_.front());
        waiting_.pop_front();
        return w;
    }

    // --- finish timeline ------------------------------------------------

    /** Schedule @p r (already reserved) to finish at @p tick. */
    void
    scheduleFinish(Tick tick, Running r)
    {
        const std::uint64_t seq = next_seq_++;
        running_.emplace(seq, std::move(r));
        finishes_.push(Finish{tick, seq});
    }

    /** Sessions scheduled to finish. */
    std::size_t inFlight() const { return finishes_.size(); }
    /** Tick of the earliest finish (valid while inFlight() > 0). */
    Tick nextFinish() const { return finishes_.top().tick; }

    /** Remove the earliest finish and hand back its record; the
     * caller releases its budget. */
    Running
    popFinish()
    {
        const std::uint64_t seq = finishes_.top().seq;
        finishes_.pop();
        const auto it = running_.find(seq);
        vs_assert(it != running_.end(), "finish for unknown session");
        Running r = std::move(it->second);
        running_.erase(it);
        return r;
    }

    /** In-flight records in admission order.  Ordered, so anything
     * that walks it (crash failover) is deterministic. */
    std::map<std::uint64_t, Running> &running() { return running_; }

    /** The next admission event and, in @p at, its tick.  A finish
     * beats a deadline at the same tick. */
    AdmissionDue
    next(Tick &at) const
    {
        AdmissionDue due = AdmissionDue::kNone;
        at = maxTick;
        if (!finishes_.empty()) {
            at = finishes_.top().tick;
            due = AdmissionDue::kFinish;
        }
        const Tick dl = frontDeadline();
        if (dl < at) {
            at = dl;
            due = AdmissionDue::kDeadline;
        }
        return due;
    }

  private:
    struct Finish
    {
        Tick tick = 0;
        std::uint64_t seq = 0;

        /** Min-heap order: earliest (tick, seq) first. */
        bool
        operator>(const Finish &o) const
        {
            if (tick != o.tick) {
                return tick > o.tick;
            }
            return seq > o.seq;
        }
    };

    ServeConfig cfg_;
    /** The FIFO wait queue; its front expires past
     * ServeConfig::queue_deadline (frontDeadline). */
    std::deque<Waiting> waiting_;
    std::priority_queue<Finish, std::vector<Finish>,
                        std::greater<Finish>>
        finishes_;
    std::map<std::uint64_t, Running> running_;
    double bw_reserved_ = 0.0;
    std::uint64_t fb_reserved_ = 0;
    std::size_t active_ = 0;
    std::uint64_t next_seq_ = 0;
};

} // namespace vstream

#endif // VSTREAM_SERVE_ADMISSION_HH
