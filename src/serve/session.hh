/**
 * @file
 * One streaming session inside the multi-session server.
 *
 * A session owns a full, private pipeline substrate (its own
 * VideoPipeline with its own memory system, fault-rule set, and
 * arrival timeline) plus the health machinery that contains its
 * failures: the degradation ladder and the MACH circuit breaker.
 * Because the substrate is private, a no-fault session produces
 * energy/drop numbers bit-identical to a solo VideoPipeline run with
 * the same PipelineConfig, no matter how many neighbours it is
 * interleaved with - the isolation property tests/test_serve.cc
 * pins down.
 *
 * rehearseSession() runs a session to completion on its local clock;
 * the serving drivers (SessionManager, the fleet Placer) only decide
 * when it starts, through the shared admission core
 * (serve/admission.hh), and rebase the outcome onto their timeline.
 */

#ifndef VSTREAM_SERVE_SESSION_HH
#define VSTREAM_SERVE_SESSION_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/video_pipeline.hh"
#include "serve/health.hh"
#include "serve/shared_mach.hh"
#include "video/trace.hh"

namespace vstream
{

/** Everything needed to run one session. */
struct SessionConfig
{
    /** Unique id; also the label in stats and the soak report. */
    std::uint64_t id = 0;
    /** The session's own video/scheme/faults/arrival bundle.  Use
     * FaultConfig::forSession(id) when deriving many sessions from
     * one schedule so their fault streams are independent. */
    PipelineConfig pipeline;
    HealthConfig health;
    BreakerConfig breaker;
    /** Optional serialized ingest trace validated at start: damage
     * quarantines (kFailClean) or degrades (kSkipFrame with skipped
     * frames) only this session. */
    std::vector<std::uint8_t> trace_blob;
    TracePolicy trace_policy = TracePolicy::kFailClean;
    /** Viewer departure: the session ends once its next vsync would
     * land at or past this *local* tick (0 = watch to the end).
     * Drives mid-simulation leave in the fleet arrival process. */
    Tick leave_after = 0;
    /** Aggregation label for fleet stats (e.g. the soak mix name);
     * empty sessions fold only into the unlabelled totals. */
    std::string stats_group;
    /** Record distinct materialized MACH blocks during the run so
     * the shared dedup tier can settle them serially at admission
     * (serve/shared_mach.hh).  Off by default: with recording off
     * the session is byte-identical to pre-dedup builds. */
    bool dedup_record = false;
};

/** Everything a soak/fleet report needs from one finished session. */
struct SessionOutcome
{
    std::uint64_t id = 0;
    HealthState final_state = HealthState::kHealthy;
    TraceError trace_error = TraceError::kNone;
    std::uint64_t breaker_trips = 0;
    std::uint64_t breaker_reprobes = 0;
    /** Breaker state at the end of the session (a tripped session
     * that ends kClosed recovered after its cooldown). */
    CircuitBreaker::State breaker_state = CircuitBreaker::State::kClosed;
    /** Ticks dwelt in each ladder state. */
    std::array<Tick, kNumHealthStates> dwell{};
    /** The viewer left (SessionConfig::leave_after) before playback
     * finished or the ladder evicted. */
    bool left_early = false;
    /** Expired in the admission queue (ServeConfig::queue_deadline)
     * without ever running; only id/group/ticks are meaningful. */
    bool queue_timeout = false;
    /** Aggregation label copied from SessionConfig::stats_group. */
    std::string group;
    Tick start_offset = 0;
    Tick end_tick = 0;
    PipelineResult result;
    /** The materialization log recorded during the run (empty when
     * SessionConfig::dedup_record is off); settled against the
     * shared tier by the placer / session manager. */
    DedupRecord dedup;
};

/** Estimated DRAM-bandwidth demand of @p cfg, MB/s (decode writes +
 * display reads at the nominal frame rate). */
double sessionDemandMBps(const PipelineConfig &cfg);

/** Estimated frame-buffer pool footprint of @p cfg, bytes. */
std::uint64_t sessionFramebufferBytes(const PipelineConfig &cfg);

/** A session run to completion detached at local tick 0. */
struct RehearsedSession
{
    SessionOutcome outcome;
    /** Local tick of the final vsync (0 when done at start). */
    Tick local_end = 0;
    /** Finished without stepping a single vsync. */
    bool immediate = false;
};

/**
 * Rehearse @p cfg: run the session to completion on its own private
 * substrate, detached at local tick 0, and record the outcome.  This
 * is the only place a session is stepped vsync by vsync; every window
 * of HealthConfig::window_vsyncs vsyncs it evaluates its window
 * counters (drops, underruns, DRAM abandons, MACH false hits) and
 * walks the ladder / trips the breaker.
 *
 * A session's evolution is offset-invariant - the breaker cooldown
 * and ladder dwell are tick *differences*, and the pipeline runs on
 * its own local clock - so the serving drivers fan rehearsals across
 * parallelMap workers and place each outcome on the shared timeline
 * with rebaseOutcome(), keeping every aggregate byte-identical at any
 * --jobs count.
 */
RehearsedSession rehearseSession(const SessionConfig &cfg);

/**
 * Place a rehearsed outcome on the shared timeline at admission tick
 * @p start: shift start_offset/end_tick, and count the ticks before
 * admission as Healthy dwell (the ladder clock starts at tick 0 of
 * the shared timeline).
 */
void rebaseOutcome(SessionOutcome &o, Tick start);

} // namespace vstream

#endif // VSTREAM_SERVE_SESSION_HH
