#include "serve/session.hh"

#include <sstream>
#include <string>
#include <utility>

#include "sim/logging.hh"

namespace vstream
{

namespace
{

/** Seed of the session's jitter stream: the profile seed remixed
 * with the session id so neighbouring ids draw independently. */
std::uint64_t
jitterSeed(const SessionConfig &cfg)
{
    std::uint64_t state =
        cfg.pipeline.profile.seed ^
        (cfg.id + 0x9e3779b97f4a7c15ULL);
    return splitMix64(state);
}

/**
 * One session's private substrate and health machinery, stepped one
 * vsync at a time on its local clock (tick 0 = admission).
 */
class Session
{
  public:
    explicit Session(SessionConfig cfg);

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /** No more vsyncs wanted (playback complete, evicted, or the
     * viewer left per SessionConfig::leave_after). */
    bool done() const;

    /** done() because the viewer left, not because playback
     * completed or the ladder evicted. */
    bool leftEarly() const;

    /** Local tick of the next vsync (valid while !done()). */
    Tick nextTick() const { return pipeline_.nextVsyncTick(); }

    /** Process one vsync; on a window boundary, evaluate health. */
    void stepVsync();

    /** Close the playback at local tick @p end and fill @p o. */
    void finish(Tick end, SessionOutcome &o);

  private:
    void evaluateWindow(Tick now);

    SessionConfig cfg_;
    VideoPipeline pipeline_;
    HealthLadder ladder_;
    CircuitBreaker breaker_;
    /** Per-session write log; private to this session's (possibly
     * worker-thread) rehearsal. */
    DedupRecorder dedup_recorder_;
    /** The session's own jitter stream (breaker cooldowns). */
    Random rng_;
    TraceError trace_error_ = TraceError::kNone;

    // window bookkeeping
    std::uint32_t vsyncs_ = 0;
    std::uint64_t last_drops_ = 0;
    std::uint64_t last_underruns_ = 0;
    std::uint64_t last_lookups_ = 0;
    std::uint64_t last_false_hits_ = 0;
    std::uint32_t degraded_streak_ = 0;
    std::uint32_t clean_streak_ = 0;
    std::uint32_t quarantined_windows_ = 0;
};

Session::Session(SessionConfig cfg)
    : cfg_(std::move(cfg)), pipeline_(cfg_.pipeline),
      breaker_(cfg_.breaker), rng_(jitterSeed(cfg_))
{
    cfg_.health.validate();
    pipeline_.start();

    // Dedup recording observes unique-block writes into a private
    // per-session log; the shared tier itself is only consulted
    // serially at settle time, so rehearsal stays hermetic.
    if (cfg_.dedup_record && pipeline_.hasMach()) {
        pipeline_.setMachWriteObserver(
            [this](std::uint32_t digest, std::uint16_t aux,
                   const std::vector<std::uint8_t> &truth) {
                dedup_recorder_.observe(digest, aux, truth);
            });
    }

    // Validate the ingest trace inside this session's fault domain:
    // damage lands on the ladder, never outside the session.
    if (!cfg_.trace_blob.empty()) {
        std::istringstream is(
            std::string(cfg_.trace_blob.begin(),
                        cfg_.trace_blob.end()));
        const TraceLoadResult tr =
            loadTrace(is, cfg_.trace_policy, nullptr);
        trace_error_ = tr.error;
        if (!tr.ok()) {
            ladder_.transitionTo(HealthState::kQuarantined, 0);
        } else if (tr.frames_skipped > 0) {
            ladder_.transitionTo(HealthState::kDegraded, 0);
        }
    }
}

bool
Session::done() const
{
    if (ladder_.evicted() || pipeline_.stepDone()) {
        return true;
    }
    // Viewer departure: stop once the next vsync would land at or
    // past the leave point on the session's local clock.
    return cfg_.leave_after > 0 &&
           pipeline_.nextVsyncTick() >= cfg_.leave_after;
}

bool
Session::leftEarly() const
{
    return cfg_.leave_after > 0 && !ladder_.evicted() &&
           !pipeline_.stepDone() &&
           pipeline_.nextVsyncTick() >= cfg_.leave_after;
}

void
Session::stepVsync()
{
    const Tick now = nextTick();
    pipeline_.stepVsync();
    ++vsyncs_;
    if (vsyncs_ % cfg_.health.window_vsyncs == 0) {
        evaluateWindow(now);
    }
}

void
Session::evaluateWindow(Tick now)
{
    // Circuit breaker first: a false-hit storm is a verification
    // problem, not (yet) a playback problem.
    if (pipeline_.hasMach() && cfg_.breaker.enabled) {
        const MachStats m = pipeline_.liveMachStats();
        const std::uint64_t d_lookups = m.lookups - last_lookups_;
        const std::uint64_t d_false = m.false_hits - last_false_hits_;
        last_lookups_ = m.lookups;
        last_false_hits_ = m.false_hits;
        if (breaker_.onWindow(d_lookups, d_false, now, rng_)) {
            pipeline_.setMachBypass(breaker_.bypass());
        }
    }

    const PipelineResult &live = pipeline_.liveResult();
    const std::uint64_t d_drops = live.drops - last_drops_;
    const std::uint64_t d_underruns = live.underruns - last_underruns_;
    last_drops_ = live.drops;
    last_underruns_ = live.underruns;

    const bool fatal =
        pipeline_.liveDramAbandoned() >= cfg_.health.abandon_budget;
    const bool bad = d_drops >= cfg_.health.degrade_drops ||
                     d_underruns >= cfg_.health.degrade_underruns;

    switch (ladder_.state()) {
    case HealthState::kHealthy:
        if (fatal) {
            ladder_.transitionTo(HealthState::kQuarantined, now);
        } else if (bad) {
            degraded_streak_ = 1;
            clean_streak_ = 0;
            ladder_.transitionTo(HealthState::kDegraded, now);
        }
        break;
    case HealthState::kDegraded:
        if (fatal) {
            ladder_.transitionTo(HealthState::kQuarantined, now);
        } else if (bad) {
            ++degraded_streak_;
            clean_streak_ = 0;
            if (degraded_streak_ >= cfg_.health.quarantine_windows) {
                ladder_.transitionTo(HealthState::kQuarantined, now);
            }
        } else {
            ++clean_streak_;
            if (clean_streak_ >= cfg_.health.recover_windows) {
                degraded_streak_ = 0;
                clean_streak_ = 0;
                ladder_.transitionTo(HealthState::kHealthy, now);
            }
        }
        break;
    case HealthState::kQuarantined:
        // Linger long enough for the dwell to be observable, then
        // release the session's resources.
        ++quarantined_windows_;
        if (quarantined_windows_ >= cfg_.health.evict_windows) {
            ladder_.transitionTo(HealthState::kEvicted, now);
        }
        break;
    case HealthState::kEvicted:
        vs_panic("evicted session evaluated a health window");
    }
}

void
Session::finish(Tick end, SessionOutcome &o)
{
    // leftEarly() reads the ladder before a quarantined session that
    // ran out of playback is folded into Evicted below: it never
    // returned to service.
    o.left_early = leftEarly();
    if (ladder_.state() == HealthState::kQuarantined) {
        ladder_.transitionTo(HealthState::kEvicted, end);
    }
    o.id = cfg_.id;
    o.final_state = ladder_.state();
    o.trace_error = trace_error_;
    o.breaker_trips = breaker_.trips();
    o.breaker_reprobes = breaker_.reprobes();
    o.breaker_state = breaker_.state();
    for (std::size_t st = 0; st < kNumHealthStates; ++st) {
        o.dwell[st] = ladder_.dwell(static_cast<HealthState>(st), end);
    }
    o.group = cfg_.stats_group;
    o.end_tick = end;
    o.result = pipeline_.finish();
    o.dedup = dedup_recorder_.take();
}

} // namespace

double
sessionDemandMBps(const PipelineConfig &cfg)
{
    const VideoProfile &p = cfg.profile;
    const double frame_bytes =
        static_cast<double>(p.mabsPerFrame()) *
        static_cast<double>(p.mab_dim * p.mab_dim * 3);
    // Decode writes each frame once, the display reads it once.
    return 2.0 * frame_bytes * static_cast<double>(p.fps) / 1e6;
}

std::uint64_t
sessionFramebufferBytes(const PipelineConfig &cfg)
{
    const VideoProfile &p = cfg.profile;
    const std::uint64_t frame_bytes =
        static_cast<std::uint64_t>(p.mabsPerFrame()) * p.mab_dim *
        p.mab_dim * 3;
    // Triple buffering, or batch+2 slots when batching, plus the
    // MACH retention window (frames that must stay resident for
    // inter-frame pointers).
    std::uint64_t slots =
        std::max<std::uint64_t>(3, cfg.scheme.batch + 2);
    if (cfg.scheme.mach) {
        slots += cfg.mach.num_machs - 1;
    }
    return slots * frame_bytes;
}

RehearsedSession
rehearseSession(const SessionConfig &cfg)
{
    Session s(cfg);
    RehearsedSession r;
    r.immediate = s.done();
    while (!s.done()) {
        r.local_end = s.nextTick();
        s.stepVsync();
    }
    s.finish(r.local_end, r.outcome);
    return r;
}

void
rebaseOutcome(SessionOutcome &o, Tick start)
{
    o.start_offset = start;
    o.end_tick += start;
    o.dwell[static_cast<std::size_t>(HealthState::kHealthy)] += start;
}

} // namespace vstream
