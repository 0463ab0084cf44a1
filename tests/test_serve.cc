/**
 * @file
 * Multi-session server tests: circuit-breaker state machine,
 * degradation-ladder bookkeeping, admission control, session
 * isolation (bit-identity with solo runs), and a trace-corruption
 * fuzz pass over the per-session fault domain.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <utility>
#include <vector>

#include "serve/session_manager.hh"
#include "sim/parallel.hh"
#include "sim/random.hh"
#include "sim/stats_registry.hh"
#include "video/trace.hh"

namespace vstream
{
namespace
{

VideoProfile
tinyProfile(std::uint32_t frames = 48, std::uint64_t seed = 4242)
{
    VideoProfile p;
    p.key = "T";
    p.width = 96;
    p.height = 48;
    p.frame_count = frames;
    p.seed = seed;
    return p;
}

SessionConfig
tinySession(std::uint64_t id, Scheme scheme = Scheme::kGab)
{
    SessionConfig s;
    s.id = id;
    s.pipeline.profile = tinyProfile(48, 4242 + id);
    s.pipeline.scheme = SchemeConfig::make(scheme);
    return s;
}

std::vector<std::uint8_t>
traceBlob(const VideoProfile &p)
{
    std::ostringstream os(std::ios::binary);
    writeTrace(os, p);
    const std::string s = os.str();
    return {s.begin(), s.end()};
}

// ---------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------

BreakerConfig
testBreaker()
{
    BreakerConfig b;
    b.false_hit_threshold = 0.10;
    b.min_lookups = 10;
    b.cooldown_base = 100 * sim_clock::ms;
    b.cooldown_cap = 400 * sim_clock::ms;
    b.jitter_frac = 0.0; // deterministic cooldown edges
    return b;
}

TEST(CircuitBreaker, StartsClosedAndIgnoresCleanWindows)
{
    CircuitBreaker cb(testBreaker());
    Random rng(1);
    EXPECT_EQ(cb.state(), CircuitBreaker::State::kClosed);
    EXPECT_FALSE(cb.onWindow(100, 0, sim_clock::ms, rng));
    EXPECT_FALSE(cb.bypass());
    EXPECT_EQ(cb.trips(), 0u);
}

TEST(CircuitBreaker, TripsOnFalseHitStorm)
{
    CircuitBreaker cb(testBreaker());
    Random rng(1);
    // 20 false hits out of 100 lookups = 20% > 10% threshold.
    EXPECT_TRUE(cb.onWindow(100, 20, sim_clock::ms, rng));
    EXPECT_EQ(cb.state(), CircuitBreaker::State::kOpen);
    EXPECT_TRUE(cb.bypass());
    EXPECT_EQ(cb.trips(), 1u);
    EXPECT_EQ(cb.cooldownEnd(), sim_clock::ms + 100 * sim_clock::ms);
}

TEST(CircuitBreaker, BelowMinLookupsNeverTrips)
{
    CircuitBreaker cb(testBreaker());
    Random rng(1);
    // 9 lookups, all false: storm-dense but statistically tiny.
    EXPECT_FALSE(cb.onWindow(9, 9, sim_clock::ms, rng));
    EXPECT_EQ(cb.state(), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreaker, ReprobesAfterCooldownAndCloses)
{
    CircuitBreaker cb(testBreaker());
    Random rng(1);
    cb.onWindow(100, 20, 0, rng);
    ASSERT_EQ(cb.state(), CircuitBreaker::State::kOpen);

    // Still cooling: samples are ignored, state stays Open.
    EXPECT_FALSE(cb.onWindow(100, 0, 50 * sim_clock::ms, rng));
    EXPECT_EQ(cb.state(), CircuitBreaker::State::kOpen);

    // Cooldown expired: re-probe (bypass lifts for one window).
    EXPECT_TRUE(cb.onWindow(100, 0, 150 * sim_clock::ms, rng));
    EXPECT_EQ(cb.state(), CircuitBreaker::State::kHalfOpen);
    EXPECT_FALSE(cb.bypass());
    EXPECT_EQ(cb.reprobes(), 1u);

    // Clean probe window: the breaker closes for good.
    EXPECT_TRUE(cb.onWindow(100, 0, 170 * sim_clock::ms, rng));
    EXPECT_EQ(cb.state(), CircuitBreaker::State::kClosed);
    EXPECT_EQ(cb.trips(), 1u);
}

TEST(CircuitBreaker, RetripDoublesCooldownUpToCap)
{
    CircuitBreaker cb(testBreaker());
    Random rng(1);
    // Trip 1: cooldown 100ms.
    cb.onWindow(100, 20, 0, rng);
    EXPECT_EQ(cb.cooldownEnd(), 100 * sim_clock::ms);
    // Re-probe at 150ms, storm again: trip 2, cooldown 200ms.
    cb.onWindow(100, 0, 150 * sim_clock::ms, rng);
    ASSERT_EQ(cb.state(), CircuitBreaker::State::kHalfOpen);
    cb.onWindow(100, 20, 160 * sim_clock::ms, rng);
    ASSERT_EQ(cb.state(), CircuitBreaker::State::kOpen);
    EXPECT_EQ(cb.trips(), 2u);
    EXPECT_EQ(cb.cooldownEnd(),
              160 * sim_clock::ms + 200 * sim_clock::ms);
    // Trips 3 and 4: 400ms cap reached (and held).
    cb.onWindow(100, 0, 500 * sim_clock::ms, rng);
    cb.onWindow(100, 20, 510 * sim_clock::ms, rng);
    EXPECT_EQ(cb.cooldownEnd(),
              510 * sim_clock::ms + 400 * sim_clock::ms);
    cb.onWindow(100, 0, sim_clock::s, rng);
    cb.onWindow(100, 20, sim_clock::s + sim_clock::ms, rng);
    EXPECT_EQ(cb.cooldownEnd(),
              sim_clock::s + sim_clock::ms + 400 * sim_clock::ms);
}

TEST(CircuitBreaker, JitterStaysWithinFraction)
{
    BreakerConfig cfg = testBreaker();
    cfg.jitter_frac = 0.5;
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
        CircuitBreaker cb(cfg);
        Random rng(seed);
        cb.onWindow(100, 20, 0, rng);
        const Tick base = 100 * sim_clock::ms;
        EXPECT_GE(cb.cooldownEnd(), base);
        EXPECT_LE(cb.cooldownEnd(), base + base / 2);
    }
}

// ---------------------------------------------------------------------
// Health ladder
// ---------------------------------------------------------------------

TEST(HealthLadder, TracksDwellPerState)
{
    HealthLadder ladder;
    EXPECT_EQ(ladder.state(), HealthState::kHealthy);
    ladder.transitionTo(HealthState::kDegraded, 100);
    ladder.transitionTo(HealthState::kHealthy, 250);
    ladder.transitionTo(HealthState::kQuarantined, 400);
    EXPECT_EQ(ladder.dwell(HealthState::kHealthy, 500), 100 + 150u);
    EXPECT_EQ(ladder.dwell(HealthState::kDegraded, 500), 150u);
    EXPECT_EQ(ladder.dwell(HealthState::kQuarantined, 500), 100u);
    EXPECT_EQ(ladder.transitions(), 3u);
    EXPECT_FALSE(ladder.evicted());
    ladder.transitionTo(HealthState::kEvicted, 450);
    EXPECT_TRUE(ladder.evicted());
}

// ---------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------

TEST(Admission, RejectsWhatCouldNeverFit)
{
    ServeConfig cfg;
    cfg.bandwidth_budget_mbps = 1.0; // below any session's demand
    SessionManager mgr(cfg);
    EXPECT_EQ(mgr.submit(tinySession(0)), Admission::kRejected);
    EXPECT_EQ(mgr.rejected(), 1u);
    EXPECT_EQ(mgr.admitted(), 0u);
}

TEST(AdmissionDeathTest, NanBandwidthBudgetIsRejected)
{
    // NaN fails every ordered compare, so a plain `<= 0` check would
    // let it through and reject every session as a whale.
    ServeConfig cfg;
    cfg.bandwidth_budget_mbps = std::numeric_limits<double>::quiet_NaN();
    EXPECT_DEATH(cfg.validate(), "bandwidth budget must be positive");
}

TEST(Admission, QueuesOverBudgetAndDrainsFifo)
{
    const double demand =
        sessionDemandMBps(tinySession(0).pipeline);
    ServeConfig cfg;
    // Room for exactly two concurrent sessions.
    cfg.bandwidth_budget_mbps = 2.5 * demand;
    SessionManager mgr(cfg);
    EXPECT_EQ(mgr.submit(tinySession(0)), Admission::kAdmitted);
    EXPECT_EQ(mgr.submit(tinySession(1)), Admission::kAdmitted);
    EXPECT_EQ(mgr.submit(tinySession(2)), Admission::kQueued);
    EXPECT_EQ(mgr.submit(tinySession(3)), Admission::kQueued);
    EXPECT_EQ(mgr.waitingCount(), 2u);
    EXPECT_GT(mgr.bandwidthReservedMBps(), 2.0 * demand - 1e-9);

    mgr.runAll();
    // Everyone eventually ran; budgets fully released.
    EXPECT_EQ(mgr.outcomes().size(), 4u);
    EXPECT_EQ(mgr.admitted(), 4u);
    EXPECT_EQ(mgr.queuedTotal(), 2u);
    EXPECT_EQ(mgr.bandwidthReservedMBps(), 0.0);
    EXPECT_EQ(mgr.framebufferReservedBytes(), 0u);
    // Queued sessions start only after a finisher releases budget.
    for (const SessionOutcome &o : mgr.outcomes()) {
        if (o.id >= 2) {
            EXPECT_GT(o.start_offset, 0u);
        } else {
            EXPECT_EQ(o.start_offset, 0u);
        }
    }
}

TEST(Admission, MaxActiveCapQueues)
{
    ServeConfig cfg;
    cfg.max_active = 1;
    SessionManager mgr(cfg);
    EXPECT_EQ(mgr.submit(tinySession(0)), Admission::kAdmitted);
    EXPECT_EQ(mgr.submit(tinySession(1)), Admission::kQueued);
    mgr.runAll();
    EXPECT_EQ(mgr.outcomes().size(), 2u);
}

// ---------------------------------------------------------------------
// Isolation: concurrent no-fault sessions == solo runs, bit for bit
// ---------------------------------------------------------------------

TEST(Isolation, CleanSessionsMatchSoloRunsBitIdentical)
{
    const Scheme schemes[] = {Scheme::kBaseline, Scheme::kRaceToSleep,
                              Scheme::kMab, Scheme::kGab};
    SessionManager mgr(ServeConfig{});
    for (std::uint64_t id = 0; id < 8; ++id) {
        ASSERT_EQ(mgr.submit(tinySession(id, schemes[id % 4])),
                  Admission::kAdmitted);
    }
    mgr.runAll();
    ASSERT_EQ(mgr.outcomes().size(), 8u);

    for (const SessionOutcome &o : mgr.outcomes()) {
        VideoPipeline solo(tinySession(o.id, schemes[o.id % 4]).pipeline);
        const PipelineResult r = solo.run();
        EXPECT_EQ(o.final_state, HealthState::kHealthy);
        // EXPECT_EQ on doubles: bit-identity, not approximation.
        EXPECT_EQ(r.totalEnergy(), o.result.totalEnergy());
        EXPECT_EQ(r.drops, o.result.drops);
        EXPECT_EQ(r.underruns, o.result.underruns);
        EXPECT_EQ(r.sleep_events, o.result.sleep_events);
        EXPECT_EQ(r.mach.lookups, o.result.mach.lookups);
    }
}

// ---------------------------------------------------------------------
// Fault domains: one session's damage never leaks to neighbours
// ---------------------------------------------------------------------

TEST(FaultDomain, DramStormEvictsOnlyTheFaultySession)
{
    SessionManager mgr(ServeConfig{});
    SessionConfig faulty = tinySession(1);
    faulty.pipeline.faults.dram_retry_limit = 2;
    faulty.pipeline.faults.rules.push_back(parseFaultRule(
        FaultClass::kDramTimeout, "p=0.6,from=10ms,until=600ms"));
    faulty.pipeline.faults = faulty.pipeline.faults.forSession(1);
    faulty.health.window_vsyncs = 8;
    faulty.health.abandon_budget = 4;
    faulty.health.evict_windows = 2;

    ASSERT_EQ(mgr.submit(tinySession(0)), Admission::kAdmitted);
    ASSERT_EQ(mgr.submit(std::move(faulty)), Admission::kAdmitted);
    ASSERT_EQ(mgr.submit(tinySession(2)), Admission::kAdmitted);
    mgr.runAll();
    ASSERT_EQ(mgr.outcomes().size(), 3u);

    for (const SessionOutcome &o : mgr.outcomes()) {
        if (o.id == 1) {
            EXPECT_EQ(o.final_state, HealthState::kEvicted);
            continue;
        }
        // Neighbours: healthy and bit-identical to solo.
        VideoPipeline solo(tinySession(o.id).pipeline);
        const PipelineResult r = solo.run();
        EXPECT_EQ(o.final_state, HealthState::kHealthy);
        EXPECT_EQ(r.totalEnergy(), o.result.totalEnergy());
        EXPECT_EQ(r.drops, o.result.drops);
    }
    EXPECT_EQ(mgr.evicted(), 1u);
}

TEST(FaultDomain, CorruptTraceQuarantinesAtStart)
{
    std::vector<std::uint8_t> blob = traceBlob(tinyProfile(4, 7));
    blob[blob.size() / 2] ^= 0xff;

    SessionManager mgr(ServeConfig{});
    SessionConfig bad = tinySession(0);
    bad.trace_blob = std::move(blob);
    bad.health.evict_windows = 1;
    ASSERT_EQ(mgr.submit(std::move(bad)), Admission::kAdmitted);
    mgr.runAll();
    ASSERT_EQ(mgr.outcomes().size(), 1u);
    const SessionOutcome &o = mgr.outcomes().front();
    EXPECT_EQ(o.final_state, HealthState::kEvicted);
    EXPECT_NE(o.trace_error, TraceError::kNone);
}

TEST(FaultDomain, IntactTraceStaysHealthy)
{
    SessionManager mgr(ServeConfig{});
    SessionConfig good = tinySession(0);
    good.trace_blob = traceBlob(tinyProfile(4, 7));
    ASSERT_EQ(mgr.submit(std::move(good)), Admission::kAdmitted);
    mgr.runAll();
    EXPECT_EQ(mgr.outcomes().front().final_state,
              HealthState::kHealthy);
    EXPECT_EQ(mgr.outcomes().front().trace_error, TraceError::kNone);
}

/**
 * Trace-corruption fuzz: random byte flips, truncations, and garbage
 * prefixes must never crash the server - every damaged blob lands on
 * the ladder (quarantine/evict) or is survivable (kSkipFrame), and a
 * clean neighbour session stays bit-identical to its solo run.
 */
TEST(FaultDomain, TraceCorruptionFuzzNeverLeaks)
{
    const std::vector<std::uint8_t> intact = traceBlob(tinyProfile(4, 7));
    VideoPipeline solo_pipe(tinySession(99).pipeline);
    const PipelineResult solo = solo_pipe.run();
    Random rng(20260806);

    for (int round = 0; round < 40; ++round) {
        std::vector<std::uint8_t> blob = intact;
        const std::uint64_t kind = rng.next() % 4;
        if (kind == 0) {
            // Flip 1..8 random bytes.
            const std::uint64_t flips = 1 + rng.next() % 8;
            for (std::uint64_t f = 0; f < flips; ++f) {
                blob[rng.next() % blob.size()] ^=
                    static_cast<std::uint8_t>(1 + rng.next() % 255);
            }
        } else if (kind == 1) {
            // Truncate at a random point.
            blob.resize(rng.next() % blob.size());
        } else if (kind == 2) {
            // Garbage prefix (bad magic).
            for (std::size_t b = 0; b < 4 && b < blob.size(); ++b) {
                blob[b] = static_cast<std::uint8_t>(rng.next());
            }
        } else {
            // Random tail past the trailer.
            blob.push_back(static_cast<std::uint8_t>(rng.next()));
        }

        SessionManager mgr(ServeConfig{});
        SessionConfig fuzzed = tinySession(0);
        fuzzed.trace_blob = std::move(blob);
        fuzzed.trace_policy = (round % 2 == 0)
                                  ? TracePolicy::kFailClean
                                  : TracePolicy::kSkipFrame;
        fuzzed.health.evict_windows = 1;
        ASSERT_EQ(mgr.submit(std::move(fuzzed)), Admission::kAdmitted);
        ASSERT_EQ(mgr.submit(tinySession(99)), Admission::kAdmitted);
        mgr.runAll();
        ASSERT_EQ(mgr.outcomes().size(), 2u);

        for (const SessionOutcome &o : mgr.outcomes()) {
            if (o.id != 99) {
                continue;
            }
            // The clean neighbour never notices the fuzzed blob.
            EXPECT_EQ(o.final_state, HealthState::kHealthy);
            EXPECT_EQ(o.result.totalEnergy(), solo.totalEnergy());
            EXPECT_EQ(o.result.drops, solo.drops);
        }
    }
}

// ---------------------------------------------------------------------
// Breaker inside a session: storm trips it, recovery closes it
// ---------------------------------------------------------------------

TEST(SessionBreaker, StormTripsAndCooldownRecovers)
{
    SessionManager mgr(ServeConfig{});
    SessionConfig s = tinySession(0, Scheme::kGab);
    s.pipeline.profile.frame_count = 120;
    s.pipeline.mach.verify_on_hit = true;
    s.pipeline.faults.rules.push_back(parseFaultRule(
        FaultClass::kDigestCollision, "p=0.25,from=100ms,until=700ms"));
    s.pipeline.faults = s.pipeline.faults.forSession(0);
    s.health.window_vsyncs = 8;
    s.breaker.min_lookups = 16;
    s.breaker.cooldown_base = 100 * sim_clock::ms;
    ASSERT_EQ(mgr.submit(std::move(s)), Admission::kAdmitted);
    mgr.runAll();

    const SessionOutcome &o = mgr.outcomes().front();
    EXPECT_GT(o.breaker_trips, 0u);
    EXPECT_GT(o.breaker_reprobes, 0u);
    // The storm ends at 700ms of a 2s playback: the last re-probe
    // sees a clean window and the breaker ends Closed.
    EXPECT_EQ(o.breaker_state, CircuitBreaker::State::kClosed);
    EXPECT_EQ(o.final_state, HealthState::kHealthy);
    EXPECT_EQ(mgr.breakerTrips(), o.breaker_trips);
}

// ---------------------------------------------------------------------
// Rehearsal fan-out rides the persistent pool: no per-wave spawns
// ---------------------------------------------------------------------

TEST(Rehearsal, PrecomputeWavesSpawnThreadsOnlyOnce)
{
    const auto makeWave = [](std::uint64_t base) {
        std::vector<SessionConfig> wave;
        for (std::uint64_t i = 0; i < 6; ++i) {
            wave.push_back(tinySession(base + i));
        }
        return wave;
    };

    // Warmup wave: the pool grows to the requested width here (and
    // only here - parallelMap used to spawn+join per call).
    {
        SessionManager warm(ServeConfig{});
        warm.precompute(makeWave(0), 4);
    }
    const std::uint64_t spawned =
        ThreadPool::instance().threadsSpawned();

    // Steady state: every later rehearsal wave - including the full
    // precompute -> submit -> replay cycle - reuses the warm workers.
    for (std::uint64_t round = 0; round < 3; ++round) {
        SessionManager mgr(ServeConfig{});
        std::vector<SessionConfig> wave = makeWave(100 * (round + 1));
        mgr.precompute(wave, 4);
        for (SessionConfig &s : wave) {
            ASSERT_EQ(mgr.submit(std::move(s)), Admission::kAdmitted);
        }
        mgr.runAll();
        EXPECT_EQ(mgr.outcomes().size(), 6u);
    }
    EXPECT_EQ(ThreadPool::instance().threadsSpawned(), spawned);
}

// ---------------------------------------------------------------------
// Rehearsing up front or at admission: the same outcomes
// ---------------------------------------------------------------------

/**
 * Twelve sessions over three titles (so the dedup tier shares
 * blocks), with early leavers, DRAM storms and digest storms.  Every
 * session has its own length, so no two finish on the same tick.
 */
std::vector<SessionConfig>
rehearsalMix()
{
    std::vector<SessionConfig> mix;
    for (std::uint64_t id = 0; id < 12; ++id) {
        SessionConfig s = tinySession(id);
        s.pipeline.profile.seed = 4242 + id % 3;
        s.pipeline.profile.frame_count =
            36 + 5 * static_cast<std::uint32_t>(id);
        s.dedup_record = true;
        s.health.window_vsyncs = 8;
        if (id % 4 == 1) {
            s.leave_after = (230 + 40 * id) * sim_clock::ms;
        } else if (id % 4 == 2) {
            s.pipeline.faults.dram_retry_limit = 2;
            s.pipeline.faults.rules.push_back(parseFaultRule(
                FaultClass::kDramTimeout, "p=0.6,from=10ms,until=600ms"));
            s.health.abandon_budget = 4;
            s.health.evict_windows = 2;
        } else if (id % 4 == 3) {
            s.pipeline.mach.verify_on_hit = true;
            s.pipeline.faults.rules.push_back(parseFaultRule(
                FaultClass::kDigestCollision,
                "p=0.25,from=100ms,until=500ms"));
            s.breaker.min_lookups = 16;
        }
        s.pipeline.faults = s.pipeline.faults.forSession(id);
        mix.push_back(std::move(s));
    }
    return mix;
}

void
expectSameResult(const PipelineResult &a, const PipelineResult &b)
{
    EXPECT_EQ(a.video_key, b.video_key);
    EXPECT_EQ(a.scheme, b.scheme);
    EXPECT_EQ(a.frames, b.frames);
    EXPECT_EQ(a.drops, b.drops);
    EXPECT_EQ(a.span, b.span);
    // Doubles by ==: bit-identity, not approximation.
    EXPECT_EQ(a.energy.dc, b.energy.dc);
    EXPECT_EQ(a.energy.mem_background, b.energy.mem_background);
    EXPECT_EQ(a.energy.vd_processing, b.energy.vd_processing);
    EXPECT_EQ(a.energy.sleep, b.energy.sleep);
    EXPECT_EQ(a.energy.short_slack, b.energy.short_slack);
    EXPECT_EQ(a.energy.mem_burst, b.energy.mem_burst);
    EXPECT_EQ(a.energy.mem_act_pre, b.energy.mem_act_pre);
    EXPECT_EQ(a.energy.transition, b.energy.transition);
    EXPECT_EQ(a.energy.mach_overhead, b.energy.mach_overhead);
    EXPECT_EQ(a.frame_records.size(), b.frame_records.size());
    EXPECT_EQ(a.mach.lookups, b.mach.lookups);
    EXPECT_EQ(a.mach.false_hits, b.mach.false_hits);
    EXPECT_EQ(a.mach.bypassed_lookups, b.mach.bypassed_lookups);
    EXPECT_EQ(a.dram_total.read_bursts, b.dram_total.read_bursts);
    EXPECT_EQ(a.dram_total.write_bursts, b.dram_total.write_bursts);
    EXPECT_EQ(a.dram_total.activations, b.dram_total.activations);
    EXPECT_EQ(a.sleep_events, b.sleep_events);
    EXPECT_EQ(a.vd_cache_miss_rate, b.vd_cache_miss_rate);
    EXPECT_EQ(a.faults.injected, b.faults.injected);
    EXPECT_EQ(a.faults.abandoned, b.faults.abandoned);
    EXPECT_EQ(a.underruns, b.underruns);
    EXPECT_EQ(a.dram_retries, b.dram_retries);
    EXPECT_EQ(a.dram_abandoned, b.dram_abandoned);
}

void
expectSameOutcome(const SessionOutcome &a, const SessionOutcome &b)
{
    SCOPED_TRACE(a.id);
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.final_state, b.final_state);
    EXPECT_EQ(a.trace_error, b.trace_error);
    EXPECT_EQ(a.breaker_trips, b.breaker_trips);
    EXPECT_EQ(a.breaker_reprobes, b.breaker_reprobes);
    EXPECT_EQ(a.breaker_state, b.breaker_state);
    EXPECT_EQ(a.dwell, b.dwell);
    EXPECT_EQ(a.left_early, b.left_early);
    EXPECT_EQ(a.queue_timeout, b.queue_timeout);
    EXPECT_EQ(a.group, b.group);
    EXPECT_EQ(a.start_offset, b.start_offset);
    EXPECT_EQ(a.end_tick, b.end_tick);
    expectSameResult(a.result, b.result);
    EXPECT_EQ(a.dedup.blocks.size(), b.dedup.blocks.size());
    EXPECT_EQ(a.dedup.skipped_collisions, b.dedup.skipped_collisions);
}

/** Counters and dedup totals, as the stats dump prints them. */
std::string
statsJson(SessionManager &mgr)
{
    StatsRegistry reg;
    mgr.regStats(reg);
    std::ostringstream os;
    reg.dumpJson(os);
    return os.str();
}

TEST(Rehearsal, OutcomesIdenticalAtAnyJobCount)
{
    ServeConfig cfg;
    cfg.max_active = 3;
    cfg.queue_deadline = 1500 * sim_clock::ms;
    DedupConfig dedup;
    dedup.enabled = true;

    SharedMachTier serial_tier(dedup, 1);
    SessionManager serial(cfg);
    serial.setDedup(&serial_tier);
    for (SessionConfig &s : rehearsalMix()) {
        serial.submit(std::move(s));
    }
    serial.runAll();

    SharedMachTier fanned_tier(dedup, 1);
    SessionManager fanned(cfg);
    fanned.setDedup(&fanned_tier);
    std::vector<SessionConfig> mix = rehearsalMix();
    fanned.precompute(mix, 4);
    for (SessionConfig &s : mix) {
        fanned.submit(std::move(s));
    }
    fanned.runAll();

    ASSERT_EQ(serial.outcomes().size(), fanned.outcomes().size());
    for (std::size_t i = 0; i < serial.outcomes().size(); ++i) {
        expectSameOutcome(serial.outcomes()[i], fanned.outcomes()[i]);
    }
    const DedupSettle &a = serial.dedupTotals();
    const DedupSettle &b = fanned.dedupTotals();
    EXPECT_EQ(a.shared_hits, b.shared_hits);
    EXPECT_EQ(a.self_hits, b.self_hits);
    EXPECT_EQ(a.bytes_elided, b.bytes_elided);
    EXPECT_EQ(a.unique_published, b.unique_published);
    EXPECT_EQ(a.false_hits, b.false_hits);
    EXPECT_EQ(a.blocked_writes, b.blocked_writes);
    EXPECT_EQ(serial.admitted(), fanned.admitted());
    EXPECT_EQ(serial.rejected(), fanned.rejected());
    EXPECT_EQ(serial.queuedTotal(), fanned.queuedTotal());
    EXPECT_EQ(serial.evicted(), fanned.evicted());
    EXPECT_EQ(serial.queueTimeouts(), fanned.queueTimeouts());
    EXPECT_EQ(serial.breakerTrips(), fanned.breakerTrips());
    EXPECT_EQ(serial.curTick(), fanned.curTick());
    EXPECT_EQ(statsJson(serial), statsJson(fanned));

    // The mix reaches every path it is meant to cover.
    EXPECT_GT(serial.queueTimeouts(), 0u);
    EXPECT_GT(serial.evicted(), 0u);
    EXPECT_GT(serial.breakerTrips(), 0u);
    EXPECT_GT(a.shared_hits, 0u);
}

} // namespace
} // namespace vstream
