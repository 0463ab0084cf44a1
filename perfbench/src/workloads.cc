#include "workloads.hh"

#include <cmath>
#include <sstream>

#include "video/trace.hh"
#include "video/workloads.hh"

namespace perfbench
{

using namespace vstream;

std::uint64_t
perturb(std::uint64_t base, std::uint64_t seed)
{
    return base ^ ((seed - kDefaultSeed) * 0x9e3779b97f4a7c15ULL);
}

namespace
{

const Scheme kFig11Schemes[] = {
    Scheme::kBaseline,    Scheme::kBatching, Scheme::kRacing,
    Scheme::kRaceToSleep, Scheme::kMab,      Scheme::kGab,
};

Unit
makeUnit(VideoProfile p, Scheme s)
{
    Unit u;
    u.label = p.key + "/" + schemeKey(s);
    u.config.profile = std::move(p);
    u.config.scheme = SchemeConfig::make(s);
    u.config.finalize();
    return u;
}

} // namespace

std::vector<Unit>
fig11Units(std::uint64_t seed)
{
    std::vector<Unit> units;
    for (const VideoProfile &wp : workloadTable()) {
        VideoProfile p = scaledWorkload(wp.key, kFramesPerVideo);
        p.seed = perturb(p.seed, seed);
        for (const Scheme s : kFig11Schemes) {
            units.push_back(makeUnit(p, s));
        }
    }
    return units;
}

std::vector<Unit>
mab16Units(std::uint64_t seed)
{
    std::vector<Unit> units;
    for (const VideoProfile &wp : workloadTable()) {
        VideoProfile p = scaledWorkload(wp.key, kFramesPerVideo);
        p.seed = perturb(p.seed, seed);
        p.mab_dim = 16;
        units.push_back(makeUnit(std::move(p), Scheme::kGab));
    }
    return units;
}

const std::vector<double> &
paperFig11Averages()
{
    static const std::vector<double> kAvg = {1.0,   0.93,  1.12,
                                             0.887, 0.875, 0.79};
    return kAvg;
}

double
paperErrorPp(const std::vector<double> &energies)
{
    const std::vector<double> &paper = paperFig11Averages();
    const std::size_t n_schemes = paper.size();
    const std::size_t n_videos = energies.size() / n_schemes;
    double err = 0.0;
    for (std::size_t s = 0; s < n_schemes; ++s) {
        double norm = 0.0;
        for (std::size_t v = 0; v < n_videos; ++v) {
            norm += energies[v * n_schemes + s] /
                    energies[v * n_schemes];
        }
        err += std::abs(norm / static_cast<double>(n_videos) - paper[s]);
    }
    return 100.0 * err / static_cast<double>(n_schemes);
}

// ---- fleet -------------------------------------------------------------

const char *const kMixNames[kNumMixes] = {"clean", "stall", "dram",
                                          "digest", "trace"};

FleetConfig
fleetConfig(unsigned jobs)
{
    FleetConfig f;
    f.serve.bandwidth_budget_mbps = 300.0;
    f.serve.framebuffer_budget_bytes = 64ULL << 20;
    f.serve.max_active = 224;
    f.shards = 4;
    f.jobs = jobs;
    f.rehearse_block = kRehearseBlock;
    f.rebalance_period = static_cast<Tick>(1) * sim_clock::s;
    return f;
}

std::vector<ArrivalEvent>
fleetArrivals(std::uint64_t seed, std::uint64_t round,
              std::uint32_t count)
{
    PoissonArrivalConfig pa;
    pa.seed = perturb(0xf1ee7ULL, seed) + round * 0x9e37ULL;
    pa.rate_per_s = 550.0;
    pa.count = count;
    pa.first_id = round * kSessionsPerRound;
    pa.leave_probability = 0.3;
    pa.min_watch = static_cast<Tick>(100) * sim_clock::ms;
    pa.max_watch = static_cast<Tick>(350) * sim_clock::ms;
    pa.num_mixes = kNumMixes;
    return poissonArrivals(pa);
}

bool
isWhale(std::uint64_t id)
{
    return id % 1000 == 999;
}

namespace
{

VideoProfile
sessionProfile(std::uint64_t seed, std::uint64_t id,
               std::uint32_t frames)
{
    VideoProfile p;
    p.key = "S";
    p.key += std::to_string(id);
    p.width = 48;
    p.height = 24;
    p.frame_count = frames;
    p.seed = perturb(0x50a1u + id * 0x9e37u, seed);
    return p;
}

} // namespace

SessionConfig
fleetSession(std::uint64_t seed, const ArrivalEvent &a,
             const std::vector<std::uint8_t> &blob)
{
    const std::uint64_t id = a.id;
    SessionConfig s;
    s.id = id;
    if (isWhale(id)) {
        s.pipeline.profile = sessionProfile(seed, id, 48);
        s.pipeline.profile.width = 1920;
        s.pipeline.profile.height = 1080;
        s.pipeline.scheme = SchemeConfig::make(Scheme::kRaceToSleep);
        return s;
    }
    const std::uint32_t mix = a.mix % kNumMixes;
    s.stats_group = kMixNames[mix];
    HealthConfig &h = s.health;
    h.window_vsyncs = 8;
    h.degrade_drops = 3;
    h.degrade_underruns = 2;
    h.abandon_budget = 6;
    h.quarantine_windows = 2;
    h.recover_windows = 2;
    h.evict_windows = 2;
    BreakerConfig &b = s.breaker;
    b.false_hit_threshold = 0.02;
    b.min_lookups = 32;
    b.cooldown_base = static_cast<Tick>(50) * sim_clock::ms;
    b.cooldown_cap = static_cast<Tick>(200) * sim_clock::ms;
    b.jitter_frac = 0.2;

    PipelineConfig &cfg = s.pipeline;
    cfg.profile = sessionProfile(
        seed, id, 24 + static_cast<std::uint32_t>(id / 7 % 3) * 4);
    const Scheme schemes[] = {Scheme::kRaceToSleep, Scheme::kGab,
                              Scheme::kMab, Scheme::kBatching};
    cfg.scheme = SchemeConfig::make(
        mix == 3 ? Scheme::kGab : schemes[(id / kNumMixes) % 4]);
    cfg.faults.seed = 0xfa0175eedULL;

    switch (mix) {
    case 1: // arrival-stall storm: degrade, then recover
        cfg.arrival.enabled = true;
        cfg.arrival.bandwidth_mbps = 2.0;
        cfg.arrival.jitter_frac = 0.2;
        cfg.preroll_frames = 2;
        cfg.arrival.seed = perturb(0xa441 + id, seed);
        cfg.faults.rules.push_back(parseFaultRule(
            FaultClass::kNetworkStall,
            "p=0.35,from=1ms,until=25ms,len=60ms"));
        h.quarantine_windows = 4;
        break;
    case 2: // DRAM timeout storm: abandon budget exhausted -> evicted
        cfg.faults.dram_retry_limit = 2;
        cfg.faults.rules.push_back(parseFaultRule(
            FaultClass::kDramTimeout, "p=0.6,from=50ms,until=350ms"));
        break;
    case 3: // MACH false-hit storm: breaker trips, then recovers
        cfg.mach.verify_on_hit = true;
        cfg.faults.rules.push_back(parseFaultRule(
            FaultClass::kDigestCollision,
            "p=0.25,from=20ms,until=200ms"));
        break;
    case 4: { // corrupted ingest trace: quarantined at start
        s.trace_blob = blob;
        const std::size_t off =
            64 + (static_cast<std::size_t>(id) * 131) %
                     (s.trace_blob.size() - 64);
        s.trace_blob[off] ^= 0x5a;
        break;
    }
    default: // clean
        break;
    }
    cfg.faults = cfg.faults.forSession(id);
    return s;
}

std::vector<std::uint8_t>
traceBlob()
{
    VideoProfile p;
    p.key = "TB";
    p.width = 32;
    p.height = 16;
    p.frame_count = 3;
    p.seed = 777;
    std::ostringstream os(std::ios::binary);
    writeTrace(os, p);
    const std::string s = os.str();
    return {s.begin(), s.end()};
}

} // namespace perfbench
