/**
 * @file
 * The benchmark's three workloads, generated from a seed.
 *
 *  - fig11: the 16 Table-1 videos x the six schemes at 4x4 mabs;
 *  - mab16: the same videos under GAB only, with 16x16 mabs;
 *  - fleet: rounds of short Poisson-arriving sessions through the
 *    Placer at the soak's serve settings, rotating its five fault
 *    mixes.
 *
 * The seed only perturbs generator seeds (video content, arrival
 * schedule); the simulator receives the generated profiles and
 * arrivals and nothing else.  kDefaultSeed reproduces the repository
 * figures' own content exactly.
 */

#ifndef VSTREAM_PERFBENCH_WORKLOADS_HH
#define VSTREAM_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline_config.hh"
#include "serve/arrivals.hh"
#include "serve/placer.hh"
#include "serve/session.hh"

namespace perfbench
{

/** The seed at which profiles equal the repository's Table 1. */
constexpr std::uint64_t kDefaultSeed = 1;
/** The seed held back from tuning for the paper-error check. */
constexpr std::uint64_t kHeldOutSeed = 2;

/** Frames simulated per video in fig11 and mab16. */
constexpr std::uint32_t kFramesPerVideo = 40;

/** Generator seed @p base perturbed by workload seed @p seed
 * (identity at kDefaultSeed). */
std::uint64_t perturb(std::uint64_t base, std::uint64_t seed);

/** One playback unit: one video under one scheme. */
struct Unit
{
    vstream::PipelineConfig config;
    /** "V3/G" */
    std::string label;
};

/** fig11: 16 videos x L B R S M G, video-major. */
std::vector<Unit> fig11Units(std::uint64_t seed);

/** mab16: 16 videos x G with 16x16 mabs. */
std::vector<Unit> mab16Units(std::uint64_t seed);

/** The paper's Fig. 11 averages for L B R S M G, in scheme order. */
const std::vector<double> &paperFig11Averages();

/**
 * Mean absolute gap, in percentage points, between each scheme's
 * average normalized energy and paperFig11Averages().  @p energies
 * holds fig11Units() results' total energies in unit order.
 */
double paperErrorPp(const std::vector<double> &energies);

// ---- fleet -------------------------------------------------------------

/** The soak's five session mixes. */
constexpr std::uint32_t kNumMixes = 5;
extern const char *const kMixNames[kNumMixes];

/** Sessions the Placer rehearses per parallel block (FleetConfig's
 * default, which the soak runs); one block is the fleet's timed unit. */
constexpr std::uint32_t kRehearseBlock = 256;

/** Sessions offered per fleet round: one Placer run of eight whole
 * blocks, long enough to reach the soak's max_active. */
constexpr std::uint32_t kSessionsPerRound = 8 * kRehearseBlock;

/** Fleet configuration at @p jobs rehearsal workers: the soak's
 * budgets, max_active, shard count and rebalance period. */
vstream::FleetConfig fleetConfig(unsigned jobs);

/** The first @p count arrivals of round @p round (ids continue across
 * rounds, so every session of a run has distinct content). */
std::vector<vstream::ArrivalEvent>
fleetArrivals(std::uint64_t seed, std::uint64_t round,
              std::uint32_t count = kSessionsPerRound);

/** A whale: over every budget, so admission rejects it. */
bool isWhale(std::uint64_t id);

/**
 * The session of one arrival, as the Placer builds it: the soak's
 * health/breaker settings and fault mixes at 48x24.  Pure in
 * (@p seed, @p a), as crash-free Placer runs and the benchmark's own
 * re-rehearsal both rely on.
 */
vstream::SessionConfig fleetSession(std::uint64_t seed,
                                    const vstream::ArrivalEvent &a,
                                    const std::vector<std::uint8_t> &blob);

/** The intact ingest trace the trace mix corrupts. */
std::vector<std::uint8_t> traceBlob();

} // namespace perfbench

#endif // VSTREAM_PERFBENCH_WORKLOADS_HH
