#include "host_gauge.hh"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <random>
#include <vector>

#include "bench_core.hh"
#include "layers.hh"
#include "sim/parallel.hh"

namespace perfbench
{

namespace
{

/** Steps of eight independent multiply-xorshift chains per reading. */
constexpr std::uint32_t kChainSteps = 100000;
/** Independent random reads per reading, over kTableBytes. */
constexpr std::uint32_t kReads = 150000;
constexpr std::size_t kTableBytes = 1 << 20;

std::atomic<std::uint64_t> g_sink{0};

/** The read part's table and its read order, fixed for the process. */
struct ReadSet
{
    std::vector<std::uint64_t> table;
    std::vector<std::uint32_t> order;

    ReadSet() : table(kTableBytes / sizeof(std::uint64_t)), order(kReads)
    {
        std::mt19937_64 rng(0x9a06eULL);
        for (std::uint64_t &v : table) {
            v = rng();
        }
        for (std::uint32_t &i : order) {
            i = static_cast<std::uint32_t>(rng() % table.size());
        }
    }
};

const ReadSet &
readSet()
{
    static const ReadSet kSet;
    return kSet;
}

} // namespace

double
gaugeNs()
{
    const ReadSet &rs = readSet();
    const std::int64_t t0 = nowNs();
    // Volatile state: one load and one store per chain step at any
    // optimisation level, so every build runs the same instructions.
    volatile std::uint64_t h[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    for (std::uint32_t i = 0; i < kChainSteps; ++i) {
        for (std::uint32_t j = 0; j < 8; ++j) {
            const std::uint64_t x = (h[j] ^ (i + j)) * 0x100000001b3ULL;
            h[j] = x ^ (x >> 29);
        }
    }
    std::uint64_t sum = 0;
    for (const std::uint32_t i : rs.order) {
        sum += rs.table[i];
    }
    g_sink.fetch_xor(h[0] ^ h[7] ^ sum, std::memory_order_relaxed);
    return static_cast<double>(nowNs() - t0);
}

double
gaugeMedianNs(int reps)
{
    std::vector<double> g;
    for (int k = 0; k < reps; ++k) {
        g.push_back(gaugeNs());
    }
    return median(g);
}

double
gaugeParallelNs(unsigned jobs)
{
    std::vector<double> g(jobs, 0.0);
    vstream::parallelFor(jobs, jobs, [&](std::size_t i) { g[i] = gaugeNs(); });
    return *std::max_element(g.begin(), g.end());
}

} // namespace perfbench
