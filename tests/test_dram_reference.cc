/**
 * @file
 * Differential test of the DRAM controller against a slow reference.
 *
 * The reference decomposes every burst by walking the interleaving
 * fields LSB to MSB (the RoRaBaCoCh-style orders of paper Table 2),
 * keeps one plain struct of row-buffer state per bank, finds refresh
 * epochs by stepping t_refi at a time, and re-implements posted-write
 * draining and the bounded, jittered retry of injected timeouts.
 * Random request streams run through it and through DramController;
 * every request's finish tick, bursts, row hits and activations, and
 * the per-requester energy counts, must agree.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <utility>
#include <vector>

#include "mem/address_map.hh"
#include "mem/dram_controller.hh"
#include "sim/fault_injector.hh"
#include "sim/random.hh"

namespace vstream
{
namespace
{

enum class Field
{
    kChannel,
    kColumn,
    kBank,
    kRank,
};

/** Decompose by walking the sub-row fields LSB to MSB. */
DramCoord
walkDecompose(const DramConfig &cfg, Addr addr)
{
    std::vector<Field> order;
    switch (cfg.map_order) {
      case AddrMapOrder::kRoRaBaCoCh:
        order = {Field::kChannel, Field::kColumn, Field::kBank,
                 Field::kRank};
        break;
      case AddrMapOrder::kRoRaBaChCo:
        order = {Field::kColumn, Field::kChannel, Field::kBank,
                 Field::kRank};
        break;
      case AddrMapOrder::kRoRaCoBaCh:
        order = {Field::kChannel, Field::kBank, Field::kColumn,
                 Field::kRank};
        break;
    }
    Addr a = (addr % cfg.capacity_bytes) / cfg.bytesPerBurst();
    DramCoord c;
    for (const Field f : order) {
        std::uint64_t count = 1;
        std::uint32_t *dst = nullptr;
        switch (f) {
          case Field::kChannel:
            count = cfg.channels;
            dst = &c.channel;
            break;
          case Field::kColumn:
            count = cfg.row_bytes / cfg.bytesPerBurst();
            dst = &c.column;
            break;
          case Field::kBank:
            count = cfg.banks_per_rank;
            dst = &c.bank;
            break;
          case Field::kRank:
            count = cfg.ranks_per_channel;
            dst = &c.rank;
            break;
        }
        *dst = static_cast<std::uint32_t>(a % count);
        a /= count;
    }
    c.row = a;
    return c;
}

/** Per-bank state machine and controller, written for clarity. */
class ReferenceDram
{
  public:
    ReferenceDram(const DramConfig &cfg, FaultInjector *faults)
        : cfg_(cfg), faults_(faults),
          banks_(static_cast<std::size_t>(cfg.channels) *
                 cfg.ranks_per_channel * cfg.banks_per_rank),
          queues_(banks_.size()), bus_free_(cfg.channels, 0),
          next_refresh_(cfg.channels, cfg.t_refi),
          jitter_(faults ? faults->config().seed ^ 0xd2a0b0ffULL : 0)
    {
    }

    MemResult
    access(const MemRequest &req, Tick now)
    {
        const Addr bb = cfg_.bytesPerBurst();
        MemResult res;
        res.finish_tick = now;
        for (Addr a = req.addr / bb * bb; a <= req.addr + req.size - 1;
             a += bb) {
            const DramCoord c = walkDecompose(cfg_, a);
            ++res.bursts;
            if (cfg_.write_queue_depth > 0 && req.op == MemOp::kWrite) {
                auto &q = queues_[bankOf(c)];
                q.emplace_back(c, req.requester);
                if (q.size() >= cfg_.write_queue_depth) {
                    drain(bankOf(c), now);
                }
                continue;
            }
            bool hit = false;
            bool act = false;
            const Tick f =
                burstWithRetry(c, req.op, req.requester, now, hit, act);
            res.finish_tick = std::max(res.finish_tick, f);
            res.row_hits += hit ? 1 : 0;
            res.activations += act ? 1 : 0;
        }
        return res;
    }

    void
    flushWrites(Tick now)
    {
        for (std::size_t b = 0; b < queues_.size(); ++b) {
            drain(b, now);
        }
    }

    std::uint64_t
    pendingWrites() const
    {
        std::uint64_t n = 0;
        for (const auto &q : queues_) {
            n += q.size();
        }
        return n;
    }

    std::array<DramActivityCounts, 4> counts{};
    std::uint64_t refreshes = 0;
    std::uint64_t retries = 0;
    std::uint64_t abandoned = 0;
    Tick backoff = 0;

  private:
    struct Bank
    {
        bool open = false;
        std::uint64_t row = 0;
        Tick ready = 0;
        Tick last = 0;
        Tick opened = 0;
    };

    std::size_t
    bankOf(const DramCoord &c) const
    {
        return (static_cast<std::size_t>(c.channel) *
                    cfg_.ranks_per_channel +
                c.rank) *
                   cfg_.banks_per_rank +
               c.bank;
    }

    DramActivityCounts &
    of(Requester r)
    {
        return counts[static_cast<std::size_t>(r)];
    }

    Tick
    refresh(std::uint32_t ch, Tick t)
    {
        if (!cfg_.refresh_enabled || t < next_refresh_[ch]) {
            return t;
        }
        // Step to the refresh epoch containing t.
        while (next_refresh_[ch] + cfg_.t_refi <= t) {
            next_refresh_[ch] += cfg_.t_refi;
        }
        ++refreshes;
        t = std::max(t, next_refresh_[ch] + cfg_.t_rfc);
        next_refresh_[ch] += cfg_.t_refi;
        return t;
    }

    Tick
    burst(const DramCoord &c, MemOp op, Requester r, Tick now,
          bool &hit, bool &act)
    {
        Bank &b = banks_[bankOf(c)];
        now = refresh(c.channel, now);
        if (b.open && now > b.last && now - b.last > cfg_.row_open_timeout) {
            b.open = false;
            ++of(r).precharges;
        }
        Tick t = std::max(now, b.ready);
        hit = b.open && b.row == c.row;
        act = !hit;
        if (!hit) {
            if (b.open) {
                // Conflict: precharge (tRAS honoured), then activate.
                t = std::max(t, b.opened + cfg_.t_ras) + cfg_.t_rp;
                ++of(r).precharges;
            }
            t += cfg_.t_rcd;
            b = Bank{true, c.row, t, t, t};
            ++of(r).activations;
        }
        const Tick finish =
            std::max(t + cfg_.t_cl, bus_free_[c.channel]) +
            cfg_.burstTime();
        bus_free_[c.channel] = finish;
        b.last = std::max(b.last, finish);
        b.ready = std::max(b.ready, finish);
        if (cfg_.page_policy == PagePolicy::kClosedPage) {
            b.open = false;
            b.ready = finish;
        }
        if (op == MemOp::kRead) {
            ++of(r).read_bursts;
            of(r).bytes_read += cfg_.bytesPerBurst();
        } else {
            ++of(r).write_bursts;
            of(r).bytes_written += cfg_.bytesPerBurst();
        }
        of(r).row_hits += hit ? 1 : 0;
        return finish;
    }

    Tick
    backoffDelay(std::uint32_t attempt)
    {
        const FaultConfig &fc = faults_->config();
        if (fc.dram_backoff_base == 0) {
            return 0;
        }
        // min(cap, base * 2^(attempt-1)).
        Tick delay = std::min(fc.dram_backoff_base, fc.dram_backoff_cap);
        for (std::uint32_t k = 1; k < attempt; ++k) {
            delay = std::min(delay * 2, fc.dram_backoff_cap);
        }
        if (fc.dram_backoff_jitter > 0.0) {
            const double u =
                static_cast<double>(splitMix64(jitter_) >> 11) * 0x1.0p-53;
            delay += static_cast<Tick>(static_cast<double>(delay) *
                                       fc.dram_backoff_jitter * u);
        }
        return delay;
    }

    Tick
    burstWithRetry(const DramCoord &c, MemOp op, Requester r, Tick now,
                   bool &hit, bool &act)
    {
        Tick finish = burst(c, op, r, now, hit, act);
        if (faults_ == nullptr) {
            return finish;
        }
        std::uint32_t attempts = 0;
        while (faults_->shouldInject(FaultClass::kDramTimeout, finish)) {
            if (attempts == faults_->config().dram_retry_limit) {
                ++abandoned;
                faults_->noteAbandoned(FaultClass::kDramTimeout);
                break;
            }
            ++attempts;
            ++retries;
            const Tick delay = backoffDelay(attempts);
            backoff += delay;
            bool h = false;
            bool a = false;
            finish = burst(c, op, r, finish + delay, h, a);
            faults_->noteRecovered(FaultClass::kDramTimeout);
        }
        return finish;
    }

    void
    drain(std::size_t bank, Tick now)
    {
        auto &q = queues_[bank];
        std::stable_sort(q.begin(), q.end(), [](const auto &a,
                                                const auto &b) {
            return a.first.row < b.first.row;
        });
        Tick t = now;
        for (const auto &[c, r] : q) {
            bool hit = false;
            bool act = false;
            t = burstWithRetry(c, MemOp::kWrite, r, t, hit, act);
        }
        q.clear();
    }

    DramConfig cfg_;
    FaultInjector *faults_;
    std::vector<Bank> banks_;
    std::vector<std::vector<std::pair<DramCoord, Requester>>> queues_;
    std::vector<Tick> bus_free_;
    std::vector<Tick> next_refresh_;
    std::uint64_t jitter_;
};

void
expectSameCounts(const DramActivityCounts &got,
                 const DramActivityCounts &want)
{
    EXPECT_EQ(got.activations, want.activations);
    EXPECT_EQ(got.precharges, want.precharges);
    EXPECT_EQ(got.read_bursts, want.read_bursts);
    EXPECT_EQ(got.write_bursts, want.write_bursts);
    EXPECT_EQ(got.row_hits, want.row_hits);
    EXPECT_EQ(got.bytes_read, want.bytes_read);
    EXPECT_EQ(got.bytes_written, want.bytes_written);
}

DramConfig
baseConfig()
{
    DramConfig cfg;
    cfg.capacity_bytes = 64ULL << 20;
    return cfg;
}

TEST(DramReference, DecomposeMatchesFieldWalk)
{
    Random rng(5);
    for (const AddrMapOrder order :
         {AddrMapOrder::kRoRaBaCoCh, AddrMapOrder::kRoRaBaChCo,
          AddrMapOrder::kRoRaCoBaCh}) {
        for (const std::uint32_t channels : {1u, 2u, 4u}) {
            for (const std::uint32_t ranks : {1u, 2u}) {
                for (const std::uint64_t capacity :
                     {64ULL << 20, 48ULL << 20}) {
                    DramConfig cfg = baseConfig();
                    cfg.map_order = order;
                    cfg.channels = channels;
                    cfg.ranks_per_channel = ranks;
                    cfg.capacity_bytes = capacity;
                    const AddressMap map(cfg);
                    SCOPED_TRACE(addrMapOrderName(order) + " ch=" +
                                 std::to_string(channels) + " ra=" +
                                 std::to_string(ranks) + " cap=" +
                                 std::to_string(capacity));
                    for (int i = 0; i < 4000; ++i) {
                        // Mostly in range; some past capacity (wrap).
                        const Addr a = i % 8 == 0
                                           ? rng.next()
                                           : rng.uniformInt(
                                                 0, capacity - 1);
                        const DramCoord c = map.decompose(a);
                        ASSERT_EQ(c, walkDecompose(cfg, a)) << a;
                        const Addr canon = a % capacity /
                                           cfg.bytesPerBurst() *
                                           cfg.bytesPerBurst();
                        ASSERT_EQ(map.compose(c), canon) << a;
                    }
                    // The top of the space and the capacity boundary.
                    for (const Addr a : {Addr{0}, capacity - 1, capacity,
                                         capacity + 31, ~Addr{0}}) {
                        ASSERT_EQ(map.decompose(a), walkDecompose(cfg, a))
                            << a;
                    }
                }
            }
        }
    }
}

struct Scenario
{
    PagePolicy page;
    std::uint32_t write_queue_depth;
    bool refresh;
    bool faults;
    AddrMapOrder order;
};

/** Drive one random request stream through both controllers. */
void
runScenario(const Scenario &s, std::uint64_t seed)
{
    DramConfig cfg = baseConfig();
    cfg.page_policy = s.page;
    cfg.write_queue_depth = s.write_queue_depth;
    cfg.refresh_enabled = s.refresh;
    cfg.map_order = s.order;
    SCOPED_TRACE(pagePolicyName(s.page) + " wq=" +
                 std::to_string(s.write_queue_depth) +
                 " refresh=" + std::to_string(s.refresh) +
                 " faults=" + std::to_string(s.faults) + " " +
                 addrMapOrderName(s.order));

    FaultConfig fc;
    fc.seed = seed * 7919;
    fc.dram_retry_limit = 2;
    fc.rules.push_back(
        parseFaultRule(FaultClass::kDramTimeout, "p=0.15"));
    FaultInjector dut_faults("dut", nullptr, fc);
    FaultInjector ref_faults("ref", nullptr, fc);

    DramController dut(cfg);
    if (s.faults) {
        dut.setFaultInjector(&dut_faults);
    }
    ReferenceDram ref(cfg, s.faults ? &ref_faults : nullptr);

    Random rng(seed);
    Tick now = 0;
    Addr stream = 0;
    for (int i = 0; i < 3000; ++i) {
        SCOPED_TRACE("request " + std::to_string(i));
        // Gaps: back-to-back, short, and past the row-open timeout.
        const std::uint64_t gap = rng.uniformInt(0, 9);
        now += gap < 4   ? 0
               : gap < 8 ? rng.uniformInt(1, 100) * sim_clock::ns
                         : rng.uniformInt(300, 5000) * sim_clock::ns;
        MemRequest req;
        if (rng.uniformInt(0, 3) == 0) {
            req.addr = rng.uniformInt(0, 2 * cfg.capacity_bytes);
        } else {
            // A sequential stream: row hits and bank walks.
            stream += rng.uniformInt(0, 256);
            req.addr = stream % cfg.capacity_bytes;
        }
        req.size = static_cast<std::uint32_t>(rng.uniformInt(1, 600));
        req.op = rng.uniformInt(0, 2) == 0 ? MemOp::kWrite : MemOp::kRead;
        req.requester = static_cast<Requester>(rng.uniformInt(0, 3));

        const MemResult want = ref.access(req, now);
        const MemResult got = dut.access(req, now);
        ASSERT_EQ(got.finish_tick, want.finish_tick);
        ASSERT_EQ(got.bursts, want.bursts);
        ASSERT_EQ(got.row_hits, want.row_hits);
        ASSERT_EQ(got.activations, want.activations);
        ASSERT_EQ(dut.pendingWrites(), ref.pendingWrites());

        if (i % 500 == 499) {
            dut.flushWrites(now);
            ref.flushWrites(now);
        }
    }
    dut.flushWrites(now);
    ref.flushWrites(now);
    for (std::size_t r = 0; r < ref.counts.size(); ++r) {
        SCOPED_TRACE(requesterName(static_cast<Requester>(r)));
        expectSameCounts(dut.energy().counts(static_cast<Requester>(r)),
                         ref.counts[r]);
    }
    EXPECT_EQ(dut.refreshCount(), ref.refreshes);
    EXPECT_EQ(dut.retryCount(), ref.retries);
    EXPECT_EQ(dut.abandonedCount(), ref.abandoned);
    EXPECT_EQ(dut.backoffTicks(), ref.backoff);
    if (s.refresh) {
        EXPECT_GT(ref.refreshes, 0u);
    }
    if (s.faults) {
        EXPECT_GT(ref.retries, 0u);
        EXPECT_GT(ref.abandoned, 0u);
    }
    const DramActivityCounts total = dut.energy().totalCounts();
    EXPECT_GT(total.activations, 0u);
    if (s.page == PagePolicy::kOpenPage) {
        EXPECT_GT(total.row_hits, 0u);
        EXPECT_GT(total.precharges, 0u);
    }
}

TEST(DramReference, ControllerMatchesStateMachine)
{
    std::uint64_t seed = 1;
    for (const PagePolicy page :
         {PagePolicy::kOpenPage, PagePolicy::kClosedPage}) {
        for (const std::uint32_t wq : {0u, 4u}) {
            for (const bool refresh : {false, true}) {
                for (const bool faults : {false, true}) {
                    for (const AddrMapOrder order :
                         {AddrMapOrder::kRoRaBaCoCh,
                          AddrMapOrder::kRoRaBaChCo,
                          AddrMapOrder::kRoRaCoBaCh}) {
                        runScenario({page, wq, refresh, faults, order},
                                    seed++);
                        if (HasFatalFailure()) {
                            return;
                        }
                    }
                }
            }
        }
    }
}

} // namespace
} // namespace vstream
