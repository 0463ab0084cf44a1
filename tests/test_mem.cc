/**
 * @file
 * Tests for the LPDDR3 DRAM model: address mapping, bank state,
 * controller timing, energy accounting, and the row-open timeout that
 * underpins the paper's racing argument.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "mem/address_map.hh"
#include "mem/dram_bank.hh"
#include "mem/dram_controller.hh"
#include "mem/memory_system.hh"
#include "sim/event_queue.hh"
#include "sim/fault_injector.hh"

namespace vstream
{
namespace
{

DramConfig
smallConfig()
{
    DramConfig cfg;
    cfg.capacity_bytes = 64ULL << 20;
    return cfg;
}

TEST(DramConfig, DerivedQuantities)
{
    DramConfig cfg;
    EXPECT_EQ(cfg.bytesPerBurst(), 32u);          // x32, BL8
    EXPECT_EQ(cfg.burstTime(), 4u * cfg.t_ck);    // 4 clocks DDR
    EXPECT_GT(cfg.rowsPerBank(), 0u);
    cfg.validate();
}

TEST(DramConfigDeath, BadGeometryFatal)
{
    DramConfig cfg;
    cfg.row_bytes = 1000; // not a power of two
    EXPECT_DEATH(cfg.validate(), "power of two");
}

TEST(AddressMap, RoundTrip)
{
    const DramConfig cfg = smallConfig();
    const AddressMap map(cfg);
    for (Addr a = 0; a < (1u << 20); a += 4096 + 32) {
        const DramCoord c = map.decompose(a);
        EXPECT_EQ(map.compose(c), a / 32 * 32) << "addr " << a;
    }
}

TEST(AddressMap, ChannelInterleavesAtBurstGranularity)
{
    const DramConfig cfg = smallConfig();
    const AddressMap map(cfg);
    // RoRaBaCoCh: adjacent bursts alternate channels.
    EXPECT_EQ(map.decompose(0).channel, 0u);
    EXPECT_EQ(map.decompose(32).channel, 1u);
    EXPECT_EQ(map.decompose(64).channel, 0u);
}

TEST(AddressMap, ColumnThenBankOrdering)
{
    const DramConfig cfg = smallConfig();
    const AddressMap map(cfg);
    // Same row while within row_bytes per channel: 2 KB row x 2
    // channels = 4 KB of contiguous space per (bank,row).
    const DramCoord a = map.decompose(0);
    const DramCoord b = map.decompose(4096 - 32);
    EXPECT_EQ(a.bank, b.bank);
    EXPECT_EQ(a.row, b.row);
    const DramCoord c = map.decompose(4096);
    EXPECT_NE(c.bank, a.bank); // next bank
    EXPECT_EQ(c.row, a.row);
}

TEST(AddressMap, RowAdvancesAfterAllBanks)
{
    const DramConfig cfg = smallConfig();
    const AddressMap map(cfg);
    const std::uint64_t banks_span = 4096ULL * cfg.banks_per_rank;
    EXPECT_EQ(map.decompose(banks_span).row,
              map.decompose(0).row + 1);
}

TEST(AddressMap, ColumnsPerRow)
{
    const DramConfig cfg = smallConfig();
    const AddressMap map(cfg);
    EXPECT_EQ(map.columnsPerRow(), cfg.row_bytes / cfg.bytesPerBurst());
}

TEST(DramBank, ActivateTrackRow)
{
    DramBank bank;
    EXPECT_FALSE(bank.rowOpen());
    bank.activate(7, 100);
    EXPECT_TRUE(bank.rowOpen());
    EXPECT_EQ(bank.openRow(), 7u);
    EXPECT_EQ(bank.openedAt(), 100u);
}

TEST(DramBank, ExpireAfterTimeout)
{
    DramBank bank;
    bank.activate(3, 0);
    bank.touch(1000);
    EXPECT_FALSE(bank.expireRow(1500, 1000)); // gap 500 <= 1000
    EXPECT_TRUE(bank.expireRow(2500, 1000));  // gap 1500 > 1000
    EXPECT_FALSE(bank.rowOpen());
    EXPECT_FALSE(bank.expireRow(9999, 1000)); // already closed
}

TEST(DramBank, PrechargeClosesAndDelays)
{
    DramBank bank;
    bank.activate(1, 0);
    bank.precharge(500);
    EXPECT_FALSE(bank.rowOpen());
    EXPECT_EQ(bank.readyAt(), 500u);
}

TEST(DramController, FirstAccessActivates)
{
    DramController ctrl(smallConfig());
    const MemResult r = ctrl.access(
        MemRequest{0, 32, MemOp::kRead, Requester::kVideoDecoder}, 0);
    EXPECT_EQ(r.bursts, 1u);
    EXPECT_EQ(r.activations, 1u);
    EXPECT_EQ(r.row_hits, 0u);
    // tRCD + tCL + burst.
    const DramConfig &cfg = ctrl.config();
    EXPECT_EQ(r.finish_tick, cfg.t_rcd + cfg.t_cl + cfg.burstTime());
}

TEST(DramController, BackToBackSameRowHits)
{
    DramController ctrl(smallConfig());
    const auto r1 = ctrl.access(
        MemRequest{0, 32, MemOp::kRead, Requester::kVideoDecoder}, 0);
    const auto r2 = ctrl.access(
        MemRequest{64, 32, MemOp::kRead, Requester::kVideoDecoder},
        r1.finish_tick);
    EXPECT_EQ(r2.row_hits, 1u);
    EXPECT_EQ(r2.activations, 0u);
    EXPECT_LT(r2.finish_tick - r1.finish_tick,
              r1.finish_tick); // hit is faster than the cold access
}

TEST(DramController, TimeoutForcesReactivation)
{
    DramConfig cfg = smallConfig();
    cfg.row_open_timeout = 100 * sim_clock::ns;
    DramController ctrl(cfg);
    const auto r1 = ctrl.access(
        MemRequest{0, 32, MemOp::kRead, Requester::kVideoDecoder}, 0);
    // Come back long after the starvation bound.
    const auto r2 = ctrl.access(
        MemRequest{64, 32, MemOp::kRead, Requester::kVideoDecoder},
        r1.finish_tick + 10 * cfg.row_open_timeout);
    EXPECT_EQ(r2.activations, 1u);
    EXPECT_EQ(r2.row_hits, 0u);
    // The timeout precharge was accounted.
    EXPECT_EQ(ctrl.energy().totalCounts().precharges, 1u);
}

TEST(DramController, RowConflictPrechargesAndPaysRas)
{
    DramConfig cfg = smallConfig();
    cfg.row_open_timeout = 1 * sim_clock::s; // effectively off
    DramController ctrl(cfg);
    const auto r1 = ctrl.access(
        MemRequest{0, 32, MemOp::kRead, Requester::kVideoDecoder}, 0);
    // Same bank, different row: banks repeat every 32 KB, row size
    // per (bank,row) across channels is 4 KB -> 32 KB offset is the
    // same bank, next row... actually 32 KB advances the row index.
    const Addr conflict = 32 * 1024;
    const auto r2 = ctrl.access(
        MemRequest{conflict, 32, MemOp::kRead,
                   Requester::kVideoDecoder},
        r1.finish_tick);
    EXPECT_EQ(r2.activations, 1u);
    EXPECT_EQ(ctrl.energy().totalCounts().precharges, 1u);
    // Conflict path pays tRP + tRCD at least.
    EXPECT_GE(r2.finish_tick - r1.finish_tick,
              cfg.t_rp + cfg.t_rcd + cfg.t_cl);
}

TEST(DramController, MultiBurstRequestSplits)
{
    DramController ctrl(smallConfig());
    // 64 B spans two 32 B bursts (on two channels).
    const auto r = ctrl.access(
        MemRequest{0, 64, MemOp::kRead, Requester::kVideoDecoder}, 0);
    EXPECT_EQ(r.bursts, 2u);
    // Unaligned 48 B spanning a burst boundary -> 2 bursts.
    const auto r2 = ctrl.access(
        MemRequest{48, 48, MemOp::kWrite, Requester::kVideoDecoder},
        r.finish_tick);
    EXPECT_EQ(r2.bursts, 2u);
}

TEST(DramController, EnergyPerRequesterIsolated)
{
    DramController ctrl(smallConfig());
    ctrl.access(MemRequest{0, 64, MemOp::kRead,
                           Requester::kVideoDecoder},
                0);
    ctrl.access(MemRequest{1 << 20, 64, MemOp::kWrite,
                           Requester::kDisplayController},
                0);
    const auto &vd = ctrl.energy().counts(Requester::kVideoDecoder);
    const auto &dc =
        ctrl.energy().counts(Requester::kDisplayController);
    EXPECT_EQ(vd.read_bursts, 2u);
    EXPECT_EQ(vd.write_bursts, 0u);
    EXPECT_EQ(dc.write_bursts, 2u);
    EXPECT_EQ(dc.bytes_written, 64u);
    EXPECT_GT(ctrl.energy().actPreEnergy(Requester::kVideoDecoder),
              0.0);
    EXPECT_GT(ctrl.energy().burstEnergyTotal(), 0.0);
}

TEST(DramEnergy, BackgroundScalesWithSpan)
{
    const DramConfig cfg = smallConfig();
    DramEnergy e(cfg);
    const double one_ms = e.backgroundEnergy(sim_clock::ms);
    EXPECT_NEAR(one_ms, cfg.background_watts * 1e-3, 1e-12);
    EXPECT_NEAR(e.backgroundEnergy(10 * sim_clock::ms), 10 * one_ms,
                1e-12);
}

TEST(DramController, ResetClearsState)
{
    DramController ctrl(smallConfig());
    ctrl.access(MemRequest{0, 32, MemOp::kRead,
                           Requester::kVideoDecoder},
                0);
    ctrl.reset();
    EXPECT_EQ(ctrl.energy().totalCounts().activations, 0u);
    const auto r = ctrl.access(
        MemRequest{0, 32, MemOp::kRead, Requester::kVideoDecoder}, 0);
    EXPECT_EQ(r.activations, 1u); // cold again

    // With timeouts injected, a reset controller must replay a stream
    // exactly as a freshly built one: backoff totals and the jitter
    // stream restart too.  The two injectors are kept in step by
    // running the warm-up stream past both.
    FaultConfig fc;
    fc.seed = 9;
    fc.rules.push_back(parseFaultRule(FaultClass::kDramTimeout, "p=0.3"));
    FaultInjector warm_faults("warm", nullptr, fc);
    FaultInjector fresh_faults("fresh", nullptr, fc);
    const auto stream = [](DramController &c, Tick t0) {
        std::vector<Tick> finishes;
        for (Addr a = 0; a < 64 * 1024; a += 1000) {
            const MemRequest req{a, 200, a % 3000 ? MemOp::kRead
                                                  : MemOp::kWrite,
                                 Requester::kVideoDecoder};
            finishes.push_back(c.access(req, t0 + a).finish_tick);
        }
        return finishes;
    };
    DramController warm(smallConfig());
    warm.setFaultInjector(&warm_faults);
    DramController warm_twin(smallConfig());
    warm_twin.setFaultInjector(&fresh_faults);
    EXPECT_EQ(stream(warm, 0), stream(warm_twin, 0));
    ASSERT_GT(warm.retryCount(), 0u);
    ASSERT_GT(warm.backoffTicks(), 0u);

    warm.reset();
    EXPECT_EQ(warm.retryCount(), 0u);
    EXPECT_EQ(warm.abandonedCount(), 0u);
    EXPECT_EQ(warm.backoffTicks(), 0u);
    DramController fresh(smallConfig());
    fresh.setFaultInjector(&fresh_faults);
    EXPECT_EQ(stream(warm, 5000), stream(fresh, 5000));
    EXPECT_EQ(warm.retryCount(), fresh.retryCount());
    EXPECT_EQ(warm.abandonedCount(), fresh.abandonedCount());
    EXPECT_EQ(warm.backoffTicks(), fresh.backoffTicks());
    EXPECT_EQ(warm.energy().totalCounts().activations,
              fresh.energy().totalCounts().activations);
}

TEST(MemorySystem, AllocateBumpsAndAligns)
{
    EventQueue q;
    MemorySystem mem("mem", &q, smallConfig());
    const Addr a = mem.allocate(100, "x");
    const Addr b = mem.allocate(1, "y");
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b % 64, 0u);
    EXPECT_EQ(b, 128u); // 100 rounded to 128
    EXPECT_EQ(mem.allocatedBytes(), 192u);
}

TEST(MemorySystemDeath, ExhaustionIsFatal)
{
    EventQueue q;
    DramConfig cfg = smallConfig();
    MemorySystem mem("mem", &q, cfg);
    EXPECT_DEATH(mem.allocate(cfg.capacity_bytes + 64, "huge"),
                 "out of simulated DRAM");
}

TEST(MemorySystem, ReadWriteCountRequests)
{
    EventQueue q;
    MemorySystem mem("mem", &q, smallConfig());
    mem.read(0, 64, Requester::kVideoDecoder, 0);
    mem.write(4096, 48, Requester::kDisplayController, 0);
    EXPECT_EQ(mem.requestCount(), 2u);
}

/** Dense streaming should mostly row-hit; scattered access should
 * mostly activate - the contrast behind Figs. 5 and 10. */
TEST(DramController, StreamingBeatsScattered)
{
    DramController dense(smallConfig());
    DramController scattered(smallConfig());

    Tick t = 0;
    for (Addr a = 0; a < 64 * 1024; a += 64) {
        t = dense
                .access(MemRequest{a, 64, MemOp::kRead,
                                   Requester::kDisplayController},
                        t)
                .finish_tick;
    }

    t = 0;
    Addr a = 0;
    for (int i = 0; i < 1024; ++i) {
        a = (a + 37 * 4096) % (32ULL << 20);
        t = scattered
                .access(MemRequest{a, 64, MemOp::kRead,
                                   Requester::kDisplayController},
                        t)
                .finish_tick;
    }

    const auto d = dense.energy().totalCounts();
    const auto s = scattered.energy().totalCounts();
    EXPECT_LT(d.activations * 4, d.row_hits);
    EXPECT_GT(s.activations, s.row_hits);
}

class BankTimeoutSweep : public ::testing::TestWithParam<Tick>
{
};

TEST_P(BankTimeoutSweep, ShorterTimeoutNeverReducesActivations)
{
    DramConfig cfg = smallConfig();
    cfg.row_open_timeout = GetParam();
    DramController ctrl(cfg);

    Tick t = 0;
    for (Addr a = 0; a < 16 * 1024; a += 64) {
        // Spaced accesses: 1 us apart.
        t += sim_clock::us;
        ctrl.access(MemRequest{a, 64, MemOp::kRead,
                               Requester::kVideoDecoder},
                    t);
    }
    const auto counts = ctrl.energy().totalCounts();
    // Store for cross-param comparison via recorded property.
    RecordProperty("activations",
                   static_cast<int>(counts.activations));
    if (GetParam() >= 2 * sim_clock::us) {
        // Generous timeout: rows survive the 1 us spacing.
        EXPECT_LT(counts.activations, 64u);
    } else if (GetParam() <= sim_clock::us / 2) {
        // Tight timeout: every access re-activates.
        EXPECT_EQ(counts.activations, 512u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Timeouts, BankTimeoutSweep,
    ::testing::Values(Tick(100) * sim_clock::ns,
                      Tick(500) * sim_clock::ns,
                      Tick(2) * sim_clock::us,
                      Tick(50) * sim_clock::us));

} // namespace
} // namespace vstream
