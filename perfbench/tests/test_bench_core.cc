/**
 * @file
 * Tests of the benchmark's own helpers: percentiles and the "ten
 * samples beyond" rule, digest canonicalisation, the self-time
 * ledger, per-unit mismatch accounting, and the host gauge's scaling.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <sstream>

#include "bench_core.hh"
#include "host_gauge.hh"
#include "serve/fleet_report.hh"
#include "serve/placer.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

std::vector<double>
oneTo(int n)
{
    std::vector<double> v(static_cast<std::size_t>(n));
    std::iota(v.begin(), v.end(), 1.0);
    return v;
}

} // namespace

TEST(Percentile, NearestRankIgnoresInputOrder)
{
    std::vector<double> v = oneTo(100);
    std::reverse(v.begin(), v.end());
    EXPECT_EQ(percentile(v, 0.5).value, 50.0);
    EXPECT_EQ(percentile(v, 0.9).value, 90.0);
    EXPECT_EQ(percentile(v, 1.0).value, 100.0);
    EXPECT_EQ(percentile({7.0}, 0.9).value, 7.0);
    EXPECT_EQ(percentile({}, 0.9).n, 0u);
}

TEST(Percentile, TenBeyondRule)
{
    const Percentile at100 = percentile(oneTo(100), 0.9);
    EXPECT_EQ(at100.beyond, 10u);
    EXPECT_TRUE(at100.resolved());

    const Percentile at99 = percentile(oneTo(99), 0.9);
    EXPECT_EQ(at99.beyond, 9u);
    EXPECT_FALSE(at99.resolved());

    EXPECT_EQ(minSamplesFor(0.9), 100u);
    EXPECT_EQ(minSamplesFor(0.5), 20u);
    EXPECT_TRUE(percentile(oneTo(static_cast<int>(minSamplesFor(0.99))),
                           0.99)
                    .resolved());
}

TEST(Percentile, TiesAtTheValueAreNotBeyond)
{
    std::vector<double> v(95, 1.0);
    for (int i = 0; i < 5; ++i) {
        v.push_back(2.0);
    }
    const Percentile p = percentile(v, 0.9);
    EXPECT_EQ(p.value, 1.0);
    EXPECT_EQ(p.beyond, 5u);
    EXPECT_FALSE(p.resolved());
}

TEST(Percentile, Median)
{
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_EQ(median({}), 0.0);
}

TEST(Digest, FieldOrderIsPartOfTheDigest)
{
    Digest ab, ba;
    ab.add("a", std::uint64_t{1});
    ab.add("b", std::uint64_t{2});
    ba.add("b", std::uint64_t{2});
    ba.add("a", std::uint64_t{1});
    EXPECT_NE(ab.value(), ba.value());
    EXPECT_EQ(ab.hex().size(), 16u);
    EXPECT_EQ(digestHex(0x0123456789abcdefULL), "0123456789abcdef");
}

TEST(Digest, DoublesAreExact)
{
    Digest x, y;
    x.add("e", 0.1 + 0.2);
    y.add("e", 0.3);
    EXPECT_NE(x.value(), y.value());
}

TEST(Digest, ResultDigestCoversSimulatedFieldsOnly)
{
    vstream::PipelineResult r;
    r.video_key = "V1";
    r.frames = 40;
    r.energy.dc = 1.25;
    const std::uint64_t base = resultDigest(r);

    // Per-frame records and derived rates are not canonical fields.
    vstream::PipelineResult same = r;
    same.frame_records.resize(40);
    same.vd_cache_miss_rate = 0.5;
    EXPECT_EQ(resultDigest(same), base);

    vstream::PipelineResult energy = r;
    energy.energy.mem_burst = 1e-9;
    EXPECT_NE(resultDigest(energy), base);

    vstream::PipelineResult mach = r;
    mach.mach.inter_hits = 1;
    EXPECT_NE(resultDigest(mach), base);

    vstream::PipelineResult dram = r;
    dram.dram_dc.row_hits = 1;
    EXPECT_NE(resultDigest(dram), base);
}

TEST(Digest, StripHostTimes)
{
    const std::string a =
        "{\n  \"bench\": \"x\",\n  \"wall_clock_seconds\": 1.25,\n"
        "  \"sessions\": 3\n}";
    const std::string b =
        "{\n  \"bench\": \"x\",\n  \"wall_clock_seconds\": 7e-05,\n"
        "  \"sessions\": 3\n}";
    const std::string c =
        "{\n  \"bench\": \"x\",\n  \"wall_clock_seconds\": 1.25,\n"
        "  \"sessions\": 4\n}";
    EXPECT_EQ(stripHostTimes(a), stripHostTimes(b));
    EXPECT_NE(stripHostTimes(a), stripHostTimes(c));
    EXPECT_EQ(stripHostTimes(a).find("wall_clock"), std::string::npos);
    EXPECT_EQ(stripHostTimes("{\"x\": 1}"), "{\"x\": 1}");
}

TEST(Digest, FleetReportDigestExcludesWallClock)
{
    const std::vector<std::uint8_t> blob = traceBlob();
    vstream::Placer placer(fleetConfig(1), [&](const vstream::ArrivalEvent &a) {
        return fleetSession(kDefaultSeed, a, blob);
    });
    std::vector<vstream::ArrivalEvent> arrivals =
        fleetArrivals(kDefaultSeed, 0);
    arrivals.resize(6);
    placer.run(arrivals);
    std::ostringstream fast, slow;
    vstream::writeFleetReport(fast, placer, "t", arrivals.size(), 0.001,
                              0);
    vstream::writeFleetReport(slow, placer, "t", arrivals.size(), 12.5, 0);
    EXPECT_NE(fast.str(), slow.str());
    EXPECT_EQ(stripHostTimes(fast.str()), stripHostTimes(slow.str()));
}

TEST(Ledger, SharesAndResidualSumToTotal)
{
    SpanRecorder rec;
    const std::uint32_t unit = rec.intern("unit");
    const std::uint32_t dec = rec.intern("decoder");
    const std::uint32_t wb = rec.intern("writeback");
    const std::uint32_t disp = rec.intern("display");
    // Two units; each decoder span carries a collapsed writeback child.
    for (std::int64_t base : {0, 1000}) {
        const std::int32_t u = rec.add(unit, base, base + 700, -1);
        const std::int32_t d = rec.add(dec, base + 10, base + 410, u);
        rec.add(wb, base + 20, base + 170, d);
        rec.add(disp, base + 420, base + 620, u);
    }
    const Ledger l = buildLedger(rec);
    EXPECT_DOUBLE_EQ(l.total_s, 1400e-9);
    EXPECT_DOUBLE_EQ(l.self_s.at("decoder"), 2 * 250e-9);
    EXPECT_DOUBLE_EQ(l.self_s.at("writeback"), 2 * 150e-9);
    EXPECT_DOUBLE_EQ(l.self_s.at("display"), 2 * 200e-9);
    EXPECT_DOUBLE_EQ(l.self_s.at("unit"), 2 * 100e-9); // the residual

    double sum = 0.0;
    double shares = 0.0;
    for (const auto &[name, s] : l.self_s) {
        sum += s;
        shares += l.share(name);
    }
    EXPECT_NEAR(sum, l.total_s, 1e-18);
    EXPECT_NEAR(shares, 1.0, 1e-12);
    EXPECT_EQ(l.share("absent"), 0.0);
}

TEST(Ledger, OpenAndCloseNest)
{
    SpanRecorder rec;
    const std::int32_t u = rec.open(rec.intern("unit"), 5, -1);
    const std::int32_t c = rec.open(rec.intern("video"), 6, u);
    rec.close(c, 9);
    rec.close(u, 15);
    rec.count("frames", 2);
    const Ledger l = buildLedger(rec);
    EXPECT_DOUBLE_EQ(l.total_s, 10e-9);
    EXPECT_DOUBLE_EQ(l.self_s.at("unit"), 7e-9);
    std::ostringstream os;
    rec.writeTo(os);
    EXPECT_NE(os.str().find("video,6,9,0"), std::string::npos);
    EXPECT_NE(os.str().find("frames,2"), std::string::npos);
}

TEST(Verification, EachUnitIsJudgedAlone)
{
    EXPECT_EQ(classify({"V1/L", false, 0, 0}), Verdict::kExact);
    EXPECT_EQ(classify({"V3/G", true, 1, 2}), Verdict::kExplained);
    EXPECT_EQ(classify({"V5/G", true, 1, 0}), Verdict::kFailed);
    // Outside MACH a collision count cannot excuse anything.
    EXPECT_EQ(classify({"V5/S", false, 1, 3}), Verdict::kFailed);

    // Collisions do not waive the run: units with collisions of their
    // own are explained, the mismatch without any still fails.
    const std::vector<UnitCheck> run = {{"V3/G", true, 2, 2},
                                        {"V12/G", true, 1, 1},
                                        {"V7/M", true, 1, 0},
                                        {"V2/L", false, 0, 0}};
    int failed = 0;
    int explained = 0;
    for (const UnitCheck &c : run) {
        failed += classify(c) == Verdict::kFailed ? 1 : 0;
        explained += classify(c) == Verdict::kExplained ? 1 : 0;
    }
    EXPECT_EQ(failed, 1);
    EXPECT_EQ(explained, 2);
}

TEST(Verification, UnitCheckReadsTheUnitsOwnCounters)
{
    vstream::PipelineResult r;
    r.display.verify_failures = 3;
    r.mach.collisions_undetected = 0;
    r.mach.lookups = 10;
    const UnitCheck c = unitCheck("V9/M", r);
    EXPECT_TRUE(c.mach);
    EXPECT_EQ(c.mismatches, 3u);
    EXPECT_EQ(classify(c), Verdict::kFailed);

    vstream::PipelineResult linear;
    linear.display.verify_failures = 1;
    EXPECT_FALSE(unitCheck("V9/L", linear).mach);
}

TEST(Workloads, DefaultSeedKeepsTheTableContent)
{
    EXPECT_EQ(perturb(0x1234, kDefaultSeed), 0x1234u);
    EXPECT_NE(perturb(0x1234, kHeldOutSeed), 0x1234u);
    const std::vector<Unit> units = fig11Units(kDefaultSeed);
    ASSERT_EQ(units.size(), 96u);
    EXPECT_EQ(units[0].label, "V1/L");
    EXPECT_EQ(units[95].label, "V16/G");
    EXPECT_EQ(mab16Units(kHeldOutSeed)[0].config.profile.mab_dim, 16u);
}

TEST(Workloads, PaperErrorIsZeroAtThePapersAverages)
{
    const std::vector<double> &paper = paperFig11Averages();
    std::vector<double> energies;
    for (int v = 0; v < 16; ++v) {
        for (double x : paper) {
            energies.push_back(2.0 * x);
        }
    }
    EXPECT_NEAR(paperErrorPp(energies), 0.0, 1e-12);
    energies[1] = 2.0 * (0.93 + 0.16); // V1/B one point over, /16 videos
    EXPECT_NEAR(paperErrorPp(energies), 100.0 * 0.01 / 6.0, 1e-12);
}

TEST(Workloads, FleetRoundIsTheSoaksTraffic)
{
    // The soak's fleet-mode serve settings.
    const vstream::FleetConfig f = fleetConfig(4);
    EXPECT_EQ(f.serve.max_active, 224u);
    EXPECT_EQ(f.serve.bandwidth_budget_mbps, 300.0);
    EXPECT_EQ(f.serve.framebuffer_budget_bytes, 64ULL << 20);
    EXPECT_EQ(f.shards, 4u);
    EXPECT_EQ(f.rehearse_block, kRehearseBlock);

    // Block timing reads block edges off arrival ids: a round's ids
    // must run consecutively from round * kSessionsPerRound.
    const std::vector<vstream::ArrivalEvent> r1 =
        fleetArrivals(kDefaultSeed, 1);
    ASSERT_EQ(r1.size(), kSessionsPerRound);
    for (std::size_t i = 0; i < r1.size(); ++i) {
        EXPECT_EQ(r1[i].id, kSessionsPerRound + i);
    }
    EXPECT_EQ(fleetArrivals(kDefaultSeed, 0, kRehearseBlock).size(),
              kRehearseBlock);

    const vstream::SessionConfig s =
        fleetSession(kDefaultSeed, r1[0], traceBlob());
    EXPECT_EQ(s.pipeline.profile.width, 48u);
    EXPECT_EQ(s.pipeline.profile.height, 24u);
}

TEST(HostGauge, ScalesToTheNominalSpeed)
{
    EXPECT_DOUBLE_EQ(gaugeScale(kGaugeNominalNs), 1.0);
    // A unit next to a gauge reading twice the nominal ran on a core
    // half as fast: its scaled time is half its measured time.
    EXPECT_DOUBLE_EQ(0.8 * gaugeScale(2.0 * kGaugeNominalNs), 0.4);
}

TEST(HostGauge, ReadingsArePositive)
{
    EXPECT_GT(gaugeNs(), 0.0);
    EXPECT_GT(gaugeMedianNs(3), 0.0);
    EXPECT_GT(gaugeParallelNs(2), 0.0);
}
