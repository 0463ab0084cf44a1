/**
 * @file
 * Tests for the configurable address-interleaving orders and the
 * DVFS slack-scaling option.
 */

#include <gtest/gtest.h>

#include <set>

#include "core/video_pipeline.hh"
#include "mem/address_map.hh"

namespace vstream
{
namespace
{

DramConfig
configFor(AddrMapOrder order)
{
    DramConfig cfg;
    cfg.capacity_bytes = 64ULL << 20;
    cfg.map_order = order;
    return cfg;
}

TEST(AddrMapOrder, Names)
{
    EXPECT_EQ(addrMapOrderName(AddrMapOrder::kRoRaBaCoCh),
              "RoRaBaCoCh");
    EXPECT_EQ(addrMapOrderName(AddrMapOrder::kRoRaBaChCo),
              "RoRaBaChCo");
    EXPECT_EQ(addrMapOrderName(AddrMapOrder::kRoRaCoBaCh),
              "RoRaCoBaCh");
}

class MapOrderSweep : public ::testing::TestWithParam<AddrMapOrder>
{
};

TEST_P(MapOrderSweep, RoundTripAllOrders)
{
    const AddressMap map(configFor(GetParam()));
    for (Addr a = 0; a < (2u << 20); a += 4096 + 96) {
        const DramCoord c = map.decompose(a);
        EXPECT_EQ(map.compose(c), a / 32 * 32) << "addr " << a;
    }
}

TEST_P(MapOrderSweep, CoordinatesStayInBounds)
{
    const DramConfig cfg = configFor(GetParam());
    const AddressMap map(cfg);
    for (Addr a = 0; a < (1u << 20); a += 1777) {
        const DramCoord c = map.decompose(a);
        EXPECT_LT(c.channel, cfg.channels);
        EXPECT_LT(c.bank, cfg.banks_per_rank);
        EXPECT_LT(c.rank, cfg.ranks_per_channel);
        EXPECT_LT(c.column, map.columnsPerRow());
    }
}

TEST_P(MapOrderSweep, DistinctAddressesDistinctCoords)
{
    const AddressMap map(configFor(GetParam()));
    std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t,
                        std::uint64_t, std::uint32_t>>
        seen;
    for (Addr a = 0; a < (1u << 18); a += 32) {
        const DramCoord c = map.decompose(a);
        EXPECT_TRUE(
            seen.emplace(c.channel, c.rank, c.bank, c.row, c.column)
                .second)
            << "aliased at " << a;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Orders, MapOrderSweep,
    ::testing::Values(AddrMapOrder::kRoRaBaCoCh,
                      AddrMapOrder::kRoRaBaChCo,
                      AddrMapOrder::kRoRaCoBaCh));

TEST(AddressMapOrders, ChannelPlacementDiffers)
{
    const AddressMap low_ch(configFor(AddrMapOrder::kRoRaBaCoCh));
    const AddressMap high_ch(configFor(AddrMapOrder::kRoRaBaChCo));

    // Channel-lowest: adjacent bursts alternate channels.
    EXPECT_NE(low_ch.decompose(0).channel,
              low_ch.decompose(32).channel);
    // Channel-above-column: adjacent bursts share a channel.
    EXPECT_EQ(high_ch.decompose(0).channel,
              high_ch.decompose(32).channel);
    EXPECT_EQ(high_ch.decompose(0).column + 1,
              high_ch.decompose(32).column);
}

TEST(AddressMapOrders, BankInterleavedOrderSpreadsBanks)
{
    const AddressMap map(configFor(AddrMapOrder::kRoRaCoBaCh));
    // With bank bits directly above the channel bit, addresses 64 B
    // apart land in different banks.
    EXPECT_NE(map.decompose(0).bank, map.decompose(64).bank);
}

// ---------------------------------------------------------------------
// DVFS slack scaling
// ---------------------------------------------------------------------

VideoProfile
dvfsProfile()
{
    VideoProfile p;
    p.key = "F";
    p.width = 96;
    p.height = 48;
    p.frame_count = 60;
    p.seed = 99;
    p.mean_decode_frac = 0.80;
    p.complexity_sigma = 0.25;
    return p;
}

TEST(DvfsSlack, SitsBetweenTheFixedFrequencies)
{
    const VideoProfile p = dvfsProfile();
    const double low =
        simulateScheme(p, SchemeConfig::make(Scheme::kBaseline))
            .energy.vd_processing;
    const double high =
        simulateScheme(p, SchemeConfig::make(Scheme::kRacing))
            .energy.vd_processing;

    SchemeConfig dvfs = SchemeConfig::make(Scheme::kRacing);
    dvfs.dvfs_slack = true;
    const double mixed =
        simulateScheme(p, dvfs).energy.vd_processing;

    EXPECT_GT(mixed, low * 0.99);
    EXPECT_LT(mixed, high);
}

TEST(DvfsSlack, StillDropsFramesUnlikeRaceToSleep)
{
    const VideoProfile p = dvfsProfile();
    SchemeConfig dvfs = SchemeConfig::make(Scheme::kRacing);
    dvfs.dvfs_slack = true;
    const auto predicted = simulateScheme(p, dvfs);
    const auto rts =
        simulateScheme(p, SchemeConfig::make(Scheme::kRaceToSleep));
    // The paper's argument: prediction-based scaling keeps dropping
    // frames; race-to-sleep does not.
    EXPECT_GT(predicted.drops, 0u);
    EXPECT_EQ(rts.drops, 0u);
}

TEST(DvfsSlack, AggressiveMarginDropsMore)
{
    const VideoProfile p = dvfsProfile();
    SchemeConfig safe = SchemeConfig::make(Scheme::kRacing);
    safe.dvfs_slack = true;
    safe.dvfs_margin = 0.60;
    SchemeConfig aggressive = safe;
    aggressive.dvfs_margin = 1.05;
    const auto a = simulateScheme(p, safe);
    const auto b = simulateScheme(p, aggressive);
    EXPECT_LE(a.drops, b.drops);
    EXPECT_GE(a.energy.vd_processing, b.energy.vd_processing);
}

TEST(PipelineMapping, AllOrdersRunLossless)
{
    for (AddrMapOrder order :
         {AddrMapOrder::kRoRaBaCoCh, AddrMapOrder::kRoRaBaChCo,
          AddrMapOrder::kRoRaCoBaCh}) {
        PipelineConfig cfg;
        cfg.profile = dvfsProfile();
        cfg.profile.frame_count = 20;
        cfg.scheme = SchemeConfig::make(Scheme::kGab);
        cfg.dram.map_order = order;
        VideoPipeline pipe(std::move(cfg));
        const PipelineResult r = pipe.run();
        EXPECT_EQ(r.unexplained_mismatches, 0u)
            << addrMapOrderName(order);
        EXPECT_EQ(r.drops, 0u) << addrMapOrderName(order);
    }
}

} // namespace
} // namespace vstream
