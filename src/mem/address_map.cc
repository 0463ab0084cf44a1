#include "mem/address_map.hh"

#include <array>
#include <utility>

#include "sim/logging.hh"

namespace vstream
{

namespace
{

std::uint32_t
log2OfPow2(std::uint64_t v)
{
    vs_assert(v != 0 && (v & (v - 1)) == 0, "value not a power of two");
    std::uint32_t bits = 0;
    while (v > 1) {
        v >>= 1;
        ++bits;
    }
    return bits;
}

} // namespace

AddressMap::AddressMap(const DramConfig &cfg)
{
    cfg.validate();
    burst_shift_ = log2OfPow2(cfg.bytesPerBurst());
    columns_per_row_ = cfg.row_bytes / cfg.bytesPerBurst();
    capacity_ = cfg.capacity_bytes;
    order_ = cfg.map_order;

    const std::uint32_t rank_bits =
        cfg.ranks_per_channel > 1 ? log2OfPow2(cfg.ranks_per_channel) : 0;
    // LSB-to-MSB order of the sub-row fields; the row always takes
    // the remaining high bits.
    using Slot = std::pair<FieldSlot *, std::uint32_t>;
    const Slot channel{&channel_, log2OfPow2(cfg.channels)};
    const Slot column{&column_, log2OfPow2(columns_per_row_)};
    const Slot bank{&bank_, log2OfPow2(cfg.banks_per_rank)};
    const Slot rank{&rank_, rank_bits};
    std::array<Slot, 4> order{};
    switch (order_) {
      case AddrMapOrder::kRoRaBaCoCh:
        order = {channel, column, bank, rank};
        break;
      case AddrMapOrder::kRoRaBaChCo:
        order = {column, channel, bank, rank};
        break;
      case AddrMapOrder::kRoRaCoBaCh:
        order = {channel, bank, column, rank};
        break;
      default:
        vs_panic("unreachable address-map order");
    }
    for (const auto &[slot, bits] : order) {
        slot->shift = row_shift_;
        slot->mask = (1u << bits) - 1;
        row_shift_ += bits;
    }
}

Addr
AddressMap::compose(const DramCoord &coord) const
{
    const Addr a = (coord.row << row_shift_) | channel_.place(coord.channel) |
                   column_.place(coord.column) | bank_.place(coord.bank) |
                   rank_.place(coord.rank);
    return a << burst_shift_;
}

} // namespace vstream
