#include "display/frame_reconstructor.hh"

#include "hash/crc.hh"
#include "sim/logging.hh"

namespace vstream
{

Macroblock
FrameReconstructor::rebuildMab(std::span<const std::uint8_t> stored,
                               const MabRecord &rec, bool gradient_mode)
{
    Macroblock out(1);
    rebuildMabInto(stored, rec, gradient_mode, out);
    return out;
}

// vstream:hot
void
FrameReconstructor::rebuildMabInto(std::span<const std::uint8_t> stored,
                                   const MabRecord &rec,
                                   bool gradient_mode, Macroblock &out)
{
    // Infer the block dimension from the stored byte count.
    std::uint32_t dim = 1;
    while (static_cast<std::size_t>(dim) * dim * kBytesPerPixel <
           stored.size()) {
        ++dim;
    }
    vs_assert(static_cast<std::size_t>(dim) * dim * kBytesPerPixel ==
                  stored.size(),
              "stored block is not a square pixel block");

    out.assignBytes(dim, stored.data(), stored.size());
    if (gradient_mode) {
        out.addBase(rec.base);
    }
}

std::uint32_t
FrameReconstructor::checksum(const std::vector<Macroblock> &mabs)
{
    Crc32 crc;
    for (const auto &m : mabs) {
        crc.update(m.bytes().data(), m.bytes().size());
    }
    return crc.digest();
}

} // namespace vstream
