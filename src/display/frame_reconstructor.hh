/**
 * @file
 * Pixel-level frame reconstruction at the display side.
 *
 * Turns the stored representation of a mab (raw block, or gradient
 * block plus base) back into display pixels, and verifies whole
 * frames against the checksum taken at decode time - the simulator's
 * proof that the MACH path is lossless (absent undetected hash
 * collisions, which this check is designed to expose).
 */

#ifndef VSTREAM_DISPLAY_FRAME_RECONSTRUCTOR_HH
#define VSTREAM_DISPLAY_FRAME_RECONSTRUCTOR_HH

#include <cstdint>
#include <span>
#include <vector>

#include "core/framebuffer_layout.hh"
#include "video/macroblock.hh"

namespace vstream
{

/** Stateless reconstruction helpers. */
class FrameReconstructor
{
  public:
    /**
     * Rebuild the displayed mab from its stored block bytes.
     *
     * In gradient mode the stored bytes are the gab and the record's
     * base is added back per pixel (the vector-add the DC performs).
     */
    static Macroblock rebuildMab(std::span<const std::uint8_t> stored,
                                 const MabRecord &rec,
                                 bool gradient_mode);

    /**
     * Zero-alloc variant: rebuild into @p out, reusing its storage —
     * the per-mab workhorse of DisplayController::scanOut.
     */
    static void rebuildMabInto(std::span<const std::uint8_t> stored,
                               const MabRecord &rec, bool gradient_mode,
                               Macroblock &out);

    /**
     * Checksum a sequence of reconstructed mabs (same CRC the decoder
     * used on the source frame).
     */
    static std::uint32_t
    checksum(const std::vector<Macroblock> &mabs);
};

} // namespace vstream

#endif // VSTREAM_DISPLAY_FRAME_RECONSTRUCTOR_HH
