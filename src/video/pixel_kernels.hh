/**
 * @file
 * Pixel kernels for the per-mab hot loops, one fast path each.
 *
 *  - **Gradient transform** (`gradientSub` / `gradientAdd`): the
 *    wrap-around per-byte subtract/add of a base pixel whose channel
 *    cycles r,g,b (Macroblock::gradientInto / fromGradient).  On
 *    x86-64 (where SSE2 is baseline) the kernel exploits lcm(16, 3) =
 *    48: three rotated 16-byte base vectors cover every phase of the
 *    3-byte pattern, so it processes 16 pixels (48 bytes) per
 *    iteration.  Other targets, and the ragged tail, run the scalar
 *    loop.  Byte subtraction is exact mod-256 arithmetic in both
 *    forms, so the output does not depend on the target.
 *
 *  - **Similarity compare** (`blockEqual`): the block-equality probe
 *    behind MACH verify-on-hit, the collider forge check and
 *    Macroblock::operator==.  It is std::memcmp, which beats
 *    hand-written packed-word and SSE2 loops at every mab size.
 *
 * tests/test_pixel_kernels.cc pins both against plain byte loops.
 */

#ifndef VSTREAM_VIDEO_PIXEL_KERNELS_HH
#define VSTREAM_VIDEO_PIXEL_KERNELS_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "video/pixel.hh"

namespace vstream
{

/**
 * dst[i] = src[i] - base-channel(i mod 3), mod 256, for the
 * floor(@p len / 3) whole pixels of @p len bytes (the mab -> gab
 * transform).  A ragged 1-2 byte tail is left untouched in @p dst;
 * @p dst may alias @p src exactly.
 */
void gradientSub(std::uint8_t *dst, const std::uint8_t *src,
                 std::size_t len, const Pixel &base);

/** dst[i] = src[i] + base-channel(i mod 3): the gab -> mab inverse. */
void gradientAdd(std::uint8_t *dst, const std::uint8_t *src,
                 std::size_t len, const Pixel &base);

/** True when the @p len bytes at @p a and @p b are identical. */
// vstream:hot
inline bool
blockEqual(const std::uint8_t *a, const std::uint8_t *b,
           std::size_t len)
{
    // memcmp's pointers must be valid even for len 0.
    return len == 0 || std::memcmp(a, b, len) == 0;
}

/** Vector convenience: sizes then contents. */
// vstream:hot
inline bool
blockEqual(const std::vector<std::uint8_t> &a,
           const std::vector<std::uint8_t> &b)
{
    return a.size() == b.size() && blockEqual(a.data(), b.data(), a.size());
}

} // namespace vstream

#endif // VSTREAM_VIDEO_PIXEL_KERNELS_HH
