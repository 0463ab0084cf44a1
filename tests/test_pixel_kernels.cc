/**
 * @file
 * Equivalence tests for the pixel kernels (video/pixel_kernels.hh)
 * and the batched digest paths (hash/hasher.hh).  The fast gradient
 * and similarity paths must agree with the plain byte-loop oracles
 * below at every size, alignment and tail shape, so the compiled-in
 * path can never perturb simulation output.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "hash/hasher.hh"
#include "video/pixel.hh"
#include "video/pixel_kernels.hh"

namespace vstream
{
namespace
{

/** Deterministic byte stream (no RNG state shared with the sim). */
std::vector<std::uint8_t>
patternBytes(std::size_t len, std::uint64_t seed)
{
    std::vector<std::uint8_t> v(len);
    std::uint64_t x = seed * 0x9e3779b97f4a7c15ULL + 1;
    for (std::size_t i = 0; i < len; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        v[i] = static_cast<std::uint8_t>(x);
    }
    return v;
}

/**
 * The mod-256 r,g,b-cycling reference oracle the fast gradient path
 * is pinned to: exactly floor(len / 3) whole pixels are transformed
 * and trailing ragged bytes are left untouched in dst (the documented
 * contract; sim lengths are always a multiple of 3).
 */
void
referenceGradient(std::uint8_t *dst, const std::uint8_t *src,
                  std::size_t len, const Pixel &base, bool add)
{
    const int sign = add ? 1 : -1;
    for (std::size_t i = 0; i + 3 <= len; i += 3) {
        dst[i] = static_cast<std::uint8_t>(src[i] + sign * base.r);
        dst[i + 1] = static_cast<std::uint8_t>(src[i + 1] + sign * base.g);
        dst[i + 2] = static_cast<std::uint8_t>(src[i + 2] + sign * base.b);
    }
}

/** The byte-at-a-time equality oracle blockEqual is pinned to. */
bool
referenceEqual(const std::uint8_t *a, const std::uint8_t *b,
               std::size_t len)
{
    for (std::size_t i = 0; i < len; ++i) {
        if (a[i] != b[i]) {
            return false;
        }
    }
    return true;
}

// Sizes exercise empty input, sub-vector tails, the 48-byte vector
// stride exactly, one-off tails around it and its multiples,
// non-multiple-of-3 lengths, and full 16x16x3 macroblocks.
const std::size_t kSizes[] = {0,  1,  2,  3,  15,  16,  17,  47,
                              48, 49, 95, 96, 97,  100, 192, 300,
                              767, 768, 769, 3072};

TEST(Gradient, MatchReferenceAtEverySizeAndOffset)
{
    const Pixel base{211, 3, 97};
    for (bool add : {false, true}) {
        for (std::size_t len : kSizes) {
            // Offsets walk the buffers off 16-byte alignment so the
            // unaligned-load path is exercised too.
            for (std::size_t off : {std::size_t{0}, std::size_t{1},
                                    std::size_t{7}}) {
                const auto backing = patternBytes(len + off, len);
                const std::uint8_t *src = backing.data() + off;
                // 0xEE sentinels pin the untouched-ragged-tail
                // contract as well as the transformed prefix.
                std::vector<std::uint8_t> want(len, 0xEE);
                referenceGradient(want.data(), src, len, base, add);
                std::vector<std::uint8_t> got_backing(len + off, 0xEE);
                std::uint8_t *dst = got_backing.data() + off;
                if (add) {
                    gradientAdd(dst, src, len, base);
                } else {
                    gradientSub(dst, src, len, base);
                }
                EXPECT_EQ(std::vector<std::uint8_t>(dst, dst + len),
                          want)
                    << (add ? "add" : "sub") << " len " << len
                    << " off " << off;
            }
        }
    }
}

TEST(Gradient, AddInvertsSub)
{
    const Pixel base{17, 255, 128};
    for (std::size_t len : kSizes) {
        const auto src = patternBytes(len, 77 + len);
        std::vector<std::uint8_t> gab(len);
        gradientSub(gab.data(), src.data(), len, base);
        std::vector<std::uint8_t> back(len);
        gradientAdd(back.data(), gab.data(), len, base);
        // Only whole pixels round-trip; a ragged tail is untouched by
        // both transforms.
        const std::size_t full = len / 3 * 3;
        EXPECT_TRUE(std::equal(
            back.begin(),
            back.begin() + static_cast<std::ptrdiff_t>(full),
            src.begin()))
            << "len " << len;
    }
}

TEST(Gradient, ExactAliasInPlaceMatchesOutOfPlace)
{
    // Macroblock::addBase runs the transform with dst == src; the
    // vector path must load each chunk before storing it.
    const Pixel base{5, 250, 77};
    for (bool add : {false, true}) {
        for (std::size_t len : kSizes) {
            const auto src = patternBytes(len, 13 * len + 1);
            // In-place leaves the ragged tail holding src bytes.
            std::vector<std::uint8_t> want = src;
            referenceGradient(want.data(), src.data(), len, base, add);
            std::vector<std::uint8_t> in_place = src;
            if (add) {
                gradientAdd(in_place.data(), in_place.data(), len, base);
            } else {
                gradientSub(in_place.data(), in_place.data(), len, base);
            }
            EXPECT_EQ(in_place, want)
                << (add ? "add" : "sub") << " len " << len;
        }
    }
}

TEST(BlockEqual, MatchReferenceOnEqualAndSingleByteDiffs)
{
    EXPECT_TRUE(blockEqual(nullptr, nullptr, 0));
    for (std::size_t len :
         {std::size_t{1}, std::size_t{7}, std::size_t{8}, std::size_t{9},
          std::size_t{12}, std::size_t{15}, std::size_t{16},
          std::size_t{17}, std::size_t{48}, std::size_t{768}}) {
        const auto a = patternBytes(len, len);
        std::vector<std::uint8_t> b = a;
        EXPECT_TRUE(referenceEqual(a.data(), b.data(), len));
        EXPECT_TRUE(blockEqual(a.data(), b.data(), len)) << "len " << len;
        // Flip one bit of every single byte in turn: head, tail and
        // every word- and vector-boundary-straddling position.
        for (std::size_t p = 0; p < len; ++p) {
            b = a;
            b[p] ^= 0x80;
            ASSERT_FALSE(referenceEqual(a.data(), b.data(), len));
            EXPECT_FALSE(blockEqual(a.data(), b.data(), len))
                << "len " << len << " flip " << p;
        }
    }
}

TEST(BlockEqual, VectorConvenienceComparesSizeThenBytes)
{
    const std::vector<std::uint8_t> a = patternBytes(48, 5);
    std::vector<std::uint8_t> b = a;
    EXPECT_TRUE(blockEqual(a, b));
    b.pop_back();
    EXPECT_FALSE(blockEqual(a, b));
    b = a;
    b[47] ^= 1;
    EXPECT_FALSE(blockEqual(a, b));
    EXPECT_TRUE(blockEqual(std::vector<std::uint8_t>{},
                           std::vector<std::uint8_t>{}));
}

TEST(BatchDigests, MatchPerBlockDigestsAtEveryCountAndKind)
{
    // The batched whole-frame digest path must agree bit-for-bit with
    // the one-block-at-a-time digests it replaces, including the
    // interleaved-lane remainders (counts not divisible by 4).
    constexpr std::size_t kBlockLen = 48;
    for (std::size_t count :
         {std::size_t{1}, std::size_t{2}, std::size_t{3},
          std::size_t{4}, std::size_t{5}, std::size_t{8},
          std::size_t{13}}) {
        std::vector<std::vector<std::uint8_t>> storage;
        std::vector<const std::uint8_t *> blocks;
        for (std::size_t i = 0; i < count; ++i) {
            storage.push_back(patternBytes(kBlockLen, 1000 + i));
            blocks.push_back(storage.back().data());
        }
        for (HashKind kind :
             {HashKind::kCrc32, HashKind::kMd5, HashKind::kSha1}) {
            std::vector<std::uint32_t> got(count, 0);
            digest32Batch(kind, blocks.data(), kBlockLen, count,
                          got.data());
            for (std::size_t i = 0; i < count; ++i) {
                EXPECT_EQ(got[i],
                          digest32(kind, blocks[i], kBlockLen))
                    << hashKindName(kind) << " count " << count
                    << " block " << i;
            }
        }
        std::vector<std::uint16_t> aux(count, 0);
        auxDigest16Batch(blocks.data(), kBlockLen, count, aux.data());
        for (std::size_t i = 0; i < count; ++i) {
            EXPECT_EQ(aux[i], auxDigest16(blocks[i], kBlockLen))
                << "aux count " << count << " block " << i;
        }
    }
}

} // namespace
} // namespace vstream
