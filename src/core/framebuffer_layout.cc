#include "core/framebuffer_layout.hh"

namespace vstream
{

std::string
layoutKindName(LayoutKind k)
{
    switch (k) {
      case LayoutKind::kLinear:
        return "linear";
      case LayoutKind::kPointer:
        return "pointer";
      case LayoutKind::kPointerDigest:
        return "pointer+digest";
    }
    return "?";
}

FrameLayout::FrameLayout(std::uint64_t frame_index, LayoutKind kind,
                         std::uint32_t mab_count, std::uint32_t mab_bytes,
                         bool gradient_mode)
    : frame_index_(frame_index), kind_(kind), mab_bytes_(mab_bytes),
      gradient_mode_(gradient_mode), records_(mab_count)
{
}

void
FrameLayout::reinit(std::uint64_t frame_index, LayoutKind kind,
                    std::uint32_t mab_count, std::uint32_t mab_bytes,
                    bool gradient_mode)
{
    frame_index_ = frame_index;
    kind_ = kind;
    mab_bytes_ = mab_bytes;
    gradient_mode_ = gradient_mode;
    records_.assign(mab_count, MabRecord{});
    meta_base_ = 0;
    data_base_ = 0;
    mach_dump_base_ = 0;
    mach_dump_bytes_ = 0;
    data_bytes_ = 0;
    meta_bytes_ = 0;
    source_checksum_ = 0;
    undetected_collisions_ = 0;
    mach_dump_.clear();
}

std::uint64_t
FrameLayout::countStorage(MabStorage s) const
{
    std::uint64_t n = 0;
    for (const auto &r : records_) {
        if (r.storage == s) {
            ++n;
        }
    }
    return n;
}

} // namespace vstream
