#include "core/writeback_stage.hh"

#include "core/dcc.hh"
#include "hash/hasher.hh"
#include "sim/logging.hh"

namespace vstream
{

double
WritebackTotals::savings(std::uint32_t mab_bytes) const
{
    const auto baseline = baselineBytes(mab_bytes);
    if (baseline == 0) {
        return 0.0;
    }
    return 1.0 - static_cast<double>(totalBytes()) /
                     static_cast<double>(baseline);
}

// ---------------------------------------------------------------------
// LinearWriteback
// ---------------------------------------------------------------------

LinearWriteback::LinearWriteback(MemorySystem &mem, FrameBufferManager &fbm)
    : mem_(mem), fbm_(fbm),
      data_buf_("wb.linear.data", 64,
                [this](Addr addr, std::uint32_t size, Tick now) {
                    mem_.write(addr, size, Requester::kVideoDecoder, now);
                    ++totals_.dram_write_requests;
                })
{
}

void
LinearWriteback::beginFrame(const Frame &frame, BufferSlot &slot, Tick now,
                            FrameLayout &layout)
{
    slot_ = &slot;
    mab_bytes_ = frame.mab(0).sizeBytes();
    layout.reinit(frame.index(), LayoutKind::kLinear, frame.mabCount(),
                  mab_bytes_, /*gradient_mode=*/false);
    layout_ = &layout;
    layout_->setDataBase(slot.data_base);
    layout_->setMetaBase(slot.meta_base);
    layout_->setSourceChecksum(frame.contentChecksum());
    data_buf_.rebase(slot.data_base);
    last_tick_ = now;
}

// vstream:hot
void
LinearWriteback::writeMab(const Macroblock &mab, std::uint32_t idx,
                          Tick now)
{
    vs_assert(layout_ != nullptr, "writeMab outside a frame");
    const Addr addr =
        slot_->data_base + static_cast<Addr>(idx) * mab_bytes_;
    fbm_.storeBlock(addr, mab.bytes());

    MabRecord &rec = layout_->record(idx);
    rec.storage = MabStorage::kUnique;
    rec.data_addr = addr;
    rec.base = mab.base();

    data_buf_.append(mab.sizeBytes(), now);
    ++totals_.mabs;
    ++totals_.unique_blocks;
    totals_.data_bytes += mab.sizeBytes();
    last_tick_ = now;
}

void
LinearWriteback::finishFrame(Tick now)
{
    vs_assert(layout_ != nullptr, "finishFrame outside a frame");
    data_buf_.flush(now);
    layout_->setDataBytes(static_cast<std::uint64_t>(
                              layout_->mabCount()) *
                          mab_bytes_);
    layout_->setMetaBytes(0);
    layout_ = nullptr;
    slot_ = nullptr;
}

// ---------------------------------------------------------------------
// MachWriteback
// ---------------------------------------------------------------------

MachWriteback::MachWriteback(MemorySystem &mem, FrameBufferManager &fbm,
                             MachArray &machs, LayoutKind layout_kind,
                             bool use_dcc)
    : mem_(mem), fbm_(fbm), machs_(machs), layout_kind_(layout_kind),
      use_dcc_(use_dcc),
      data_buf_("wb.mach.data", machs.config().coalesce_bytes,
                [this](Addr addr, std::uint32_t size, Tick now) {
                    mem_.write(addr, size, Requester::kVideoDecoder, now);
                    ++totals_.dram_write_requests;
                }),
      meta_buf_("wb.mach.meta", machs.config().coalesce_bytes,
                [this](Addr addr, std::uint32_t size, Tick now) {
                    mem_.write(addr, size, Requester::kVideoDecoder, now);
                    ++totals_.dram_write_requests;
                }),
      base_buf_("wb.mach.base", machs.config().coalesce_bytes,
                [this](Addr addr, std::uint32_t size, Tick now) {
                    mem_.write(addr, size, Requester::kVideoDecoder, now);
                    ++totals_.dram_write_requests;
                })
{
    vs_assert(layout_kind_ != LayoutKind::kLinear,
              "MachWriteback requires a pointer-based layout");
}

void
MachWriteback::beginFrame(const Frame &frame, BufferSlot &slot, Tick now,
                          FrameLayout &layout)
{
    slot_ = &slot;
    mab_bytes_ = frame.mab(0).sizeBytes();
    machs_.beginFrame();
    layout.reinit(frame.index(), layout_kind_, frame.mabCount(),
                  mab_bytes_, machs_.config().use_gradient);
    layout_ = &layout;
    layout_->setDataBase(slot.data_base);
    layout_->setMetaBase(slot.meta_base);
    layout_->setMachDumpBase(slot.mach_dump_base);
    layout_->setSourceChecksum(frame.contentChecksum());

    data_buf_.rebase(slot.data_base);
    // Pointer/digest stream first, bases behind it (both live in the
    // metadata region; exact packing is immaterial to the model).
    meta_buf_.rebase(slot.meta_base);
    base_buf_.rebase(slot.meta_base +
                     static_cast<Addr>(frame.mabCount()) * 5);

    frame_data_bytes_ = 0;
    frame_meta_bytes_ = 0;
    last_tick_ = now;

    // Whole-frame precompute: run the gab transform over every mab,
    // then digest all blocks in one batched dispatch call instead of
    // re-entering the hash kernel per mab.  The scratch vectors size
    // themselves on the first frame (the mab count is fixed for a
    // stream) and are reused allocation-free afterwards.
    const MachConfig &cfg = machs_.config();
    const bool gab_mode = cfg.use_gradient;
    const std::uint32_t count = frame.mabCount();
    frame_ = &frame;
    // vstream:allow(no-hotpath-alloc) first-frame sizing only; every
    // later resize is a no-op at the stream's fixed mab count
    gabs_.resize(gab_mode ? count : 0);
    block_ptrs_.resize(count);
    digests_.resize(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        if (gab_mode) {
            frame.mab(i).gradientInto(gabs_[i]);
            block_ptrs_[i] = gabs_[i].bytes().data();
        } else {
            block_ptrs_[i] = frame.mab(i).bytes().data();
        }
    }
    digest32Batch(cfg.hash, block_ptrs_.data(), mab_bytes_, count,
                  digests_.data());
    if (cfg.co_mach) {
        auxes_.resize(count);
        auxDigest16Batch(block_ptrs_.data(), mab_bytes_, count,
                         auxes_.data());
    }
}

// vstream:hot
void
MachWriteback::writeMab(const Macroblock &mab, std::uint32_t idx, Tick now)
{
    vs_assert(layout_ != nullptr, "writeMab outside a frame");
    vs_assert(frame_ != nullptr && idx < frame_->mabCount() &&
                  &mab == &frame_->mab(idx),
              "writeMab must walk the frame given to beginFrame");
    const MachConfig &cfg = machs_.config();
    const bool gab_mode = cfg.use_gradient;

    // Representation stored in memory: the gab in gradient mode.
    // Both the gab bytes and the digests were precomputed for the
    // whole frame by beginFrame()'s batched pass.
    const Macroblock &repr = gab_mode ? gabs_[idx] : mab;
    const std::uint32_t digest = digests_[idx];
    const std::uint16_t aux = cfg.co_mach ? auxes_[idx] : 0;

    MabRecord &rec = layout_->record(idx);
    rec.digest = digest;
    rec.base = mab.base();

    const MachLookupResult hit =
        machs_.lookup(digest, aux, repr.bytes(), now);

    ++totals_.mabs;

    if (hit.hit) {
        // Match: store only the pointer (layout ii) or, for
        // inter-matches in layout iii, the digest.
        const bool as_digest =
            layout_kind_ == LayoutKind::kPointerDigest && hit.inter;
        rec.storage = as_digest
                          ? MabStorage::kInterDigest
                          : (hit.inter ? MabStorage::kInterPointer
                                       : MabStorage::kIntraPointer);
        rec.data_addr = hit.ptr;

        const std::uint32_t meta =
            (as_digest ? cfg.digest_bytes : cfg.pointer_bytes);
        meta_buf_.append(meta, now);
        frame_meta_bytes_ += meta;
        if (gab_mode) {
            base_buf_.append(cfg.base_bytes, now);
            frame_meta_bytes_ += cfg.base_bytes;
        }
        if (hit.inter) {
            ++totals_.inter_matches;
        } else {
            ++totals_.intra_matches;
        }
        if (hit.collision_undetected) {
            layout_->noteUndetectedCollision();
        }
        last_tick_ = now;
        return;
    }

    // No match: append the block to the compacted data region.
    const Addr addr = slot_->data_base + frame_data_bytes_;
    std::uint32_t stored_bytes = repr.sizeBytes();
    if (use_dcc_) {
        const DccResult dcc = dccCompress(repr);
        totals_.dcc_saved_bytes +=
            repr.sizeBytes() > dcc.compressed_bytes
                ? repr.sizeBytes() - dcc.compressed_bytes
                : 0;
        stored_bytes = std::min(dcc.compressed_bytes, repr.sizeBytes());
    }
    fbm_.storeBlock(addr, repr.bytes());

    rec.storage = MabStorage::kUnique;
    rec.data_addr = addr;

    data_buf_.append(stored_bytes, now);
    frame_data_bytes_ += stored_bytes;
    totals_.data_bytes += stored_bytes;

    // The unique block also stores its pointer (Fig. 8a: 52 bytes).
    meta_buf_.append(cfg.pointer_bytes, now);
    frame_meta_bytes_ += cfg.pointer_bytes;
    if (gab_mode) {
        base_buf_.append(cfg.base_bytes, now);
        frame_meta_bytes_ += cfg.base_bytes;
    }

    machs_.insertUnique(digest, aux, addr, repr.bytes(),
                        hit.collision_detected);
    ++totals_.unique_blocks;
    last_tick_ = now;
}

void
MachWriteback::finishFrame(Tick now)
{
    vs_assert(layout_ != nullptr, "finishFrame outside a frame");
    const MachConfig &cfg = machs_.config();

    data_buf_.flush(now);
    meta_buf_.flush(now);
    base_buf_.flush(now);

    // The pointer-vs-digest bitmap (layout iii): 1 bit per mab.
    if (layout_kind_ == LayoutKind::kPointerDigest) {
        const std::uint32_t bitmap_bytes =
            (layout_->mabCount() + 7) / 8;
        mem_.write(slot_->meta_base + slot_->meta_capacity -
                       bitmap_bytes,
                   bitmap_bytes, Requester::kVideoDecoder, now);
        ++totals_.dram_write_requests;
        frame_meta_bytes_ += bitmap_bytes;

        // Dump the frozen MACH image for the display's MACH buffer,
        // built in place so a recycled layout reuses its capacity.
        // A dump never exceeds the MACH's entry count, so reserving
        // that bound up front makes the growth warmup-only instead of
        // chasing the largest dump seen so far.
        auto &dump = layout_->machDumpMutable();
        // vstream:allow(no-hotpath-alloc) bounded one-time reserve:
        // no-op once the recycled layout has reached cfg.entries
        dump.reserve(cfg.entries);
        dump.clear();
        machs_.current().forEachValid([&](const MachEntry &e) {
            dump.emplace_back(e.digest, e.ptr);
        });
        const std::uint64_t dump_bytes =
            dump.size() * (cfg.digest_bytes + cfg.pointer_bytes);
        if (dump_bytes > 0) {
            mem_.write(slot_->mach_dump_base,
                       static_cast<std::uint32_t>(dump_bytes),
                       Requester::kVideoDecoder, now);
            ++totals_.dram_write_requests;
        }
        layout_->setMachDumpBytes(dump_bytes);
        totals_.dump_bytes += dump_bytes;
    }

    totals_.meta_bytes += frame_meta_bytes_;
    layout_->setDataBytes(frame_data_bytes_);
    layout_->setMetaBytes(frame_meta_bytes_);

    layout_ = nullptr;
    slot_ = nullptr;
    frame_ = nullptr;
}

} // namespace vstream
