#include "bench_core.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace perfbench
{

namespace
{

/** 1-based nearest rank of quantile @p q among @p n samples.  The
 * epsilon keeps q*n that is integral in exact arithmetic (0.9 * 100)
 * from rounding up a rank. */
std::size_t
nearestRank(double q, std::size_t n)
{
    const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
    return std::clamp<std::size_t>(static_cast<std::size_t>(r), 1, n);
}

} // namespace

Percentile
percentile(std::vector<double> samples, double q)
{
    Percentile p;
    p.n = samples.size();
    if (samples.empty()) {
        return p;
    }
    std::sort(samples.begin(), samples.end());
    p.value = samples[nearestRank(q, samples.size()) - 1];
    p.beyond = static_cast<std::size_t>(
        samples.end() -
        std::upper_bound(samples.begin(), samples.end(), p.value));
    return p;
}

double
median(std::vector<double> samples)
{
    if (samples.empty()) {
        return 0.0;
    }
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return n % 2 == 1 ? samples[n / 2]
                      : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::size_t
minSamplesFor(double q)
{
    std::size_t n = 1;
    while (n - nearestRank(q, n) < kMinBeyond) {
        ++n;
    }
    return n;
}

// ---- digest -------------------------------------------------------------

void
Digest::mix(std::string_view bytes)
{
    for (const char c : bytes) {
        h_ ^= static_cast<std::uint8_t>(c);
        h_ *= 0x100000001b3ULL;
    }
}

void
Digest::add(std::string_view name, std::uint64_t v)
{
    mix(name);
    char buf[8];
    std::memcpy(buf, &v, sizeof buf);
    mix(std::string_view(buf, sizeof buf));
}

void
Digest::add(std::string_view name, double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(name, bits);
}

void
Digest::addBytes(std::string_view name, std::string_view bytes)
{
    add(name, static_cast<std::uint64_t>(bytes.size()));
    mix(bytes);
}

std::string
digestHex(std::uint64_t v)
{
    static const char kHex[] = "0123456789abcdef";
    std::string s(16, '0');
    for (int i = 15; i >= 0; --i) {
        s[static_cast<std::size_t>(i)] = kHex[v & 0xf];
        v >>= 4;
    }
    return s;
}

std::string
Digest::hex() const
{
    return digestHex(h_);
}

namespace
{

void
addDram(Digest &d, std::string_view who,
        const vstream::DramActivityCounts &c)
{
    const std::string p(who);
    d.add(p + ".act", c.activations);
    d.add(p + ".pre", c.precharges);
    d.add(p + ".rd", c.read_bursts);
    d.add(p + ".wr", c.write_bursts);
    d.add(p + ".rowhit", c.row_hits);
    d.add(p + ".brd", c.bytes_read);
    d.add(p + ".bwr", c.bytes_written);
}

} // namespace

void
addResult(Digest &d, const vstream::PipelineResult &r)
{
    d.addBytes("video", r.video_key);
    d.add("scheme", static_cast<std::uint64_t>(r.scheme));
    d.add("frames", static_cast<std::uint64_t>(r.frames));
    d.add("drops", static_cast<std::uint64_t>(r.drops));
    d.add("span", static_cast<std::uint64_t>(r.span));

    const vstream::EnergyBreakdown &e = r.energy;
    d.add("e.dc", e.dc);
    d.add("e.mem_bg", e.mem_background);
    d.add("e.vd", e.vd_processing);
    d.add("e.sleep", e.sleep);
    d.add("e.slack", e.short_slack);
    d.add("e.burst", e.mem_burst);
    d.add("e.actpre", e.mem_act_pre);
    d.add("e.trans", e.transition);
    d.add("e.mach", e.mach_overhead);

    const vstream::WritebackTotals &w = r.writeback;
    d.add("wb.mabs", w.mabs);
    d.add("wb.unique", w.unique_blocks);
    d.add("wb.intra", w.intra_matches);
    d.add("wb.inter", w.inter_matches);
    d.add("wb.data", w.data_bytes);
    d.add("wb.meta", w.meta_bytes);
    d.add("wb.dump", w.dump_bytes);
    d.add("wb.reqs", w.dram_write_requests);
    d.add("wb.dcc", w.dcc_saved_bytes);

    addDram(d, "dram.vd", r.dram_vd);
    addDram(d, "dram.dc", r.dram_dc);
    addDram(d, "dram", r.dram_total);
    d.add("dram.retries", r.dram_retries);
    d.add("dram.abandoned", r.dram_abandoned);

    const vstream::MachStats &m = r.mach;
    d.add("mach.lookups", m.lookups);
    d.add("mach.intra", m.intra_hits);
    d.add("mach.inter", m.inter_hits);
    d.add("mach.misses", m.misses);
    d.add("mach.coll_det", m.collisions_detected);
    d.add("mach.coll_undet", m.collisions_undetected);
    d.add("mach.inserts", m.inserts);
    d.add("mach.false_hits", m.false_hits);

    const vstream::DisplayTotals &t = r.display;
    d.add("dc.shown", t.frames_shown);
    d.add("dc.rerender", t.re_renders);
    d.add("dc.reqs", t.dram_requests);
    d.add("dc.bytes", t.bytes_read);
    d.add("dc.meta", t.meta_bytes);
    d.add("dc.digest", t.digest_records);
    d.add("dc.pointer", t.pointer_records);
    d.add("dc.frag", t.fragmented_fetches);
    d.add("dc.verify_fail", t.verify_failures);
    d.add("dc.pixels", t.pixel_digest);
    d.add("dc.cache_hits", r.display_cache_hits);
    d.add("dc.cache_misses", r.display_cache_misses);
    d.add("dc.machbuf_hits", r.mach_buffer_hits);
    d.add("dc.machbuf_misses", r.mach_buffer_misses);
    d.add("verified", static_cast<std::uint64_t>(r.all_verified));
}

std::uint64_t
resultDigest(const vstream::PipelineResult &r)
{
    Digest d;
    addResult(d, r);
    return d.value();
}

std::string
stripHostTimes(std::string_view report)
{
    static constexpr std::string_view kKey = "\"wall_clock_seconds\"";
    std::string out;
    out.reserve(report.size());
    std::size_t pos = 0;
    while (true) {
        const std::size_t k = report.find(kKey, pos);
        if (k == std::string_view::npos) {
            out.append(report.substr(pos));
            return out;
        }
        out.append(report.substr(pos, k - pos));
        // Skip the key, the colon, the number and one trailing comma.
        std::size_t i = k + kKey.size();
        while (i < report.size() &&
               (report[i] == ' ' || report[i] == ':')) {
            ++i;
        }
        while (i < report.size() && report[i] != ',' &&
               report[i] != '}' && report[i] != '\n') {
            ++i;
        }
        if (i < report.size() && report[i] == ',') {
            ++i;
        }
        pos = i;
    }
}

// ---- verification ---------------------------------------------------------

Verdict
classify(const UnitCheck &c)
{
    if (c.mismatches == 0) {
        return Verdict::kExact;
    }
    return c.mach && c.collisions > 0 ? Verdict::kExplained
                                      : Verdict::kFailed;
}

const char *
verdictName(Verdict v)
{
    switch (v) {
    case Verdict::kExact:
        return "exact";
    case Verdict::kExplained:
        return "explained";
    case Verdict::kFailed:
        return "FAILED";
    }
    return "?";
}

UnitCheck
unitCheck(std::string label, const vstream::PipelineResult &r)
{
    UnitCheck c;
    c.label = std::move(label);
    c.mach = r.mach.lookups > 0;
    c.mismatches = r.display.verify_failures;
    c.collisions = r.mach.collisions_undetected;
    return c;
}

// ---- spans -----------------------------------------------------------------

std::uint32_t
SpanRecorder::intern(const std::string &name)
{
    const auto it = ids_.find(name);
    if (it != ids_.end()) {
        return it->second;
    }
    const auto id = static_cast<std::uint32_t>(names_.size());
    names_.push_back(name);
    ids_.emplace(name, id);
    return id;
}

std::int32_t
SpanRecorder::add(std::uint32_t name, std::int64_t start_ns,
                  std::int64_t end_ns, std::int32_t parent)
{
    spans_.push_back({name, start_ns, end_ns, parent});
    return static_cast<std::int32_t>(spans_.size() - 1);
}

std::int32_t
SpanRecorder::open(std::uint32_t name, std::int64_t start_ns,
                   std::int32_t parent)
{
    return add(name, start_ns, start_ns, parent);
}

void
SpanRecorder::close(std::int32_t idx, std::int64_t end_ns)
{
    spans_[static_cast<std::size_t>(idx)].end_ns = end_ns;
}

void
SpanRecorder::writeTo(std::ostream &os) const
{
    os << "name,start_ns,end_ns,parent\n";
    for (const Span &s : spans_) {
        os << names_[s.name] << ',' << s.start_ns << ',' << s.end_ns
           << ',' << s.parent << '\n';
    }
    os << "\ncount,value\n";
    for (const auto &[name, n] : counts_) {
        os << name << ',' << n << '\n';
    }
}

double
Ledger::self(const std::string &name) const
{
    const auto it = self_s.find(name);
    return it == self_s.end() ? 0.0 : it->second;
}

double
Ledger::share(const std::string &name) const
{
    return total_s > 0.0 ? self(name) / total_s : 0.0;
}

Ledger
buildLedger(const SpanRecorder &rec)
{
    const std::vector<Span> &spans = rec.spans();
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        self[i] += spans[i].duration();
        if (spans[i].parent >= 0) {
            self[static_cast<std::size_t>(spans[i].parent)] -=
                spans[i].duration();
        }
    }
    Ledger l;
    std::int64_t total_ns = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        l.self_s[rec.nameOf(spans[i].name)] +=
            static_cast<double>(self[i]) * 1e-9;
        if (spans[i].parent < 0) {
            total_ns += spans[i].duration();
        }
    }
    l.total_s = static_cast<double>(total_ns) * 1e-9;
    return l;
}

} // namespace perfbench
