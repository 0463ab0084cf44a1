#include "video/library.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "core/flat_table.hh"
#include "sim/logging.hh"

namespace vstream
{

namespace
{

/** Catalogue cap: beyond this the per-title CDF stops being a
 * sensible in-memory structure and the spec is almost certainly a
 * typo (or hostile fuzz input). */
constexpr std::uint32_t kMaxTitles = 1u << 20;

/** Zipf exponents above this produce weights that underflow to zero
 * long before the catalogue ends; reject rather than silently
 * degenerate to a one-title library. */
constexpr double kMaxSkew = 16.0;

/** Plain digits only; see tryParseCount in serve/chaos.cc for why
 * strtoull alone is a trap on untrusted input. */
bool
tryParseCount(const std::string &value, std::uint64_t &out,
              std::string &error)
{
    if (value.empty() ||
        value.find_first_not_of("0123456789") != std::string::npos) {
        error = "bad count '" + value + "'";
        return false;
    }
    errno = 0;
    char *end = nullptr;
    const unsigned long long v =
        std::strtoull(value.c_str(), &end, 10);
    if (errno == ERANGE || end != value.c_str() + value.size()) {
        error = "count '" + value + "' out of range";
        return false;
    }
    out = v;
    return true;
}

bool
tryParseSkew(const std::string &value, double &out, std::string &error)
{
    char *end = nullptr;
    const double s = std::strtod(value.c_str(), &end);
    // Inclusive-range form is false for NaN.
    if (end == value.c_str() || *end != '\0' ||
        !(s >= 0.0 && s <= kMaxSkew)) {
        error = "bad skew '" + value + "' (need [0, 16])";
        return false;
    }
    out = s;
    return true;
}

} // namespace

bool
tryParseLibrarySpec(const std::string &spec, LibrarySpec &out,
                    std::string &error)
{
    LibrarySpec lib;
    bool have_titles = false;

    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos) {
            comma = spec.size();
        }
        const std::string field = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (field.empty()) {
            continue;
        }
        const std::size_t eq = field.find('=');
        if (eq == std::string::npos) {
            error = "field '" + field + "' is not key=value";
            return false;
        }
        const std::string key = field.substr(0, eq);
        const std::string value = field.substr(eq + 1);
        bool ok = true;
        if (key == "titles") {
            std::uint64_t n = 0;
            ok = tryParseCount(value, n, error);
            if (ok && (n == 0 || n > kMaxTitles)) {
                error = "titles '" + value + "' outside [1, " +
                        std::to_string(kMaxTitles) + "]";
                return false;
            }
            if (ok) {
                lib.titles = static_cast<std::uint32_t>(n);
                have_titles = true;
            }
        } else if (key == "skew") {
            ok = tryParseSkew(value, lib.skew, error);
        } else if (key == "seed") {
            ok = tryParseCount(value, lib.seed, error);
        } else {
            error = "unknown key '" + key + "'";
            return false;
        }
        if (!ok) {
            return false;
        }
    }

    if (!have_titles) {
        error = "library needs titles=N";
        return false;
    }
    out = lib;
    return true;
}

LibrarySpec
parseLibrarySpec(const std::string &spec)
{
    LibrarySpec lib;
    std::string error;
    if (!tryParseLibrarySpec(spec, lib, error)) {
        vs_fatal("library spec '", spec, "': ", error);
    }
    return lib;
}

ZipfLibrary::ZipfLibrary(LibrarySpec spec) : spec_(spec)
{
    vs_assert(spec_.titles >= 1 && spec_.titles <= kMaxTitles,
              "library titles outside [1, 2^20]");
    vs_assert(spec_.skew >= 0.0 && spec_.skew <= kMaxSkew,
              "library skew outside [0, 16]");
    cdf_.resize(spec_.titles);
    double total = 0.0;
    for (std::uint32_t t = 0; t < spec_.titles; ++t) {
        total += std::pow(static_cast<double>(t) + 1.0, -spec_.skew);
        cdf_[t] = total;
    }
    for (double &c : cdf_) {
        c /= total;
    }
    cdf_.back() = 1.0;
}

std::uint32_t
ZipfLibrary::sampleTitle(std::uint64_t key) const
{
    const std::uint64_t u = mixHash(spec_.seed ^ mixHash(key));
    // 53 mantissa bits of uniform [0, 1).
    const double x =
        static_cast<double>(u >> 11) * 0x1.0p-53;
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), x);
    const auto idx = it == cdf_.end() ? cdf_.size() - 1
                                      : static_cast<std::size_t>(
                                            it - cdf_.begin());
    return static_cast<std::uint32_t>(idx);
}

double
ZipfLibrary::weight(std::uint32_t title) const
{
    vs_assert(title < spec_.titles, "library title out of range");
    return title == 0 ? cdf_[0] : cdf_[title] - cdf_[title - 1];
}

void
ZipfLibrary::applyTo(VideoProfile &profile, std::uint32_t title) const
{
    vs_assert(title < spec_.titles, "library title out of range");
    // Built in two steps: GCC 12 -O3 reports a false-positive
    // -Wrestrict for both `"T" + std::to_string(title)` and
    // `key = "T"`.
    profile.key.assign(1, 'T');
    profile.key += std::to_string(title);
    profile.library_title = title;
    // Content identity: same title => same generator seed => byte-
    // identical macroblocks, independent of which session plays it.
    profile.seed = mixHash(spec_.seed ^
                           (0x9e3779b97f4a7c15ULL *
                            (static_cast<std::uint64_t>(title) + 1)));
}

} // namespace vstream
