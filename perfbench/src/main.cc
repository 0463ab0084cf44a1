/**
 * @file
 * Repository benchmark: host cost of the vstream simulator on three
 * workloads, with the simulated output checked on every run.
 *
 *   vstream_perfbench --workload fig11|fleet|mab16 --seed N
 *                     --seconds S --trace 0|1
 *                     --digests FILE [--spans FILE]
 *
 * --trace 0 times the public API (VideoPipeline::run per playback
 * unit; Placer::run per fleet round, split into its rehearsal blocks)
 * after an untimed set-up and prints the end-to-end metrics; set-up
 * itself is timed in fresh processes of this program, started with
 * --setup-only 1.  Every host time it reports is scaled to the host
 * gauge's nominal speed (host_gauge.hh); the times as measured are
 * printed beside them.  --trace 1 is a separate pass that
 * prints the per-layer ledger: spans around the components' public
 * calls (layers.hh), replays of the layers the decoder calls
 * internally, the serve tier against solo runs, and the speed-up of
 * the parallel pass.  Both modes check the simulated results: the
 * digest against the one recorded for the seed (FILE), repeats and
 * worker counts against each other, and every unit's frame checksums.
 *
 * The last line of standard output is one JSON object:
 * {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
 * The exit code is non-zero when the output is not correct.
 */

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <iterator>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_core.hh"
#include "core/video_pipeline.hh"
#include "host_gauge.hh"
#include "layers.hh"
#include "serve/fleet_report.hh"
#include "serve/placer.hh"
#include "serve/session.hh"
#include "sim/parallel.hh"
#include "workloads.hh"

namespace
{

using namespace vstream;
using namespace perfbench;

/** Cold set-ups whose median is setup_s. */
constexpr int kColdSetups = 9;
/** Round index of the untimed warm-up round, clear of timed ids. */
constexpr std::uint64_t kWarmupRound = 1u << 20;

struct Args
{
    /** How this program was started (argv[0]); set-up children are
     * spawned from it. */
    std::string self;
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    /** Only set up, report "ready" on standard output and exit. */
    bool setup_only = false;
    std::string digests;
    std::string spans;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Everything the final JSON line reports. */
struct Outcome
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;

    void
    fail(const std::string &why)
    {
        correct = false;
        std::cout << "CHECK FAILED: " << why << "\n";
    }

    void
    metric(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
};

double
secondsSince(std::int64_t t0)
{
    return static_cast<double>(nowNs() - t0) * 1e-9;
}

unsigned
hostJobs()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Host seconds as measured, and scaled by the host gauge. */
struct HostTime
{
    double raw = 0.0;
    double scaled = 0.0;
};

/**
 * One cold set-up: seconds from spawning this program with
 * --setup-only until it reports its set-up done.  The fresh process
 * pays for loading, static initialisation and every lazy set-up again.
 * It then reads the host gauge, after the reported line, and the
 * interval is scaled by that reading.
 */
HostTime
coldSetup(const Args &a)
{
    int fd[2];
    if (pipe(fd) != 0) {
        throw std::runtime_error("cannot open a pipe to the set-up child");
    }
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, fd[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&fa, fd[0]);
    posix_spawn_file_actions_addclose(&fa, fd[1]);
    std::vector<std::string> args = {a.self,
                                     "--workload",
                                     a.workload,
                                     "--seed",
                                     std::to_string(a.seed),
                                     "--digests",
                                     a.digests,
                                     "--setup-only",
                                     "1"};
    std::vector<char *> argv;
    for (std::string &s : args) {
        argv.push_back(s.data());
    }
    argv.push_back(nullptr);

    const std::int64_t t0 = nowNs();
    pid_t pid = 0;
    const int rc = posix_spawn(&pid, a.self.c_str(), &fa, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    close(fd[1]);
    const auto readLine = [&] {
        std::string line;
        char c = 0;
        while (rc == 0 && read(fd[0], &c, 1) == 1 && c != '\n') {
            line += c;
        }
        return line;
    };
    const std::string line = readLine();
    const double s = secondsSince(t0);
    const std::string gauge = readLine();
    close(fd[0]);
    if (rc != 0) {
        throw std::runtime_error("cannot spawn the set-up child");
    }
    int status = 0;
    waitpid(pid, &status, 0);
    if (line != "ready" || gauge.empty() || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
        throw std::runtime_error("the set-up child failed");
    }
    return {s, s * gaugeScale(std::stod(gauge))};
}

/** setup_s: the median of kColdSetups cold set-ups. */
HostTime
coldSetupS(const Args &a)
{
    std::vector<double> raw, scaled;
    for (int k = 0; k < kColdSetups; ++k) {
        const HostTime t = coldSetup(a);
        raw.push_back(t.raw);
        scaled.push_back(t.scaled);
    }
    return {median(raw), median(scaled)};
}

/** The host-time metrics as measured, before gauge scaling. */
void
printUnscaled(double frames_per_s, double p50_ms, double p90_ms,
              double setup_s, double gauge_ns)
{
    std::cout << "host time as measured: sim_frames_per_s "
              << frames_per_s << ", playback_ms_p50 " << p50_ms
              << ", playback_ms_p90 " << p90_ms << ", setup_s " << setup_s
              << "; median gauge " << gauge_ns << " ns against a nominal "
              << kGaugeNominalNs << " ns\n";
}

/** Digest recorded for (@p workload, @p seed) in @p path; empty when
 * none is. */
std::string
recordedDigest(const std::string &path, const std::string &workload,
               std::uint64_t seed)
{
    std::ifstream is(path);
    if (!is) {
        throw std::runtime_error("cannot read digest file " + path);
    }
    std::string line;
    while (std::getline(is, line)) {
        std::istringstream ls(line);
        std::string w, hex;
        std::uint64_t s = 0;
        if (ls >> w >> s >> hex && w == workload && s == seed) {
            return hex;
        }
    }
    return "";
}

void
checkDigest(Outcome &out, const Args &a, const std::string &hex)
{
    const std::string want = recordedDigest(a.digests, a.workload, a.seed);
    std::cout << "simulated-result digest " << hex << " (recorded: "
              << (want.empty() ? "none for this seed" : want) << ")\n";
    if (!want.empty() && want != hex) {
        out.fail("digest differs from the one recorded for seed " +
                 std::to_string(a.seed));
    }
    if (want.empty() && a.seed == kDefaultSeed) {
        out.fail("no digest recorded for the default seed");
    }
}

// ---- playback units (fig11, mab16) ---------------------------------------

std::vector<Unit>
makeUnits(const Args &a)
{
    return a.workload == "fig11" ? fig11Units(a.seed) : mab16Units(a.seed);
}

PipelineResult
runUnit(const Unit &u)
{
    VideoPipeline p(u.config);
    return p.run();
}

/** Set-up of fig11 and mab16: the units and one warm-up unit. */
std::vector<Unit>
setUpUnits(const Args &a)
{
    std::vector<Unit> units = makeUnits(a);
    (void)runUnit(units.front());
    return units;
}

/** The model's Fig. 11 error at @p seed from an untimed parallel
 * pass (for workloads whose own units are not the Fig. 11 set). */
double
fig11ErrorPp(std::uint64_t seed)
{
    const std::vector<Unit> units = fig11Units(seed);
    const std::vector<double> e =
        parallelMap(hostJobs(), units.size(), [&](std::size_t i) {
            return runUnit(units[i]).totalEnergy();
        });
    return paperErrorPp(e);
}

/** Judge one unit; prints every mismatch with its own collisions. */
Verdict
judge(const UnitCheck &c)
{
    const Verdict v = classify(c);
    if (v != Verdict::kExact) {
        std::cout << "frame-checksum mismatch " << c.label << ": "
                  << c.mismatches << " frame(s), " << c.collisions
                  << " undetected collision(s) -> " << verdictName(v)
                  << "\n";
    }
    return v;
}

void
printPaperError(double err, std::uint64_t seed)
{
    std::cout << "paper_err_pp " << std::fixed << std::setprecision(3)
              << err << " at seed " << seed
              << (seed == kDefaultSeed ? " (default)"
                  : seed == kHeldOutSeed ? " (held out)"
                                         : "")
              << std::defaultfloat
              << ": gap to the paper's Fig. 11 averages, which are "
                 "themselves simulated; this model is not validated "
                 "against hardware\n";
}

void
timedUnits(const Args &a, Outcome &out)
{
    const HostTime setup_s = coldSetupS(a);
    const std::vector<Unit> units = setUpUnits(a);

    const std::size_t n = units.size();
    const std::size_t min_units = std::max(n, minSamplesFor(0.9));
    std::vector<double> ms, raw_ms, gauges;
    std::vector<std::uint64_t> first(n);
    std::vector<double> energies(n);
    Digest pass;
    std::uint64_t frames = 0;
    HostTime busy_s;

    // Whole passes only, so every run samples the same mix of units.
    // The gauge is read between units, outside their times, and each
    // unit is scaled by the mean of the readings on its two sides.
    const std::int64_t t0 = nowNs();
    double g_before = gaugeNs();
    for (std::size_t k = 0; k < min_units || k % n != 0 ||
                            secondsSince(t0) < a.seconds;
         ++k) {
        const Unit &u = units[k % n];
        const std::int64_t ts = nowNs();
        const PipelineResult r = runUnit(u);
        const double dt = secondsSince(ts);
        const double g_after = gaugeNs();
        const double scale = gaugeScale(0.5 * (g_before + g_after));
        g_before = g_after;
        raw_ms.push_back(dt * 1e3);
        ms.push_back(dt * scale * 1e3);
        gauges.push_back(g_after);
        busy_s.raw += dt;
        busy_s.scaled += dt * scale;
        frames += r.frames;

        const std::uint64_t d = resultDigest(r);
        if (k < n) {
            first[k] = d;
            pass.add(u.label, d);
            energies[k] = r.totalEnergy();
            if (judge(unitCheck(u.label, r)) == Verdict::kFailed) {
                ++out.failed;
            }
        } else {
            if (d != first[k % n]) {
                out.fail("repeat of " + u.label +
                         " changed its simulated result");
            }
            if (classify(unitCheck(u.label, r)) == Verdict::kFailed) {
                ++out.failed;
            }
        }
    }
    // The timed phase's own peak, before the checks and passes below.
    const double rss_mb = peakRssMb();
    out.attempted = ms.size();
    checkDigest(out, a, pass.hex());

    const Percentile p50 = percentile(ms, 0.5);
    const Percentile p90 = percentile(ms, 0.9);
    std::cout << "playback units " << p90.n << " (" << n
              << " per pass); p90 has " << p90.beyond
              << " samples beyond it\n";
    if (!p90.resolved()) {
        out.fail("too few samples beyond playback_ms_p90");
    }
    const double err = a.workload == "fig11" ? paperErrorPp(energies)
                                             : fig11ErrorPp(a.seed);
    printPaperError(err, a.seed);
    printUnscaled(static_cast<double>(frames) / busy_s.raw,
                  percentile(raw_ms, 0.5).value,
                  percentile(raw_ms, 0.9).value, setup_s.raw,
                  median(gauges));

    out.metric("sim_frames_per_s",
               static_cast<double>(frames) / busy_s.scaled, "frames/s");
    out.metric("playback_ms_p50", p50.value, "ms");
    out.metric("playback_ms_p90", p90.value, "ms");
    out.metric("setup_s", setup_s.scaled, "s");
    out.metric("peak_rss_mb", rss_mb, "MiB");
    out.metric("paper_err_pp", err, "pp");
}

/** Writeback, MACH, DRAM and display counts summed over results. */
struct Counts
{
    std::uint64_t mabs = 0;
    std::uint64_t elided = 0;
    std::uint64_t mach_lookups = 0;
    std::uint64_t mach_hits = 0;
    DramActivityCounts dram;
    std::uint64_t retries = 0;
    std::uint64_t abandoned = 0;
    std::uint64_t dc_hits = 0;
    std::uint64_t dc_misses = 0;
    std::uint64_t mb_hits = 0;
    std::uint64_t mb_misses = 0;

    void
    add(const PipelineResult &r)
    {
        mabs += r.writeback.mabs;
        elided += r.writeback.intra_matches + r.writeback.inter_matches;
        mach_lookups += r.mach.lookups;
        mach_hits += r.mach.hits();
        dram += r.dram_total;
        retries += r.dram_retries;
        abandoned += r.dram_abandoned;
        dc_hits += r.display_cache_hits;
        dc_misses += r.display_cache_misses;
        mb_hits += r.mach_buffer_hits;
        mb_misses += r.mach_buffer_misses;
    }
};

/** The layer ledger of driven units: spans, counts, replays. */
struct LayerPass
{
    SpanRecorder rec;
    double untraced_s = 0.0;
    Replay dram;
    Replay cache;
    Replay hash;

    double
    count(const std::string &name) const
    {
        const auto it = rec.counts().find(name);
        return it == rec.counts().end() ? 0.0
                                        : static_cast<double>(it->second);
    }
};

/**
 * Drive each of @p configs untraced, then traced - unit by unit, so
 * host drift stays out of the tracing overhead; @p expect[i] is the
 * pipeline's own result for configs[i], whose content-determined
 * counts the traced drive must reproduce.
 */
void
driveLayers(const std::vector<const PipelineConfig *> &configs,
            const std::vector<const PipelineResult *> &expect,
            LayerPass &lp, Outcome &out)
{
    std::size_t diverged = 0;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        lp.untraced_s += driveUnit(*configs[i], nullptr).seconds;
        const DriveResult d = driveUnit(*configs[i], &lp.rec);
        lp.rec.count("frames", d.frames);
        lp.rec.count("mabs", d.writeback.mabs);
        lp.rec.count("cache.probes", d.cache_probes);
        lp.rec.count("cache.misses", d.cache_misses);
        if (!sameWork(d, *expect[i])) {
            ++diverged;
            std::cout << "driven " << expect[i]->video_key << "/"
                      << schemeKey(expect[i]->scheme)
                      << " did other writeback/MACH work than its "
                         "pipeline run\n";
        }
    }
    if (diverged > 0) {
        out.fail(std::to_string(diverged) +
                 " driven unit(s) diverged from the pipeline");
    }
    std::cout << "layer driver reproduced the pipeline's writeback/MACH "
                 "counts on "
              << configs.size() - diverged << "/" << configs.size()
              << " units\n";
}

/** Replays over @p configs' videos. */
void
replayLayers(const std::vector<const PipelineConfig *> &configs,
             std::uint32_t frames, LayerPass &lp)
{
    const auto add = [](Replay &sum, const Replay &r) {
        sum.events += r.events;
        sum.seconds += r.seconds;
    };
    for (const PipelineConfig *c : configs) {
        add(lp.dram, replayDram(*c, frames));
        add(lp.cache, replayCache(*c, frames));
        add(lp.hash, replayHash(*c, frames));
    }
}

/**
 * Per-layer metrics shared by every workload.  @p c counts what the
 * workload did; @p driven what the driven units did, the base of the
 * estimated shares of the layers the decoder calls internally.
 */
void
layerMetrics(const LayerPass &lp, const Counts &c, const Counts &driven,
             Outcome &out)
{
    const Ledger l = buildLedger(lp.rec);
    const double fr = lp.count("frames");

    std::cout << "\ntraced ledger (self time, share of the traced "
                 "total):\n";
    // The unit span's own self time is the residual: everything in a
    // unit outside the spanned layer calls.
    const std::pair<const char *, const char *> rows[] = {
        {"video", "video"},         {"decoder", "decoder"},
        {"writeback", "writeback"}, {"display", "display"},
        {"other", "unit"},
    };
    double sum = 0.0;
    for (const auto &[row, span] : rows) {
        const double s = l.self(span);
        std::cout << "  " << std::left << std::setw(10) << row
                  << std::right << std::setw(10) << std::fixed
                  << std::setprecision(4) << s << " s "
                  << std::setw(7) << std::setprecision(2)
                  << 100.0 * l.share(span) << "%\n";
        sum += s;
        out.metric(std::string("share.") + row, l.share(span), "ratio");
    }
    std::cout << "  total     " << std::setw(10) << std::setprecision(4)
              << l.total_s << " s (layers + other = " << sum
              << " s); untraced " << lp.untraced_s << " s\n"
              << std::defaultfloat;
    if (std::abs(sum - l.total_s) > 1e-6 * std::max(1.0, l.total_s)) {
        out.fail("layer shares do not sum to the traced total");
    }
    out.metric("trace.total_s", l.total_s, "s");
    out.metric("trace.overhead_frac",
               ratio(l.total_s - lp.untraced_s, lp.untraced_s), "ratio");

    out.metric("video.ns_per_frame", ratio(l.self("video") * 1e9, fr),
               "ns");
    out.metric("decoder.self_ns_per_frame",
               ratio(l.self("decoder") * 1e9, fr), "ns");
    out.metric("cache.line_probes", lp.count("cache.probes"), "count");
    out.metric("cache.miss_rate",
               ratio(lp.count("cache.misses"), lp.count("cache.probes")),
               "ratio");
    out.metric("cache.ns_per_probe", lp.cache.nsPerEvent(), "ns");
    const double bursts =
        static_cast<double>(c.dram.read_bursts + c.dram.write_bursts);
    out.metric("mem.read_bursts", static_cast<double>(c.dram.read_bursts),
               "count");
    out.metric("mem.write_bursts",
               static_cast<double>(c.dram.write_bursts), "count");
    out.metric("mem.activations", static_cast<double>(c.dram.activations),
               "count");
    out.metric("mem.row_hit_rate",
               ratio(static_cast<double>(c.dram.row_hits), bursts),
               "ratio");
    out.metric("mem.ns_per_burst", lp.dram.nsPerEvent(), "ns");
    out.metric("mem.retries", static_cast<double>(c.retries), "count");
    out.metric("mem.abandoned", static_cast<double>(c.abandoned), "count");
    out.metric("writeback.ns_per_mab",
               ratio(l.self("writeback") * 1e9, lp.count("mabs")), "ns");
    out.metric("mach.hit_rate",
               ratio(static_cast<double>(c.mach_hits),
                     static_cast<double>(c.mach_lookups)),
               "ratio");
    out.metric("writeback.elided_frac",
               ratio(static_cast<double>(c.elided),
                     static_cast<double>(c.mabs)),
               "ratio");
    out.metric("hash.ns_per_block", lp.hash.nsPerEvent(), "ns");
    out.metric("display.ns_per_scanout",
               ratio(l.self("display") * 1e9, fr), "ns");
    out.metric("display.cache_hit_rate",
               ratio(static_cast<double>(c.dc_hits),
                     static_cast<double>(c.dc_hits + c.dc_misses)),
               "ratio");
    out.metric("display.machbuf_hit_rate",
               ratio(static_cast<double>(c.mb_hits),
                     static_cast<double>(c.mb_hits + c.mb_misses)),
               "ratio");

    // Per-call cost x event count: what the layers the decoder calls
    // internally would cost at the replayed rate, as a share of the
    // traced total (estimates; the spans cannot separate them).
    out.metric("cache.est_share",
               ratio(lp.cache.nsPerEvent() * 1e-9 * lp.count("cache.probes"),
                     l.total_s),
               "ratio");
    out.metric("mem.est_share",
               ratio(lp.dram.nsPerEvent() * 1e-9 *
                         static_cast<double>(driven.dram.read_bursts +
                                             driven.dram.write_bursts),
                     l.total_s),
               "ratio");
    out.metric("hash.est_share",
               ratio(lp.hash.nsPerEvent() * 1e-9 *
                         static_cast<double>(driven.mach_lookups),
                     l.total_s),
               "ratio");
}

void
serveMetrics(Outcome &out, double placer_s, double self_s,
             const std::map<std::string, std::uint64_t> &c)
{
    out.metric("serve.placer_s", placer_s, "s");
    out.metric("serve.self_s", self_s, "s");
    for (const char *k :
         {"admitted", "queued", "rejected", "evicted", "breaker_trips"}) {
        const auto it = c.find(k);
        out.metric(std::string("serve.") + k,
                   it == c.end() ? 0.0 : static_cast<double>(it->second),
                   "count");
    }
}

void
tracedUnits(const Args &a, Outcome &out)
{
    const std::vector<Unit> units = setUpUnits(a);
    const std::size_t n = units.size();

    // Serial pipeline pass: the reference results and the one-worker
    // time of the parallel speed-up.
    std::vector<PipelineResult> results(n);
    Digest pass;
    const std::int64_t t1 = nowNs();
    for (std::size_t i = 0; i < n; ++i) {
        results[i] = runUnit(units[i]);
    }
    const double serial_s = secondsSince(t1);
    Counts counts;
    for (std::size_t i = 0; i < n; ++i) {
        pass.add(units[i].label, resultDigest(results[i]));
        counts.add(results[i]);
        if (judge(unitCheck(units[i].label, results[i])) ==
            Verdict::kFailed) {
            ++out.failed;
        }
    }
    out.attempted = n;
    checkDigest(out, a, pass.hex());

    // The same units on every host core.
    const unsigned jobs = hostJobs();
    parallelFor(jobs, jobs, [](std::size_t) {}); // pool spin-up
    const std::uint64_t spawned0 = ThreadPool::instance().threadsSpawned();
    const std::int64_t tn = nowNs();
    const std::vector<PipelineResult> par = parallelMap(
        jobs, n, [&](std::size_t i) { return runUnit(units[i]); });
    const double parallel_s = secondsSince(tn);
    const std::uint64_t spawned =
        ThreadPool::instance().threadsSpawned() - spawned0;
    for (std::size_t i = 0; i < n; ++i) {
        if (resultDigest(par[i]) != resultDigest(results[i])) {
            out.fail(units[i].label + " differs between 1 and " +
                     std::to_string(jobs) + " workers");
        }
    }

    LayerPass lp;
    std::vector<const PipelineConfig *> cfgs;
    std::vector<const PipelineResult *> expect;
    std::vector<const PipelineConfig *> videos;
    std::string last_key;
    for (std::size_t i = 0; i < n; ++i) {
        cfgs.push_back(&units[i].config);
        expect.push_back(&results[i]);
        if (units[i].config.profile.key != last_key) {
            videos.push_back(&units[i].config);
            last_key = units[i].config.profile.key;
        }
    }
    driveLayers(cfgs, expect, lp, out);
    replayLayers(videos, kFramesPerVideo, lp);
    layerMetrics(lp, counts, counts, out);
    serveMetrics(out, 0.0, 0.0, {});
    out.metric("sim.parallel_speedup", ratio(serial_s, parallel_s),
               "ratio");
    out.metric("sim.threads_spawned", static_cast<double>(spawned),
               "count");
    std::cout << "parallel pass: " << serial_s << " s at 1 worker, "
              << parallel_s << " s at " << jobs << "\n";
    std::ofstream os(a.spans);
    lp.rec.writeTo(os);
}

// ---- fleet -----------------------------------------------------------------

/** One Placer run over the arrivals of one round. */
struct Round
{
    /** The sum of block_ms, in seconds. */
    double seconds = 0.0;
    /**
     * Host ms of each rehearsal block: from the factory's first call
     * for the block to its first call for the next one (for the last
     * block, to the end of the run, drain included), less any gauge
     * reading taken there.
     */
    std::vector<double> block_ms;
    /** With gauging: seconds and block_ms scaled by the host gauge. */
    double scaled_seconds = 0.0;
    std::vector<double> scaled_block_ms;
    /** With gauging: the gauge reading at each block edge. */
    std::vector<double> gauges;
    std::uint64_t digest = 0;
    std::uint64_t peak_active = 0;
    std::map<std::string, std::uint64_t> counts;
};

/**
 * Run round @p round through a Placer at @p jobs workers.  With
 * @p gauge, every worker reads the host gauge at each block edge (the
 * workers are idle there: the Placer is building the next block), the
 * readings are left out of the block times, and each block is scaled
 * by the mean of the readings at its two edges.
 */
Round
runRound(const Args &a, std::uint64_t round, unsigned jobs,
         const std::vector<std::uint8_t> &blob, Outcome &out,
         std::uint32_t count = kSessionsPerRound, bool gauge = false)
{
    const std::vector<ArrivalEvent> arrivals =
        fleetArrivals(a.seed, round, count);
    const std::uint64_t first_id = arrivals.front().id;
    Round r;
    // Block b runs from block_start[b] to block_end[b]; a gauge
    // reading, when taken, lies between one block's end and the next
    // one's start.
    std::vector<std::int64_t> block_start, block_end;
    const auto edge = [&] {
        if (!block_start.empty()) {
            block_end.push_back(nowNs());
        }
        if (gauge) {
            r.gauges.push_back(gaugeParallelNs(jobs));
        }
    };
    // The Placer builds a block's sessions serially, in arrival order,
    // before rehearsing the block, so the factory sees block edges.
    Placer placer(fleetConfig(jobs), [&](const ArrivalEvent &ev) {
        if ((ev.id - first_id) % kRehearseBlock == 0) {
            edge();
            block_start.push_back(nowNs());
        }
        return fleetSession(a.seed, ev, blob);
    });
    placer.run(arrivals);
    edge();
    for (std::size_t b = 0; b < block_start.size(); ++b) {
        const double ms =
            static_cast<double>(block_end[b] - block_start[b]) * 1e-6;
        r.block_ms.push_back(ms);
        r.seconds += ms * 1e-3;
        if (gauge) {
            const double g = 0.5 * (r.gauges[b] + r.gauges[b + 1]);
            r.scaled_block_ms.push_back(ms * gaugeScale(g));
            r.scaled_seconds += ms * 1e-3 * gaugeScale(g);
        }
    }
    r.peak_active = placer.peakActive();

    std::ostringstream os;
    writeFleetReport(os, placer, "vstream_perfbench", arrivals.size(),
                     r.seconds, 0);
    Digest d;
    d.addBytes("round", stripHostTimes(os.str()));
    r.digest = d.value();

    const StatsSnapshot snap = placer.fleetSnapshot();
    const RecoveryTotals &rec = placer.recovery();
    std::uint64_t whales = 0;
    for (const ArrivalEvent &ev : arrivals) {
        whales += isWhale(ev.id) ? 1 : 0;
    }
    std::uint64_t absorbed = 0;
    for (const Shard &sh : placer.shards()) {
        absorbed += sh.absorbed();
    }
    const std::string tag = "round " + std::to_string(round) + ": ";
    if (r.block_ms.size() != (count + kRehearseBlock - 1) / kRehearseBlock) {
        out.fail(tag + "the Placer did not build its sessions block by "
                       "block");
    }
    if (placer.admitted() + placer.rejected() + rec.shed +
            rec.queue_timeouts !=
        arrivals.size()) {
        out.fail(tag + "arrivals not all admitted/rejected/shed");
    }
    if (snap.count("sessions") != placer.admitted() ||
        absorbed != placer.admitted()) {
        out.fail(tag + "merged snapshot lost sessions");
    }
    if (placer.rejected() != whales) {
        out.fail(tag + "rejections are not exactly the whales");
    }
    r.counts["admitted"] = placer.admitted();
    r.counts["queued"] = placer.queuedTotal();
    r.counts["rejected"] = placer.rejected();
    r.counts["evicted"] = snap.count("state.evicted");
    r.counts["breaker_trips"] = snap.count("breaker.trips");
    r.counts["left_early"] = snap.count("leftEarly");
    return r;
}

/** Set-up of the fleet: the trace blob, thread-pool spin-up and one
 * warm-up block through a Placer. */
std::vector<std::uint8_t>
setUpFleet(const Args &a, Outcome &out)
{
    const unsigned jobs = hostJobs();
    std::vector<std::uint8_t> blob = traceBlob();
    parallelFor(jobs, jobs, [](std::size_t) {});
    (void)runRound(a, kWarmupRound, jobs, blob, out, kRehearseBlock);
    return blob;
}

/** Fleet-wide engagement checks over the rounds of one run. */
void
checkEngagement(const std::map<std::string, std::uint64_t> &c,
                Outcome &out)
{
    for (const char *k : {"queued", "evicted", "breaker_trips",
                          "left_early"}) {
        const auto it = c.find(k);
        if (it == c.end() || it->second == 0) {
            out.fail(std::string("the fleet never exercised ") + k);
        }
    }
}

/** What re-rehearsing the sessions of some rounds showed. */
struct FleetCheck
{
    std::uint64_t sessions = 0;
    std::uint64_t failed = 0;
    std::uint64_t frames = 0;
    std::uint64_t evicted = 0;
    std::uint64_t trips = 0;
    Counts counts;
    /** Admitted sessions and their rehearsals, when kept. */
    std::vector<SessionConfig> configs;
    std::vector<RehearsedSession> outcomes;
};

/** Vsyncs a session played: its span minus the start-up vsyncs. */
std::uint64_t
framesPlayed(const RehearsedSession &s, const PipelineConfig &cfg)
{
    if (s.immediate) {
        return 0;
    }
    return s.outcome.result.span / cfg.profile.framePeriodTicks() -
           cfg.startup_vsyncs;
}

/** A clean session run solo on a bare VideoPipeline, stepped to the
 * same leave point. */
PipelineResult
soloRun(const SessionConfig &s)
{
    VideoPipeline p(s.pipeline);
    p.start();
    while (!p.stepDone() &&
           !(s.leave_after > 0 && p.nextVsyncTick() >= s.leave_after)) {
        p.stepVsync();
    }
    return p.finish();
}

/**
 * Re-rehearse the sessions of round @p round block by block -
 * sessions are hermetic, so this is the outcome the Placer folded -
 * and hold each to the soak's invariants: fatal mixes end quarantined
 * or evicted, a corrupt trace is caught, clean sessions equal their
 * solo run.  Sessions are dropped once judged unless @p keep.
 */
void
verifyRound(const Args &a, std::uint64_t round,
            const std::vector<std::uint8_t> &blob, bool keep,
            FleetCheck &fc)
{
    const unsigned jobs = hostJobs();
    const std::vector<ArrivalEvent> arrivals = fleetArrivals(a.seed, round);
    for (std::size_t base = 0; base < arrivals.size();
         base += kRehearseBlock) {
        std::vector<SessionConfig> cfgs;
        const std::size_t end =
            std::min<std::size_t>(base + kRehearseBlock, arrivals.size());
        for (std::size_t j = base; j < end; ++j) {
            const ArrivalEvent &ev = arrivals[j];
            ++fc.sessions;
            if (isWhale(ev.id)) {
                continue; // rejected by design: modelled, not failed
            }
            SessionConfig s = fleetSession(a.seed, ev, blob);
            s.leave_after = ev.leave_after;
            cfgs.push_back(std::move(s));
        }
        std::vector<RehearsedSession> outs =
            parallelMap(jobs, cfgs.size(), [&](std::size_t i) {
                return rehearseSession(cfgs[i]);
            });
        std::vector<std::size_t> clean;
        for (std::size_t i = 0; i < cfgs.size(); ++i) {
            if (cfgs[i].stats_group == kMixNames[0]) {
                clean.push_back(i);
            }
        }
        const std::vector<PipelineResult> solo =
            parallelMap(jobs, clean.size(), [&](std::size_t k) {
                return soloRun(cfgs[clean[k]]);
            });
        std::vector<bool> bad(cfgs.size(), false);
        for (std::size_t k = 0; k < clean.size(); ++k) {
            if (resultDigest(outs[clean[k]].outcome.result) !=
                resultDigest(solo[k])) {
                bad[clean[k]] = true;
            }
        }
        for (std::size_t i = 0; i < cfgs.size(); ++i) {
            const SessionConfig &s = cfgs[i];
            const SessionOutcome &o = outs[i].outcome;
            const bool fatal = s.stats_group == kMixNames[2] ||
                               s.stats_group == kMixNames[4];
            if (fatal && !o.left_early &&
                o.final_state != HealthState::kQuarantined &&
                o.final_state != HealthState::kEvicted) {
                bad[i] = true;
            }
            if (s.stats_group == kMixNames[4] &&
                o.trace_error == TraceError::kNone) {
                bad[i] = true;
            }
            fc.frames += framesPlayed(outs[i], s.pipeline);
            fc.evicted += o.final_state == HealthState::kEvicted ? 1 : 0;
            fc.trips += o.breaker_trips;
            fc.counts.add(o.result);
            if (bad[i]) {
                ++fc.failed;
                std::cout << "session " << s.id << " (" << s.stats_group
                          << ") broke a soak invariant\n";
            }
        }
        if (keep) {
            std::move(cfgs.begin(), cfgs.end(),
                      std::back_inserter(fc.configs));
            std::move(outs.begin(), outs.end(),
                      std::back_inserter(fc.outcomes));
        }
    }
}

/** The Placer's folded counts agree with the re-rehearsed sessions. */
void
checkAgainstPlacer(const FleetCheck &fc,
                   const std::map<std::string, std::uint64_t> &c,
                   Outcome &out)
{
    if (fc.evicted != c.at("evicted") ||
        fc.trips != c.at("breaker_trips")) {
        out.fail("re-rehearsed sessions disagree with the Placer's "
                 "snapshot");
    }
}

void
addCounts(std::map<std::string, std::uint64_t> &sum,
          const std::map<std::string, std::uint64_t> &c)
{
    for (const auto &[k, v] : c) {
        sum[k] += v;
    }
}

/** Digest of a fleet run: its round 0, which every run plays. */
std::string
fleetDigest(const Round &round0)
{
    Digest d;
    d.add("round", round0.digest);
    return d.hex();
}

void
printConcurrency(const Round &round0)
{
    std::cout << "round 0 reached " << round0.peak_active
              << " concurrent sessions (max_active "
              << fleetConfig(1).serve.max_active << "), queued "
              << round0.counts.at("queued") << " of " << kSessionsPerRound
              << " arrivals\n";
}

void
timedFleet(const Args &a, Outcome &out)
{
    const HostTime setup_s = coldSetupS(a);
    const unsigned jobs = hostJobs();
    const std::vector<std::uint8_t> blob = setUpFleet(a, out);

    std::vector<double> ms, raw_ms, gauges;
    std::map<std::string, std::uint64_t> counts;
    Round round0;
    std::uint64_t rounds = 0;
    HostTime busy_s;
    // Whole rounds only: every round is one Placer run of the same
    // shape, so every run samples the same mix of blocks.
    const std::size_t min_blocks = minSamplesFor(0.9);
    const std::int64_t t0 = nowNs();
    do {
        Round rd = runRound(a, rounds, jobs, blob, out, kSessionsPerRound,
                            true);
        raw_ms.insert(raw_ms.end(), rd.block_ms.begin(),
                      rd.block_ms.end());
        ms.insert(ms.end(), rd.scaled_block_ms.begin(),
                  rd.scaled_block_ms.end());
        gauges.insert(gauges.end(), rd.gauges.begin(), rd.gauges.end());
        busy_s.raw += rd.seconds;
        busy_s.scaled += rd.scaled_seconds;
        addCounts(counts, rd.counts);
        if (rounds == 0) {
            round0 = std::move(rd);
        }
        ++rounds;
    } while (ms.size() < min_blocks || secondsSince(t0) < a.seconds);
    // The timed phase's own peak, before the checks and passes below.
    const double rss_mb = peakRssMb();
    checkEngagement(counts, out);
    printConcurrency(round0);
    checkDigest(out, a, fleetDigest(round0));
    if (runRound(a, 0, 1, blob, out).digest != round0.digest) {
        out.fail("round 0 differs between 1 and " + std::to_string(jobs) +
                 " workers");
    }

    FleetCheck fc;
    for (std::uint64_t r = 0; r < rounds; ++r) {
        verifyRound(a, r, blob, false, fc);
    }
    checkAgainstPlacer(fc, counts, out);
    out.attempted = fc.sessions;
    out.failed = fc.failed;

    const Percentile p50 = percentile(ms, 0.5);
    const Percentile p90 = percentile(ms, 0.9);
    std::cout << "fleet rounds " << rounds << " of " << kSessionsPerRound
              << " sessions: " << ms.size() << " blocks of "
              << kRehearseBlock << "; p90 has " << p90.beyond
              << " samples beyond it\n";
    if (!p90.resolved()) {
        out.fail("too few samples beyond playback_ms_p90");
    }
    const double err = fig11ErrorPp(a.seed);
    printPaperError(err, a.seed);
    printUnscaled(static_cast<double>(fc.frames) / busy_s.raw,
                  percentile(raw_ms, 0.5).value,
                  percentile(raw_ms, 0.9).value, setup_s.raw,
                  median(gauges));

    out.metric("sim_frames_per_s",
               static_cast<double>(fc.frames) / busy_s.scaled, "frames/s");
    out.metric("playback_ms_p50", p50.value, "ms");
    out.metric("playback_ms_p90", p90.value, "ms");
    out.metric("setup_s", setup_s.scaled, "s");
    out.metric("peak_rss_mb", rss_mb, "MiB");
    out.metric("paper_err_pp", err, "pp");
}

void
tracedFleet(const Args &a, Outcome &out)
{
    const unsigned jobs = hostJobs();
    const std::vector<std::uint8_t> blob = setUpFleet(a, out);
    const std::uint64_t spawned0 = ThreadPool::instance().threadsSpawned();
    const Round par = runRound(a, 0, jobs, blob, out);
    const std::uint64_t spawned =
        ThreadPool::instance().threadsSpawned() - spawned0;
    checkEngagement(par.counts, out);
    printConcurrency(par);
    checkDigest(out, a, fleetDigest(par));

    FleetCheck fc;
    verifyRound(a, 0, blob, true, fc);
    checkAgainstPlacer(fc, par.counts, out);
    out.attempted = fc.sessions;
    out.failed = fc.failed;

    // Round 0 at one worker, then its sessions as bare pipelines
    // stepped to where each ended: the Placer's time beyond them is
    // the serve tier's own.
    const Round one = runRound(a, 0, 1, blob, out);
    if (one.digest != par.digest) {
        out.fail("fleet differs between 1 and " + std::to_string(jobs) +
                 " workers");
    }
    double solo_s = 0.0;
    for (std::size_t i = 0; i < fc.configs.size(); ++i) {
        const RehearsedSession &o = fc.outcomes[i];
        if (o.immediate) {
            continue;
        }
        const std::int64_t t0 = nowNs();
        VideoPipeline p(fc.configs[i].pipeline);
        p.start();
        while (!p.stepDone() && p.nextVsyncTick() <= o.local_end) {
            p.stepVsync();
        }
        (void)p.finish();
        solo_s += secondsSince(t0);
    }

    // The layer ledger over the clean sessions, played in full.
    std::vector<const PipelineConfig *> cfgs;
    for (const SessionConfig &s : fc.configs) {
        if (s.stats_group == kMixNames[0]) {
            cfgs.push_back(&s.pipeline);
        }
    }
    std::vector<PipelineResult> full(cfgs.size());
    std::vector<const PipelineResult *> expect;
    Counts driven;
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        VideoPipeline p(*cfgs[i]);
        full[i] = p.run();
        expect.push_back(&full[i]);
        driven.add(full[i]);
    }
    LayerPass lp;
    driveLayers(cfgs, expect, lp, out);
    replayLayers(cfgs, cfgs.front()->profile.frame_count, lp);
    layerMetrics(lp, fc.counts, driven, out);
    serveMetrics(out, one.seconds, one.seconds - solo_s, par.counts);
    out.metric("sim.parallel_speedup", ratio(one.seconds, par.seconds),
               "ratio");
    out.metric("sim.threads_spawned", static_cast<double>(spawned),
               "count");
    std::cout << "fleet round 0: placer " << one.seconds
              << " s at 1 worker, " << par.seconds << " s at " << jobs
              << "; solo pipelines " << solo_s << " s\n";
    std::ofstream os(a.spans);
    lp.rec.writeTo(os);
}

// ---- command line and output --------------------------------------------

Args
parseArgs(int argc, char **argv)
{
    Args a;
    a.self = argc > 0 ? argv[0] : "";
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const std::string v = argv[i + 1];
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::stoull(v);
        } else if (k == "--seconds") {
            a.seconds = std::stod(v);
        } else if (k == "--trace") {
            a.trace = v == "1";
        } else if (k == "--digests") {
            a.digests = v;
        } else if (k == "--spans") {
            a.spans = v;
        } else if (k == "--setup-only") {
            a.setup_only = v == "1";
        } else {
            throw std::invalid_argument("unknown flag " + k);
        }
    }
    if (a.workload != "fig11" && a.workload != "fleet" &&
        a.workload != "mab16") {
        throw std::invalid_argument("--workload must be fig11, fleet or "
                                    "mab16");
    }
    if (a.digests.empty() || (a.trace && a.spans.empty())) {
        throw std::invalid_argument("--digests (and with --trace 1, "
                                    "--spans) are required");
    }
    return a;
}

void
printResult(const Outcome &out)
{
    std::cout << "\n";
    for (const Metric &m : out.metrics) {
        std::cout << std::left << std::setw(28) << m.name << std::right
                  << std::setw(18) << std::setprecision(6) << m.value
                  << " " << m.unit << "\n";
    }
    std::cout << "failed_frac "
              << ratio(static_cast<double>(out.failed),
                       static_cast<double>(out.attempted))
              << " (" << out.failed << "/" << out.attempted << ")\n";
    std::ostringstream js;
    js << std::setprecision(std::numeric_limits<double>::max_digits10);
    js << "{\"correct\": " << (out.correct ? "true" : "false")
       << ", \"attempted\": " << out.attempted
       << ", \"failed\": " << out.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < out.metrics.size(); ++i) {
        const Metric &m = out.metrics[i];
        js << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
           << m.value << ", \"unit\": \"" << m.unit << "\"}";
    }
    js << "}}";
    std::cout << js.str() << std::endl;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Args a = parseArgs(argc, argv);
        Outcome out;
        if (a.setup_only) {
            if (a.workload == "fleet") {
                (void)setUpFleet(a, out);
            } else {
                (void)setUpUnits(a);
            }
            std::cout << "ready" << std::endl;
            std::cout << gaugeMedianNs(3) << std::endl;
            return out.correct ? 0 : 1;
        }
        std::cout << "workload " << a.workload << ", seed " << a.seed
                  << ", " << hostJobs() << " host cores\n";
        if (a.workload == "fleet") {
            a.trace ? tracedFleet(a, out) : timedFleet(a, out);
        } else {
            a.trace ? tracedUnits(a, out) : timedUnits(a, out);
        }
        if (out.failed > 0) {
            out.fail(std::to_string(out.failed) +
                     " unit(s)/session(s) failed their output check");
        }
        printResult(out);
        return out.correct ? 0 : 1;
    } catch (const std::exception &e) {
        std::cerr << "vstream_perfbench: " << e.what() << "\n";
        return 2;
    }
}
