/**
 * @file
 * Host-speed gauge.  The benchmark's host shares each core with other
 * tenants, and as they come and go the simulator's host time swings by
 * up to 2x over seconds to tens of seconds, while a latency-bound
 * loop keeps its speed: the tenants take the core's execution ports
 * and caches, not its clock.  The gauge is a fixed kernel, owned by
 * the benchmark, that uses both: independent multiply chains, then
 * random reads over a 1 MiB table.  It is read between timed units,
 * outside their times, and a unit's time is scaled by the gauge's
 * nominal time over the mean of the readings on the unit's two sides:
 * host time as on a core running at the gauge's nominal speed.  The
 * gauge never calls into the simulator, so a change to the simulator
 * moves the units' times and leaves the gauge's alone.
 */

#ifndef VSTREAM_PERFBENCH_HOST_GAUGE_HH
#define VSTREAM_PERFBENCH_HOST_GAUGE_HH

namespace perfbench
{

/**
 * Gauge time, in ns, that scaled host times are reported at: about the
 * 5th percentile of the gauge's readings on a 4-vCPU Xeon guest at
 * 2.1 GHz, i.e. its speed when the tenants are quiet.
 */
constexpr double kGaugeNominalNs = 650000.0;

/** Run the gauge kernel once on the calling thread; its host ns. */
double gaugeNs();

/** Median of @p reps gauge readings on the calling thread. */
double gaugeMedianNs(int reps);

/** One gauge reading on each of @p jobs workers at once; the slowest. */
double gaugeParallelNs(unsigned jobs);

/** Factor that scales a host time measured next to a gauge reading of
 * @p gauge_ns to the gauge's nominal speed. */
inline double
gaugeScale(double gauge_ns)
{
    return kGaugeNominalNs / gauge_ns;
}

} // namespace perfbench

#endif // VSTREAM_PERFBENCH_HOST_GAUGE_HH
