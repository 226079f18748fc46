/**
 * @file
 * Sweep driver: runs protocol x benchmark grids and collects results
 * in figure order for the report generators.
 */

#ifndef WASTESIM_SYSTEM_RUNNER_HH
#define WASTESIM_SYSTEM_RUNNER_HH

#include <functional>
#include <iosfwd>
#include <vector>

#include "system/config.hh"
#include "system/system.hh"
#include "workload/workload.hh"

namespace wastesim
{

/** Results of a full sweep: results[benchmark][protocol]. */
struct Sweep
{
    std::vector<std::string> benchNames;
    std::vector<std::string> protoNames;
    std::vector<std::vector<RunResult>> results;

    /**
     * Quarantine annotations: holes[b][p] carries the failure reason
     * of a cell that has no result (the supervisor gave up on it).
     * Empty string — or an unsized vector, for sweeps produced by
     * paths without quarantine support — means data is present.  The
     * figure builders render hole cells as "-" instead of erroring.
     */
    std::vector<std::vector<std::string>> holes;

    /**
     * Fingerprint of the configuration that produced the sweep
     * (scale + SimParams); cachedFullSweep uses it to reject cache
     * files computed under a different configuration.
     */
    std::string configTag;

    /** True when cell (b, p) is an annotated hole. */
    bool
    holeAt(std::size_t b, std::size_t p) const
    {
        return b < holes.size() && p < holes[b].size() &&
               !holes[b][p].empty();
    }

    std::size_t
    numHoles() const
    {
        std::size_t n = 0;
        for (const auto &row : holes)
            for (const auto &h : row)
                if (!h.empty())
                    ++n;
        return n;
    }
};

/**
 * Override the sweep thread count programmatically (the `--jobs` CLI
 * flag).  Takes precedence over $WASTESIM_JOBS; 0 restores the
 * default (env var, else all hardware threads).
 */
void setSweepJobs(unsigned jobs);

/**
 * Thread count a sweep of @p num_tasks simulations uses: the
 * setSweepJobs() override, else $WASTESIM_JOBS, else all hardware
 * threads, capped at the task count.  Shared by runSweep and the
 * SweepEngine work queue.
 */
unsigned effectiveSweepJobs(std::size_t num_tasks);

/**
 * Configuration fingerprint of (scale, SimParams): every field that
 * influences results, spelled out (not hashed), so any parameter
 * change — and only a parameter change — misses the sweep caches.
 * The topology token covers mesh dims and MC placement.
 */
std::string sweepConfigTag(unsigned scale, const SimParams &p);

/**
 * Serialize one RunResult as the sweep-cache text block (the caller
 * sets the stream precision; the caches use 17 so doubles
 * round-trip).  readRunResult() parses it back.
 */
void writeRunResult(std::ostream &os, const RunResult &r);
bool readRunResult(std::istream &is, RunResult &r);

/** Run one protocol on one benchmark. */
RunResult runOne(ProtocolName protocol, BenchmarkName bench,
                 unsigned scale = 1, SimParams params = SimParams{});

/** Run one protocol on an already-built workload. */
RunResult runOne(ProtocolName protocol, const Workload &wl,
                 SimParams params = SimParams{});

/**
 * Run a protocol grid over arbitrary pre-built workloads (Table-4.2
 * generators, trace replays, synthetic scenarios alike).
 *
 * Simulations run on a thread pool sized by
 * std::thread::hardware_concurrency() (override with $WASTESIM_JOBS);
 * results land in deterministic figure order regardless of
 * scheduling.
 */
Sweep runSweep(const std::vector<const Workload *> &workloads,
               const std::vector<ProtocolName> &protocols,
               SimParams params = SimParams{});

/**
 * Run the full paper grid: all nine protocols over the given
 * benchmarks (defaults to all six).
 *
 * All benchmark workloads are materialized up front so their rows
 * can run concurrently; on memory-constrained machines (or at large
 * scales) set $WASTESIM_JOBS=1 to bound the number of simultaneous
 * System instances.
 */
Sweep runSweep(const std::vector<BenchmarkName> &benches,
               const std::vector<ProtocolName> &protocols,
               unsigned scale = 1, SimParams params = SimParams{});

/** All six benchmarks, all nine protocols. */
Sweep runFullSweep(unsigned scale = 1, SimParams params = SimParams{});

/**
 * The full sweep, cached on disk: the first figure bench of a session
 * pays for the 54 simulations, subsequent ones re-render instantly.
 * Cache path from $WASTESIM_CACHE (default "wastesim_sweep.cache");
 * set $WASTESIM_NO_CACHE to force re-simulation.
 *
 * The cache is the per-cell CellCache (sweep_engine.hh): every
 * (benchmark, protocol) result is stored under its own configuration
 * fingerprint, so changing the topology or scale computes only the
 * missing cells and never evicts other configurations.
 *
 * @param compute sweep producer invoked when any cell of this
 *        configuration is missing; defaults to per-cell simulation on
 *        the SweepEngine (overridable so tests can exercise the cache
 *        logic without paying for 54 simulations).
 */
Sweep cachedFullSweep(unsigned scale = 1,
                      SimParams params = SimParams::scaled(),
                      std::function<Sweep(unsigned, SimParams)>
                          compute = {});

} // namespace wastesim

#endif // WASTESIM_SYSTEM_RUNNER_HH
