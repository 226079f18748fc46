/**
 * @file
 * Runtime invariant checker: machine-verifiable conservation laws
 * every healthy run must satisfy, checked after each fuzz scenario
 * (and reusable from any test).
 *
 * Violations carry the offending metric path, the expected and actual
 * values and the delta — not just a bool — so a fuzz report reads
 * like a diagnosis, and the minimizer can verify it is still chasing
 * the *same* violation while shrinking.
 *
 * The laws:
 *  - **noc.link-conservation**: the per-link flit matrix must sum to
 *    exactly the flit-hops charged at injection (two independently
 *    maintained totals in Network).
 *  - **dram.chan-sum**: per-channel `dram.chan.*` read/write counters
 *    must sum to the aggregate DRAM counters.
 *  - **core.issue-counts**: demand loads/stores accepted at the L1s
 *    must equal the workload's trace op counts.
 *  - **pool.steady-state**: after a drained run, every network
 *    message-pool slot is back on the free list, the event queue is
 *    empty and no DeNovo L2 request is still parked on a full set.
 *  - **traffic.attribution**: attributed traffic never exceeds the
 *    whole-run flit-hops charged at injection.  (Exact equality with
 *    the *windowed* raw total is unattainable by design: data in
 *    flight when a core marks the measurement epoch is attributed at
 *    arrival but was raw-charged, and zeroed, at send — the seeded
 *    fuzzer found exactly this boundary case.)
 *  - **replay.determinism** (campaign-level): running the same
 *    scenario twice yields a byte-identical serialized RunResult;
 *    compareResults() names the first diverging field.
 */

#ifndef WASTESIM_FUZZ_INVARIANTS_HH
#define WASTESIM_FUZZ_INVARIANTS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "system/system.hh"
#include "workload/workload.hh"

namespace wastesim
{

/** One violated conservation law. */
struct Violation
{
    std::string invariant; //!< law name (e.g. "noc.link-conservation")
    std::string path;      //!< offending metric path
    double expected = 0;
    double actual = 0;
    std::string detail;    //!< extra context (optional)

    double delta() const { return actual - expected; }

    /** "law: path expected=E actual=A delta=D (detail)". */
    std::string describe() const;
};

/** All violations one checked run produced. */
struct InvariantReport
{
    std::vector<Violation> violations;

    bool ok() const { return violations.empty(); }

    void
    add(std::string invariant, std::string path, double expected,
        double actual, std::string detail = "")
    {
        violations.push_back(Violation{std::move(invariant),
                                       std::move(path), expected,
                                       actual, std::move(detail)});
    }

    /** One describe() line per violation ("ok" when empty). */
    std::string describe() const;
};

/** Count Load/Store trace ops across all cores of @p wl. */
void workloadOpCounts(const Workload &wl, std::uint64_t &loads,
                      std::uint64_t &stores);

/** Laws checkable from a RunResult alone (dram.chan-sum). */
void checkResultInvariants(const RunResult &r, InvariantReport &rep);

/** Laws needing end-of-run System state (link conservation, pool
 *  steady state, issue counts, traffic attribution vs the whole-run
 *  injection total). Call after System::run(). */
void checkSystemInvariants(const System &sys, const Workload &wl,
                           const RunResult &r, InvariantReport &rep);

/** Canonical byte serialization of @p r (registry cell block at
 *  precision 17): the replay-determinism comparison key. */
std::string serializeResult(const RunResult &r);

/**
 * Field-by-field registry comparison of two results of the same
 * scenario; every differing metric becomes a replay.determinism
 * violation naming its path and both values.
 */
void compareResults(const RunResult &first, const RunResult &second,
                    InvariantReport &rep);

} // namespace wastesim

#endif // WASTESIM_FUZZ_INVARIANTS_HH
