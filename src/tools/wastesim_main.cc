/**
 * @file
 * `wastesim` — the command-line front end to the simulator.
 *
 * Every subcommand is one row of `commands` (end of this file): its
 * name, a summary, a flag table and its action.  A flag's spelling,
 * value type, bound and help text live only in its table row; the
 * parser and `wastesim help` both read the tables.
 */

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/topology.hh"
#include "fuzz/campaign.hh"
#include "metrics/run_result_schema.hh"
#include "obs/debug.hh"
#include "obs/observer.hh"
#include "obs/sampler.hh"
#include "system/report.hh"
#include "system/report_obs.hh"
#include "system/runner.hh"
#include "system/supervisor.hh"
#include "system/sweep_engine.hh"
#include "trace/synthetic.hh"
#include "trace/trace_workload.hh"
#include "workload/workload.hh"

using namespace wastesim;

namespace
{

// --- flag tables ------------------------------------------------------------

/** How a flag's value is parsed, bounded and stored. */
struct Setter
{
    std::string needs; //!< what a valid value is, for the parse error
    std::function<bool(const std::string &)> parse; //!< false: invalid
};

/**
 * One row of a flag table.  A row without a metavar is a switch; the
 * row without a name (at most one per table) takes the operands.
 */
struct Flag
{
    const char *name;
    const char *metavar;
    std::string help;
    Setter set;
    const char *alias = nullptr;
    bool required = false; //!< the command cannot run without it
};

using FlagTable = std::vector<Flag>;

FlagTable
cat(std::initializer_list<FlagTable> parts)
{
    FlagTable all;
    for (const FlagTable &p : parts)
        all.insert(all.end(), p.begin(), p.end());
    return all;
}

/** @p f, marked as required. */
Flag
required(Flag f)
{
    f.required = true;
    return f;
}

Setter
str(std::string &dst)
{
    return {"a value", [&dst](const std::string &v) {
                dst = v;
                return true;
            }};
}

/** A repeatable flag, or the operands. */
Setter
strs(std::vector<std::string> &dst)
{
    return {"a value", [&dst](const std::string &v) {
                dst.push_back(v);
                return true;
            }};
}

/** Parse all of @p v as a decimal T (no sign for unsigned T). */
template <class T>
bool
parseNum(const std::string &v, T &out)
{
    const char *end = v.data() + v.size();
    const auto [ptr, ec] = std::from_chars(v.data(), end, out);
    return ec == std::errc() && ptr == end;
}

/** An unsigned integer in [lo, hi]. */
template <class T>
Setter
num(T &dst, T lo = 0, T hi = std::numeric_limits<T>::max())
{
    return {"an unsigned integer in [" + std::to_string(lo) + ", " +
                std::to_string(hi) + "]",
            [&dst, lo, hi](const std::string &v) {
                T r = 0;
                if (!parseNum(v, r) || r < lo || r > hi)
                    return false;
                dst = r;
                return true;
            }};
}

/** A real number; with @p non_negative, one >= 0. */
Setter
real(double &dst, bool non_negative = false)
{
    return {non_negative ? "a number >= 0" : "a number",
            [&dst, non_negative](const std::string &v) {
                double r = 0;
                if (!parseNum(v, r) || (non_negative && !(r >= 0)))
                    return false;
                dst = r;
                return true;
            }};
}

/** A switch: stores @p value when given. */
template <class T>
Setter
store(T &dst, T value)
{
    return {"", [&dst, value](const std::string &) {
                dst = value;
                return true;
            }};
}

/** Parse @p argv against @p table; fatal, naming @p cmd, on misuse. */
void
parseFlags(const char *cmd, const FlagTable &table, int argc,
           char **argv)
{
    std::vector<bool> seen(table.size());
    for (int i = 0; i < argc; ++i) {
        const std::string a = argv[i];
        // Every flag name starts with '-'; anything else is an operand.
        const auto row =
            std::find_if(table.begin(), table.end(), [&](const Flag &f) {
                if (!f.name)
                    return a.empty() || a[0] != '-';
                return a == f.name || (f.alias && a == f.alias);
            });
        fatal_if(row == table.end(), "%s: unknown option '%s'", cmd,
                 a.c_str());
        std::string value = a;
        if (row->name && row->metavar) {
            fatal_if(i + 1 == argc, "%s: %s needs a value", cmd,
                     a.c_str());
            value = argv[++i];
        }
        fatal_if(!row->set.parse(value), "%s: %s needs %s, got '%s'", cmd,
                 a.c_str(), row->set.needs.c_str(), value.c_str());
        seen[row - table.begin()] = true;
    }
    for (std::size_t r = 0; r < table.size(); ++r)
        fatal_if(table[r].required && !seen[r], "%s: %s is required", cmd,
                 table[r].name);
}

/** @p label, then the words of @p text wrapped at 79 columns. */
std::string
wrapped(std::string label, const std::string &text)
{
    const std::string indent(label.size(), ' ');
    std::string out;
    std::istringstream words(text);
    for (std::string w; words >> w; label += " " + w) {
        if (label.size() + 1 + w.size() > 79) {
            out += label + "\n";
            label = indent;
        }
    }
    return out + label + "\n";
}

/** One help entry per row of @p table. */
std::string
flagHelp(const FlagTable &table)
{
    std::string out;
    for (const Flag &f : table) {
        std::string lhs = std::string(f.name ? f.name : "") +
                          (f.alias ? ", " + std::string(f.alias) : "") +
                          (f.name && f.metavar ? " " : "") +
                          (f.metavar ? f.metavar : "");
        lhs.resize(std::max<std::size_t>(lhs.size(), 23), ' ');
        out += wrapped("  " + lhs, f.help + (f.required ? " (required)" : ""));
    }
    return out;
}

/** "a, b, c" from @p items, each spelled by @p name. */
template <class Range, class Name = std::identity>
std::string
joined(const Range &items, Name name = {})
{
    std::string out;
    for (const auto &item : items)
        out += (out.empty() ? "" : ", ") + std::string(name(item));
    return out;
}

// --- shared flag groups -----------------------------------------------------

/**
 * --mesh / --mcs / --mc-tiles.  The flags only fill fields; the
 * topology is built once all flags are parsed, so their position
 * relative to --full-size (which selects the whole SimParams) does
 * not matter.
 */
struct TopoArgs
{
    unsigned meshX = 0, meshY = 0;  //!< 0 = not given
    unsigned mcs = 0;               //!< 0 = default placement
    std::vector<NodeId> mcTiles;    //!< explicit placement (--mc-tiles)

    FlagTable
    flags()
    {
        return {
            {"--mesh", "WxH", "mesh shape (default: the paper's 4x4)",
             {"a WxH mesh spec (e.g. 4x4)", [this](const std::string &v) {
                  return Topology::parseMesh(v, meshX, meshY);
              }}},
            {"--mcs", "N", "memory controllers (default: one per corner)",
             num(mcs)},
            {"--mc-tiles", "T,T,...", "memory controllers on these tiles",
             {"comma-separated tile ids below " + std::to_string(maxTiles),
              [this](const std::string &v) {
                  return Topology::parseTileList(v, mcTiles);
              }}},
        };
    }

    /** True when any topology flag was given. */
    bool
    given() const
    {
        return meshX != 0 || mcs != 0 || !mcTiles.empty();
    }

    /** Fail, naming @p cmd, when --mcs and --mc-tiles are both given. */
    void
    checkPlacement(const char *cmd) const
    {
        fatal_if(mcs != 0 && !mcTiles.empty(),
                 "%s: --mcs and --mc-tiles are mutually exclusive", cmd);
    }

    /** The requested topology (paper default when nothing given). */
    Topology
    make(const char *cmd) const
    {
        checkPlacement(cmd);
        const unsigned x = meshX == 0 ? meshDim : meshX;
        const unsigned y = meshX == 0 ? meshDim : meshY;
        if (!mcTiles.empty())
            return Topology(x, y, mcTiles);
        if (meshX == 0 && mcs == 0)
            return Topology{};
        return Topology(x, y, mcs);
    }
};

Flag
scaleFlag(unsigned &scale)
{
    return {"--scale", "N", "benchmark input-size multiplier (default 1)",
            num(scale, 1u)};
}

Flag
fullSizeFlag(bool &full_size)
{
    return {"--full-size", nullptr,
            "full-size Table-4.1 caches, not SimParams::scaled()",
            store(full_size, true)};
}

SimParams
simParams(bool full_size)
{
    return full_size ? SimParams{} : SimParams::scaled();
}

Flag
benchFlag(std::string &bench_name)
{
    return required({"--bench", "NAME", "benchmark", str(bench_name)});
}

Flag
traceFlag(std::string &trace_path)
{
    return required({"--trace", "FILE", "trace file", str(trace_path)});
}

Flag
outFlag(std::string &out, const char *help)
{
    return {"--out", "FILE", help, str(out), "-o"};
}

/** Repeatable --protocol; none given means all of them. */
Flag
protocolsFlag(std::vector<ProtocolName> &protocols)
{
    return {"--protocol", "P", "protocol to run (repeatable; default all)",
            {"one of " + joined(allProtocols, protocolName),
             [&protocols](const std::string &v) {
                 ProtocolName p;
                 if (!protocolFromName(v, p))
                     return false;
                 protocols.push_back(p);
                 return true;
             }}};
}

/** --fault-inject / --fault-seed, shared by `sweep` and its worker. */
FlagTable
faultFlags(FaultSpec &faults, std::uint64_t &fault_seed)
{
    return {
        {"--fault-inject", "SPEC",
         "seeded worker faults, e.g. crash:0.1,hang:0.1,corrupt:0.1",
         {"crash:P,hang:P,corrupt:P", [&faults](const std::string &v) {
              return FaultSpec::parse(v, faults);
          }}},
        {"--fault-seed", "N", "seed of the fault draws", num(fault_seed)},
    };
}

/** --max-ticks / --no-replay, shared by `fuzz` and its worker. */
FlagTable
fuzzCheckFlags(FuzzOptions &opts)
{
    return {
        {"--max-ticks", "N", "tick budget per run", num(opts.maxTicks)},
        {"--no-replay", nullptr, "skip the run-twice determinism check",
         store(opts.checkReplay, false)},
    };
}

/** Reports only `report` renders, from no single sweep grid: the
 *  multi-sweep MC placement study and a sampler time series. */
const std::vector<std::string> reportOnlyNames = {"placement", "timeline"};
const std::vector<std::string> defaultReports = {"fig5.1a", "headline"};
const std::string defaultCachePath = "wastesim_sweep.cache";

/** The grid flags shared by `sweep` and `report`. */
struct GridArgs
{
    std::vector<std::string> reports;
    ReportFormat fmt = ReportFormat::Table;
    std::string cachePath;
    std::vector<std::pair<unsigned, unsigned>> meshList;
    unsigned scale = 1;
    unsigned jobs = 0; //!< 0: $WASTESIM_JOBS, else every hardware thread
    bool full_size = false, retryQuarantined = false;
    TopoArgs topo;

    FlagTable
    flags()
    {
        return cat(
            {{{"--report", "NAME", "figure to render (repeatable)",
               strs(reports)},
              {"--format", "FMT", "table, json or csv (default table)",
               {"table, json or csv", [this](const std::string &v) {
                    return reportFormatFromName(v, fmt);
                }}},
              {"--cache", "FILE",
               "sweep cache ($WASTESIM_CACHE, else " + defaultCachePath + ")",
               str(cachePath)},
              {"--mesh-list", "WxH,WxH,...", "one grid per listed mesh",
               {"comma-separated WxH specs", [this](const std::string &v) {
                    return Topology::parseMeshList(v, meshList);
                }}},
              {"--jobs", "N", "simulation threads (default $WASTESIM_JOBS)",
               num(jobs, 1u, 1024u)},
              {"--retry-quarantined", nullptr,
               "recompute quarantined cells, not show them as holes",
               store(retryQuarantined, true)},
              scaleFlag(scale), fullSizeFlag(full_size)},
             topo.flags()});
    }

    /**
     * Fail on any --report name outside reportNames() and @p extra,
     * before any cache is read or cell simulated (the error lists the
     * valid names); then apply the defaults, --jobs and --format.
     */
    void
    prepare(const char *cmd, std::vector<std::string> extra = {})
    {
        std::vector<std::string> valid = reportNames();
        valid.insert(valid.end(), extra.begin(), extra.end());
        for (const std::string &r : reports)
            fatal_if(std::find(valid.begin(), valid.end(), r) ==
                         valid.end(),
                     "%s: unknown report '%s' (valid: %s)", cmd,
                     r.c_str(), joined(valid).c_str());
        if (reports.empty())
            reports = defaultReports;
        setSweepJobs(jobs);
        // inform() status lines share stdout with the reports; in the
        // structured formats they would corrupt the JSON/CSV stream.
        if (fmt != ReportFormat::Table)
            logVerbosity = 0;
    }

    /** --cache FILE beats $WASTESIM_CACHE beats the default. */
    std::string
    cacheFile() const
    {
        if (!cachePath.empty())
            return cachePath;
        if (const char *env = std::getenv("WASTESIM_CACHE"))
            return env;
        return defaultCachePath;
    }

    /**
     * The full grid over one mesh from the topology flags, or over
     * each --mesh-list mesh.  Enforces the mesh/mesh-list and
     * mc-tiles/mesh-list exclusivity rules.
     */
    SweepSpec
    spec(const char *cmd) const
    {
        SimParams params = simParams(full_size);
        params.topo = topo.make(cmd);
        SweepSpec spec = SweepSpec::fullGrid(scale, params);
        if (meshList.empty())
            return spec;
        fatal_if(topo.meshX != 0,
                 "%s: --mesh and --mesh-list are mutually exclusive", cmd);
        fatal_if(!topo.mcTiles.empty(),
                 "%s: --mc-tiles needs a single --mesh (explicit tile ids "
                 "do not transfer across mesh sizes)",
                 cmd);
        spec.topologies.clear();
        for (const auto &[x, y] : meshList)
            spec.topologies.emplace_back(x, y, topo.mcs);
        return spec;
    }
};

/**
 * Observability options, accepted uniformly by every subcommand.
 * -v/-vv drive inform()/warn() only; --debug-flags is an independent
 * channel (tracing works at -q and stays off at -vv unless flags are
 * named explicitly).
 */
struct ObsCli
{
    std::string debugFlags;
    Tick debugStart = 0;
    Tick debugEnd = ~Tick(0);
    ObsConfig cfg; //!< what apply() installs as obsConfig()
    int verbosity = 1;

    static inline const std::string defaultSampleOut =
        "wastesim_samples_%p_%b.json";

    FlagTable
    flags()
    {
        return {
            {"--debug-flags", "F,F,...", "sim-time tracing to stderr",
             str(debugFlags)},
            {"--debug-start", "T", "first tick traced", num(debugStart)},
            {"--debug-end", "T", "first tick not traced", num(debugEnd)},
            {"--sample-window", "N", "sample counters every N ticks",
             num(cfg.sampleWindow)},
            {"--sample-out", "FILE",
             "sampler JSON (default " + defaultSampleOut + ")",
             str(cfg.sampleOut)},
            {"--timeline", "FILE",
             "trace-event JSON of sim time (sweep: of the cells)",
             str(cfg.timelineOut)},
            {"--heatmap", "FILE", "per-window per-link NoC flits as CSV",
             str(cfg.heatmapOut)},
            {"-v", nullptr, "status log lines", store(verbosity, 2)},
            {"-vv", nullptr, "debug log lines too", store(verbosity, 3)},
        };
    }

    /** Validate and install into the process-wide state. */
    void
    apply(const char *cmd) const
    {
        logVerbosity = verbosity;
        if (!debugFlags.empty()) {
            std::string err;
            fatal_if(!debug::setFlags(debugFlags, &err), "%s: %s",
                     cmd, err.c_str());
        }
        debug::windowStart = debugStart;
        debug::windowEnd = debugEnd;
        fatal_if(!cfg.sampleOut.empty() && cfg.sampleWindow == 0,
                 "%s: --sample-out needs --sample-window", cmd);
        fatal_if(!cfg.heatmapOut.empty() && cfg.sampleWindow == 0,
                 "%s: --heatmap shares the sampling window; pass "
                 "--sample-window too",
                 cmd);
        ObsConfig &out = obsConfig();
        out = cfg;
        if (cfg.sampleWindow != 0 && cfg.sampleOut.empty())
            out.sampleOut = defaultSampleOut;
    }
};

/** Compact per-protocol result table for replay/synth runs. */
void
printRunTable(const Sweep &s)
{
    std::printf("workload: %s\n", s.benchNames.at(0).c_str());
    std::printf("%-12s %12s %14s %10s %10s %10s\n", "protocol",
                "cycles", "flit-hops", "msgs", "dramRd", "dramWr");
    const auto &row = s.results.at(0);
    for (std::size_t p = 0; p < s.protoNames.size(); ++p) {
        const RunResult &r = row[p];
        std::printf("%-12s %12llu %14.0f %10llu %10llu %10llu\n",
                    s.protoNames[p].c_str(),
                    static_cast<unsigned long long>(r.cycles),
                    r.traffic.total(),
                    static_cast<unsigned long long>(r.messages),
                    static_cast<unsigned long long>(r.dramReads),
                    static_cast<unsigned long long>(r.dramWrites));
    }
    if (s.protoNames.size() > 1 && s.protoNames.front() == "MESI") {
        const RunResult &base = row.front();
        const RunResult &last = row.back();
        if (base.traffic.total() > 0 && base.cycles > 0)
            std::printf("\n%s vs MESI: traffic %+.1f%%, "
                        "exec time %+.1f%%\n",
                        s.protoNames.back().c_str(),
                        100.0 * (last.traffic.total() /
                                     base.traffic.total() -
                                 1.0),
                        100.0 * (static_cast<double>(last.cycles) /
                                     base.cycles -
                                 1.0));
    }
}

/** Slurp a small text file; fatal when unreadable. */
std::string
readTextFile(const char *cmd, const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    fatal_if(!f, "%s: cannot read '%s'", cmd, path.c_str());
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    return text;
}

/**
 * Salvage-mode cache load shared by sweep and report: corrupt or
 * truncated cells are dropped (with a warning naming the damage) and
 * simply re-simulated; only `merge` treats damage as an error.
 */
void
loadCacheSalvage(const char *cmd, CellCache &cache,
                 const std::string &path)
{
    CacheLoadReport rep;
    cache.load(path, rep, CacheLoadMode::Salvage);
    if (rep.found && !rep.formatOk) {
        warn("%s: '%s' is not a sweep cache (%s); starting empty",
             cmd, path.c_str(), rep.error.c_str());
    } else if (rep.badCells > 0 || rep.truncated) {
        warn("%s: sweep cache '%s' was damaged (%s); salvaged %zu "
             "cell(s), dropped %zu — dropped cells will be "
             "re-simulated",
             cmd, path.c_str(), rep.error.c_str(), rep.cells,
             rep.badCells);
    }
}

// --- subcommands ------------------------------------------------------------
//
// Each subcommand is an options struct: flags() binds its table rows
// to its fields, run() checks combinations of flags and acts.  The
// observability flags are parsed and applied for every subcommand by
// command(), before run().

struct RecordCmd
{
    std::string bench_name, out;
    unsigned scale = 1;
    TopoArgs topo;

    FlagTable
    flags()
    {
        return cat({{benchFlag(bench_name), scaleFlag(scale),
                     required(outFlag(out, "trace file to write"))},
                    topo.flags()});
    }

    int run();
};

int
RecordCmd::run()
{
    BenchmarkName bench;
    fatal_if(!benchmarkFromName(bench_name, bench),
             "record: unknown benchmark '%s'", bench_name.c_str());

    auto wl = makeBenchmark(bench, scale, topo.make("record"));
    TraceRecorder rec(out);
    fatal_if(!rec.record(*wl), "record: %s", rec.error().c_str());
    std::printf("recorded %s (%s) to %s: %zu ops, %zu regions, "
                "%zu barriers\n",
                wl->name().c_str(), wl->inputDesc().c_str(),
                out.c_str(), wl->totalOps(),
                wl->regions().numRegions(), wl->barriers().size());
    return 0;
}

struct ReplayCmd
{
    std::string trace_path;
    std::vector<ProtocolName> protocols;
    bool full_size = false;
    TopoArgs topo;

    FlagTable
    flags()
    {
        return cat({{traceFlag(trace_path), protocolsFlag(protocols),
                     fullSizeFlag(full_size)},
                    topo.flags()});
    }

    int run();
};

int
ReplayCmd::run()
{
    if (protocols.empty())
        protocols.assign(allProtocols, allProtocols + numProtocols);

    // Traces are self-describing: without topology flags the replay
    // runs on the recorded geometry instead of forcing the user to
    // re-type what the header already knows.
    SimParams params = simParams(full_size);
    std::string err;
    std::unique_ptr<TraceWorkload> wl;
    if (topo.given()) {
        params.topo = topo.make("replay");
        wl = TraceWorkload::load(trace_path, params.topo, &err);
    } else {
        wl = TraceWorkload::loadAnyTopology(trace_path, &err);
        if (wl)
            params.topo = wl->topo();
    }
    fatal_if(!wl, "replay: %s", err.c_str());
    std::printf("loaded %s: %zu ops, %zu regions, %zu barriers\n",
                trace_path.c_str(), wl->totalOps(),
                wl->regions().numRegions(), wl->barriers().size());

    const Sweep s = runSweep({wl.get()}, protocols, params);
    printRunTable(s);
    return 0;
}

struct SynthCmd
{
    std::string out, presetName;
    std::vector<ProtocolName> protocols;
    bool full_size = false;
    TopoArgs topo;
    // Preset parameters are derived from the FINAL topology (--mesh
    // may refine the preset's curated mesh), so parameter flags parse
    // into `given` and queue a tuner that applies them after the
    // preset, wherever --preset appears.
    SynthParams given;
    std::vector<std::function<void(SynthParams &)>> tuners;

    /** A tuning flag: @p set fills `given.*m`, the tuner copies it. */
    template <class T>
    Setter
    tune(T SynthParams::*m, Setter set)
    {
        return {set.needs, [this, m, parse = set.parse](const std::string &v) {
                    if (!parse(v))
                        return false;
                    tuners.push_back(
                        [m, x = given.*m](SynthParams &p) { p.*m = x; });
                    return true;
                }};
    }

    FlagTable
    flags()
    {
        using P = SynthParams;
        auto count = [this](unsigned P::*m) { return tune(m, num(given.*m)); };
        auto frac = [this](double P::*m) { return tune(m, real(given.*m)); };
        return cat(
            {{{"--preset", "NAME", "curated scenario, applied first",
               {"one of " + joined(synthPresetNames()),
                [this](const std::string &v) {
                    SynthParams sp;
                    Topology t;
                    presetName = v;
                    return synthPresetFromName(v, sp, t);
                }}},
              {"--seed", "N", "generator seed",
               tune(&P::seed, num(given.seed))},
              {"--pattern", "P", "access pattern",
               tune(&P::pattern,
                    {"one of " + joined(P::allPatterns, P::patternName),
                     [this](const std::string &v) {
                         return P::patternFromName(v, given.pattern);
                     }})},
              {"--ops", "N", "memory accesses per core",
               count(&P::opsPerCore)},
              {"--phases", "N", "barrier-delimited phases", count(&P::phases)},
              {"--regions", "N", "shared regions", count(&P::sharedRegions)},
              {"--region-bytes", "N", "shared region size",
               count(&P::regionBytes)},
              {"--private-bytes", "N", "private bytes per core",
               count(&P::privateBytes)},
              {"--sharing-degree", "N", "cores per sharing cluster",
               count(&P::sharingDegree)},
              {"--read-frac", "F", "loads / accesses", frac(&P::readFraction)},
              {"--shared-frac", "F", "shared / accesses",
               frac(&P::sharedFraction)},
              {"--stride", "W", "stride in words", count(&P::strideWords)},
              {"--hot-frac", "F", "hot-subset size", frac(&P::hotFraction)},
              {"--hot-prob", "F", "hot-subset hit rate",
               frac(&P::hotProbability)},
              {"--work", "N", "work cycles per access", count(&P::workCycles)},
              {"--bypass", nullptr, "mark shared regions L2-bypass",
               tune(&P::bypassShared, store(given.bypassShared, true))},
              outFlag(out, "save the trace instead of simulating it"),
              protocolsFlag(protocols), fullSizeFlag(full_size)},
             topo.flags()});
    }

    int run();
};

int
SynthCmd::run()
{
    SimParams params = simParams(full_size);
    SynthParams sp;
    Topology presetTopo;
    const bool have_preset =
        !presetName.empty() && synthPresetFromName(presetName, sp, presetTopo);

    fatal_if(!out.empty() && (!protocols.empty() || full_size),
             "synth: --out saves a trace without simulating; it "
             "cannot be combined with --protocol or --full-size "
             "(save the trace, then `replay` it)");
    // A preset carries its curated topology; explicit topology flags
    // refine it rather than resetting to the 4x4 default: --mesh
    // overrides the dims, --mcs/--mc-tiles the placement, and
    // whatever was not overridden survives from the preset.
    if (have_preset) {
        const unsigned x =
            topo.meshX != 0 ? topo.meshX : presetTopo.meshX();
        const unsigned y =
            topo.meshX != 0 ? topo.meshY : presetTopo.meshY();
        topo.checkPlacement("synth");
        if (!topo.mcTiles.empty()) {
            params.topo = Topology(x, y, topo.mcTiles);
        } else if (topo.mcs != 0) {
            params.topo = Topology(x, y, topo.mcs);
        } else if (topo.meshX == 0) {
            params.topo = presetTopo;
        } else {
            // Mesh overridden, placement not: a CURATED placement
            // carries over when its tiles fit the new mesh
            // (mc-corner's tile 0 stays the story at any size), but a
            // preset that simply used its mesh's default placement
            // must get the NEW mesh's default — the old mesh's corner
            // tile ids land on arbitrary tiles of a bigger mesh.
            std::vector<NodeId> mcs = presetTopo.memCtrlTiles();
            const bool curated =
                mcs != Topology(presetTopo.meshX(), presetTopo.meshY())
                           .memCtrlTiles();
            const bool fits =
                std::all_of(mcs.begin(), mcs.end(),
                            [&](NodeId t) { return t < x * y; });
            params.topo = curated && fits
                              ? Topology(x, y, std::move(mcs))
                              : Topology(x, y);
        }
    } else {
        params.topo = topo.make("synth");
    }

    // Presets are topology-aware: with the final geometry known,
    // derive the preset's parameters for it (sharing degree, region
    // sizes scale with the tile count), then apply explicit parameter
    // flags on top so they always win.
    if (have_preset)
        fatal_if(!synthPresetFor(presetName, params.topo, sp),
                 "synth: preset '%s' has no topology-derived form",
                 presetName.c_str());
    for (const auto &t : tuners)
        t(sp);

    auto wl = makeSynthetic(sp, params.topo);
    std::printf("generated %s on %s (%s): %zu ops\n",
                wl->name().c_str(), params.topo.describe().c_str(),
                wl->inputDesc().c_str(), wl->totalOps());

    if (!out.empty()) {
        TraceRecorder rec(out);
        fatal_if(!rec.record(*wl), "synth: %s", rec.error().c_str());
        std::printf("saved trace to %s\n", out.c_str());
        return 0;
    }

    if (protocols.empty())
        protocols.assign(allProtocols, allProtocols + numProtocols);
    const Sweep s = runSweep({wl.get()}, protocols, params);
    printRunTable(s);
    return 0;
}

/**
 * Build and render one named report of @p s, which ran on @p topo
 * (fatal on unknown names).  @p context qualifies multi-mesh output
 * in the structured formats.
 */
std::string
renderReport(const std::string &r, const Sweep &s,
             const Topology &topo, ReportFormat fmt,
             const std::string &context = {})
{
    Figure f;
    fatal_if(!buildReportByName(r, s, topo, f),
             "unknown report '%s'", r.c_str());
    f.context = context;
    return renderFigure(f, fmt);
}

/**
 * Render every requested report of every sweep (one per topology of
 * @p spec), shared by `sweep` and `report`: table mode separates
 * meshes with a header line, the structured formats qualify each
 * figure with the mesh instead.
 */
std::vector<std::string>
renderSweepReports(const std::vector<std::string> &reports,
                   const SweepSpec &spec,
                   const std::vector<Sweep> &sweeps, ReportFormat fmt)
{
    std::vector<std::string> texts;
    for (std::size_t t = 0; t < sweeps.size(); ++t) {
        const Topology &sweep_topo = spec.topologies[t];
        const std::string context =
            sweeps.size() > 1 ? sweep_topo.describe() : std::string();
        if (sweeps.size() > 1 && fmt == ReportFormat::Table)
            texts.push_back("==== mesh " + sweep_topo.describe() +
                            " ====\n");
        for (const std::string &r : reports) {
            std::string text =
                renderReport(r, sweeps[t], sweep_topo, fmt, context);
            if (fmt == ReportFormat::Table)
                text += "\n";
            texts.push_back(std::move(text));
        }
    }
    return texts;
}

/**
 * Print rendered figure texts.  JSON wraps the figures in one
 * top-level array so the output is a single valid document no matter
 * how many reports or meshes were requested; table and CSV
 * concatenate.
 */
void
emitFigureTexts(const std::vector<std::string> &texts,
                ReportFormat fmt)
{
    if (fmt == ReportFormat::Json) {
        std::printf("[\n");
        for (std::size_t i = 0; i < texts.size(); ++i) {
            std::fputs(texts[i].c_str(), stdout);
            if (i + 1 < texts.size())
                std::printf(",\n");
        }
        std::printf("]\n");
        return;
    }
    for (const std::string &t : texts)
        std::fputs(t.c_str(), stdout);
}

/**
 * `wastesim cell` — the worker half of `sweep --supervise`: compute
 * exactly one (topology, benchmark, protocol) cell and write it as a
 * checksummed hand-off file (supervisor.hh documents the format).
 * The cell key is recomputed here from the same flags the parent
 * passed, and echoed in the output, so a parent/child configuration
 * drift is caught as a key mismatch instead of a silently wrong
 * cached result.
 *
 * With --fault-inject the worker draws its fate from (seed, cell key,
 * attempt) — the same deterministic draw the tests predict — and
 * crashes, hangs or corrupts its own output on demand.
 */
struct CellCmd
{
    std::string bench_name, proto_name, out;
    unsigned scale = 1;
    bool full_size = false;
    FaultSpec faults;
    std::uint64_t faultSeed = 0;
    unsigned faultAttempt = 0;
    TopoArgs topo;

    FlagTable
    flags()
    {
        return cat({{benchFlag(bench_name),
                     required({"--protocol", "P", "the cell's protocol",
                               str(proto_name)}),
                     required(outFlag(out, "hand-off file to write")),
                     scaleFlag(scale), fullSizeFlag(full_size),
                     {"--fault-attempt", "K",
                      "attempt number, an input of the fault draw",
                      num(faultAttempt)}},
                    faultFlags(faults, faultSeed), topo.flags()});
    }

    int run();
};

int
CellCmd::run()
{
    // Workers share the parent's stderr; status chatter from dozens
    // of children would drown the supervisor's own reporting.
    if (logVerbosity <= 1)
        logVerbosity = 0;
    BenchmarkName bench;
    fatal_if(!benchmarkFromName(bench_name, bench),
             "cell: unknown benchmark '%s'", bench_name.c_str());
    ProtocolName proto;
    fatal_if(!protocolFromName(proto_name, proto),
             "cell: unknown protocol '%s'", proto_name.c_str());
    SimParams params = simParams(full_size);
    params.topo = topo.make("cell");

    const std::string cell_id = sweepConfigTag(scale, params) +
                                ",bench=" + benchmarkName(bench) +
                                ",proto=" + protocolName(proto);

    // Injected faults fire before the simulation: a crashed or hung
    // worker never gets as far as producing a result, exactly like a
    // real SIGSEGV or livelock would behave.
    const FaultKind fate =
        faultDraw(faults, faultSeed, cell_id, faultAttempt);
    switch (fate) {
      case FaultKind::CrashSegv:
        std::raise(SIGSEGV);
        break;
      case FaultKind::CrashKill:
        std::raise(SIGKILL);
        break;
      case FaultKind::CrashExit:
        std::_Exit(3);
      case FaultKind::Hang:
        for (;;)
            ::pause();
      default:
        break;
    }

    const RunResult r = runOne(proto, bench, scale, params);
    std::string bytes = formatWorkerOutput(cell_id, r);
    if (fate == FaultKind::Corrupt)
        corruptWorkerOutput(bytes, faultSeed, faultAttempt);

    std::FILE *f = std::fopen(out.c_str(), "wb");
    fatal_if(!f, "cell: cannot write '%s'", out.c_str());
    const bool ok =
        std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
    std::fclose(f);
    fatal_if(!ok, "cell: short write to '%s'", out.c_str());
    return 0;
}

struct SweepCmd
{
    GridArgs grid;
    unsigned supervise = 0; //!< worker processes; 0 = threaded engine
    SupervisorConfig cfg;   //!< also the engine's shard and progress

    FlagTable
    flags()
    {
        return cat(
            {grid.flags(),
             {{"--shard", "I/N",
               "compute grid slice I of N into a partial cache for `merge`",
               {"I/N with I < N <= 4096", [this](const std::string &v) {
                    // A malformed spec fails the command, so the
                    // fields may be left half-written.
                    const std::size_t slash = v.find('/');
                    return slash != std::string::npos &&
                           parseNum(v.substr(0, slash), cfg.shard) &&
                           parseNum(v.substr(slash + 1), cfg.numShards) &&
                           cfg.shard < cfg.numShards &&
                           cfg.numShards <= 4096;
                }}},
              {"--progress", nullptr,
               "print a heartbeat with ETA and flag stalled cells",
               store(cfg.progressMs, 5000u)},
              {"--supervise", "N",
               "compute cells on N crash-isolated worker processes, with "
               "retries, deadlines and poison-cell quarantine",
               num(supervise, 1u, 256u)},
              {"--max-retries", "N", "retries per supervised cell (default 3)",
               num(cfg.maxRetries)},
              {"--retry-backoff-ms", "N", "base retry backoff (default 200)",
               num(cfg.backoffBaseMs)},
              {"--cell-deadline-ms", "N",
               "kill a supervised cell after N ms (default 0: never)",
               num(cfg.deadlineMs)}},
             faultFlags(cfg.faults, cfg.faultSeed)});
    }

    int run();
};

int
SweepCmd::run()
{
    // In a sweep, --timeline means the wall-clock cell-lifecycle trace
    // (the engine's view), not a per-simulation sim-time trace: cells
    // run concurrently and would race on one sim-time file.
    const std::string timeline = std::exchange(obsConfig().timelineOut, {});
    grid.prepare("sweep");
    // Faults only make sense where a crash is isolated to one worker
    // process; injecting them into the threaded engine would take
    // down the whole sweep, which is exactly the failure mode the
    // supervisor exists to prevent.
    fatal_if(cfg.faults.any() && supervise == 0,
             "sweep: --fault-inject needs --supervise N (faults "
             "crash worker processes, not the sweep itself)");
    const ReportFormat fmt = grid.fmt;
    const SweepSpec spec = grid.spec("sweep");

    const std::string path = grid.cacheFile();
    const bool no_cache = std::getenv("WASTESIM_NO_CACHE") != nullptr;
    // A shard's only product is its partial cache file; running one
    // with the cache disabled would discard every result.
    fatal_if(cfg.numShards > 1 && no_cache,
             "sweep: --shard writes a partial cache; unset "
             "WASTESIM_NO_CACHE to run sharded");

    CellCache cache;
    if (!no_cache)
        loadCacheSalvage("sweep", cache, path);

    // Graceful drain: the first SIGINT/SIGTERM lets in-flight cells
    // finish (each is autosaved as it completes), a second one stops
    // immediately.  Shared by both execution paths.
    installDrainHandlers();

    std::vector<Sweep> sweeps;
    std::size_t cellsTotal, cellsHit, cellsComputed, cellsQuarantined;
    std::size_t numRetries = 0, numKills = 0;
    bool was_interrupted;
    if (supervise > 0) {
        cfg.workers = supervise;
        cfg.retryQuarantined = grid.retryQuarantined;
        if (!no_cache)
            cfg.autosavePath = path;
        cfg.timelinePath = timeline;
        // The worker must rebuild the exact SimParams of this parent;
        // topology travels per cell, scale and the full-size switch
        // travel here.
        cfg.workerParamArgs = {"--scale", std::to_string(grid.scale)};
        if (grid.full_size)
            cfg.workerParamArgs.push_back("--full-size");
        SweepSupervisor sup(spec, cfg);
        sweeps = sup.run(cache);
        cellsTotal = sup.cellsTotal();
        cellsHit = sup.cellsHit();
        cellsComputed = sup.cellsComputed();
        cellsQuarantined = sup.cellsQuarantined();
        numRetries = sup.retries();
        numKills = sup.deadlineKills();
        was_interrupted = sup.interrupted();
    } else {
        SweepEngine engine(spec);
        if (cfg.numShards > 1)
            engine.setShard(cfg.shard, cfg.numShards);
        // Partial-cache resume: every finished cell is persisted
        // immediately (atomic rename), so a killed shard restarts
        // from its completed cells instead of recomputing the slice —
        // the autosave of the last cell doubles as the final cache
        // write.
        if (!no_cache)
            engine.setAutosave(path);
        engine.setProgress(cfg.progressMs);
        engine.setTimeline(timeline);
        engine.setRetryQuarantined(grid.retryQuarantined);
        engine.setStopCheck([] { return drainRequestCount() > 0; });
        sweeps = engine.run(cache);
        cellsTotal = engine.cellsTotal();
        cellsHit = engine.cellsHit();
        cellsComputed = engine.cellsComputed();
        cellsQuarantined = engine.cellsQuarantined();
        was_interrupted = engine.interrupted();
    }

    // In the structured formats the status line must not pollute the
    // machine-readable stream.
    char extras[96] = "";
    if (numRetries > 0 || numKills > 0 || cellsQuarantined > 0)
        std::snprintf(extras, sizeof(extras),
                      ", %zu retries, %zu deadline kills, "
                      "%zu quarantined",
                      numRetries, numKills, cellsQuarantined);
    std::fprintf(fmt == ReportFormat::Table ? stdout : stderr,
                 "sweep: %zu cells (%zu cached, %zu computed)%s%s\n",
                 cellsTotal, cellsHit, cellsComputed, extras,
                 no_cache ? " [cache disabled]" : "");

    if (was_interrupted) {
        // Completed cells are on disk (autosave); rerunning the same
        // command resumes from them.  The conventional SIGINT exit.
        std::fprintf(stderr,
                     "sweep: interrupted — completed cells are saved"
                     "%s%s; rerun to resume\n",
                     no_cache ? "" : " in ",
                     no_cache ? "" : path.c_str());
        return 130;
    }

    if (cfg.numShards > 1) {
        // A shard owns a grid slice, so its Sweeps are partial; the
        // cache file is the product.  Reports come after `merge`.
        std::printf("shard %u/%u: partial cache written to %s; run "
                    "`wastesim merge` over all shards, then `sweep "
                    "--cache MERGED` for reports\n",
                    cfg.shard, cfg.numShards, path.c_str());
        return 0;
    }

    emitFigureTexts(renderSweepReports(grid.reports, spec, sweeps, fmt),
                    fmt);
    return 0;
}

/**
 * `wastesim report` — render figures from a sweep cache without
 * re-simulating.  The cache is the product of `sweep` runs; report
 * assembles the requested grid purely from cached cells and renders
 * any figure in any format.  `--compute-missing` opts into filling
 * cache holes by simulation (the placement study needs five sweeps;
 * computing them through report saves the five `sweep` invocations).
 */
struct ReportCmd
{
    GridArgs grid;
    std::string inPath;
    bool schema = false, compute_missing = false;

    FlagTable
    flags()
    {
        return cat(
            {grid.flags(),
             {{"--schema", nullptr, "print the metric schema instead",
               store(schema, true)},
              {"--compute-missing", nullptr,
               "simulate (and cache) missing cells instead of failing",
               store(compute_missing, true)},
              {"--in", "FILE", "sampler JSON for the timeline report",
               str(inPath)}}});
    }

    int run();
};

int
ReportCmd::run()
{
    grid.prepare("report", reportOnlyNames);

    if (schema) {
        // The machine-readable metric schema: fingerprint first, one
        // line per metric.  CI diffs this against a committed
        // reference so schema drift is always a deliberate change.
        std::printf("# wastesim metrics schema %s\n",
                    metricsSchemaFingerprint().c_str());
        for (const Metric &m : metricsSchema())
            std::printf("%s %s %s\n", m.path.c_str(), m.unit.c_str(),
                        metricKindName(m.kind));
        return 0;
    }

    const ReportFormat fmt = grid.fmt;

    // The placement study is a multi-sweep report, and the timeline
    // renders from an --in file instead of the sweep cache;
    // everything else renders from one grid per mesh.
    bool placement = false, want_timeline = false;
    std::vector<std::string> single;
    for (const std::string &r : grid.reports) {
        if (r == "placement")
            placement = true;
        else if (r == "timeline")
            want_timeline = true;
        else
            single.push_back(r);
    }
    fatal_if(want_timeline && inPath.empty(),
             "report: the timeline report reads a sampler JSON file; "
             "pass --in FILE");

    const std::string path = grid.cacheFile();
    // WASTESIM_NO_CACHE means the same as for `sweep`: neither serve
    // from nor write the cache file (with --compute-missing the whole
    // grid is then simulated and the results discarded after use).
    const bool no_cache = std::getenv("WASTESIM_NO_CACHE") != nullptr;
    CellCache cache;
    if (!no_cache)
        loadCacheSalvage("report", cache, path);

    fatal_if(placement && !grid.meshList.empty(),
             "report: the placement study sweeps placements of one "
             "mesh; use --mesh, not --mesh-list");
    // The study compares the curated placements, which would silently
    // override an explicit MC request.
    fatal_if(placement && (grid.topo.mcs != 0 || !grid.topo.mcTiles.empty()),
             "report: the placement study uses its curated MC "
             "placements; --mcs/--mc-tiles cannot be combined with "
             "it");
    const SweepSpec grid_spec = grid.spec("report");

    // Assemble a grid of fully cached cells (or, with
    // --compute-missing, simulate the holes and persist them).
    // Quarantined cells are not "missing": they render as annotated
    // holes, and only --retry-quarantined re-runs them.
    auto assemble = [&](SweepSpec spec) -> std::vector<Sweep> {
        std::size_t missing = 0, quarantined = 0;
        for (std::size_t i = 0; i < spec.numCells(); ++i) {
            const std::string key = spec.cellKey(spec.cellAt(i));
            if (cache.has(key))
                continue;
            if (!grid.retryQuarantined && cache.isQuarantined(key))
                ++quarantined;
            else
                ++missing;
        }
        fatal_if(missing > 0 && !compute_missing,
                 "report: %zu of %zu cells are not in %s; run "
                 "`wastesim sweep` with the same topology flags "
                 "first, or pass --compute-missing to simulate them",
                 missing, spec.numCells(), path.c_str());
        SweepEngine engine(spec);
        engine.setRetryQuarantined(grid.retryQuarantined);
        // The per-cell autosave persists the full cache as it grows;
        // the last cell's write is the final state, no explicit save.
        if (missing > 0 && !no_cache)
            engine.setAutosave(path);
        std::vector<Sweep> sweeps = engine.run(cache);
        if (engine.cellsComputed() > 0)
            std::fprintf(stderr,
                         "report: computed %zu missing cells%s%s\n",
                         engine.cellsComputed(),
                         no_cache ? "" : " into ",
                         no_cache ? " [cache disabled]"
                                  : path.c_str());
        return sweeps;
    };

    // All requested figures collect into one emission, so JSON stays
    // a single valid document even when single-sweep reports and the
    // placement study are requested together.
    std::vector<std::string> texts;

    if (!single.empty()) {
        const std::vector<Sweep> sweeps = assemble(grid_spec);
        texts = renderSweepReports(single, grid_spec, sweeps, fmt);
    }

    if (placement) {
        const Topology &mesh = grid_spec.params.topo;
        const auto placements =
            curatedMcPlacements(mesh.meshX(), mesh.meshY());
        SweepSpec spec = grid_spec;
        spec.topologies.clear();
        std::vector<std::string> names;
        for (const auto &[name, t] : placements) {
            names.push_back(name);
            spec.topologies.push_back(t);
        }
        const std::vector<Sweep> sweeps = assemble(spec);
        Figure f = buildPlacementStudy(names, spec.topologies, sweeps);
        f.context = mesh.describe();
        std::string text = renderFigure(f, fmt);
        if (fmt == ReportFormat::Table)
            text += "\n";
        texts.push_back(std::move(text));
    }

    if (want_timeline) {
        const std::string text = readTextFile("report", inPath);
        SampleData data;
        std::string err;
        fatal_if(!sampleDataFromJson(text, data, &err),
                 "report: '%s' is not a sampler JSON file: %s",
                 inPath.c_str(), err.c_str());
        Figure f = buildTimelineFigure(data);
        f.context = inPath;
        std::string rendered = renderFigure(f, fmt);
        if (fmt == ReportFormat::Table)
            rendered += "\n";
        texts.push_back(std::move(rendered));
    }

    emitFigureTexts(texts, fmt);
    return 0;
}

struct MergeCmd
{
    std::string out;
    std::vector<std::string> inputs;
    bool skip_bad = false;

    FlagTable
    flags()
    {
        return {required(outFlag(out, "merged cache to write")),
                {"--skip-bad", nullptr,
                 "salvage the intact cells of a damaged input",
                 store(skip_bad, true)},
                {nullptr, "CACHE...", "partial caches to combine",
                 strs(inputs)}};
    }

    int run();
};

int
MergeCmd::run()
{
    fatal_if(inputs.empty(), "merge: no input caches given");

    // Strict by default: a damaged shard cache is an error naming the
    // first bad cell and its byte offset, because silently thinning a
    // partial cache would masquerade as a complete merge.  --skip-bad
    // opts into salvage: intact cells are kept, dropped ones listed.
    CellCache merged;
    std::size_t dropped = 0;
    for (const std::string &in : inputs) {
        CellCache part;
        CacheLoadReport rep;
        const CacheLoadMode mode = skip_bad ? CacheLoadMode::Salvage
                                            : CacheLoadMode::Strict;
        if (!part.load(in, rep, mode)) {
            fatal("merge: cannot read sweep cache '%s': %s "
                  "(--skip-bad salvages the intact cells)",
                  in.c_str(),
                  rep.error.empty() ? "no such file or unreadable"
                                    : rep.error.c_str());
        }
        if (rep.badCells > 0 || rep.truncated) {
            warn("merge: '%s' was damaged (%s); salvaged %zu "
                 "cell(s), dropped %zu",
                 in.c_str(), rep.error.c_str(), rep.cells,
                 rep.badCells);
            for (const std::string &k : rep.badKeys)
                warn("merge: dropped cell '%s'", k.c_str());
            dropped += rep.badCells;
        }
        std::string err;
        fatal_if(!merged.merge(part, &err), "merge: %s in '%s'",
                 err.c_str(), in.c_str());
        std::printf("merged %s (%zu cells)\n", in.c_str(),
                    part.size());
    }
    fatal_if(!merged.save(out), "merge: cannot write '%s'",
             out.c_str());
    std::printf("wrote %zu cells", merged.size());
    if (merged.numQuarantined() > 0)
        std::printf(" + %zu quarantine record(s)",
                    merged.numQuarantined());
    if (dropped > 0)
        std::printf(" (%zu corrupt cell(s) skipped)", dropped);
    std::printf(" to %s\n", out.c_str());
    return 0;
}

struct InfoCmd
{
    std::string trace_path;

    FlagTable flags() { return {traceFlag(trace_path)}; }

    int run();
};

int
InfoCmd::run()
{
    std::string err;
    auto wl = TraceWorkload::loadAnyTopology(trace_path, &err);
    fatal_if(!wl, "info: %s", err.c_str());

    std::printf("trace:     %s\n", trace_path.c_str());
    std::printf("workload:  %s\n", wl->name().c_str());
    std::printf("input:     %s\n", wl->inputDesc().c_str());
    std::printf("topology:  %s (%u MCs)\n",
                wl->topo().describe().c_str(), wl->topo().numMemCtrls());
    std::printf("ops:       %zu across %u cores\n", wl->totalOps(),
                wl->numCores());
    std::printf("barriers:  %zu\n", wl->barriers().size());
    std::printf("regions:   %zu\n", wl->regions().numRegions());
    for (std::size_t i = 0; i < wl->regions().numRegions(); ++i) {
        const Region &r =
            wl->regions().region(static_cast<RegionId>(i));
        std::printf("  [%3zu] %-24s base=0x%llx size=%llu%s%s%s\n", i,
                    r.name.c_str(),
                    static_cast<unsigned long long>(r.base),
                    static_cast<unsigned long long>(r.size),
                    r.flex ? " flex" : "", r.bypass ? " bypass" : "",
                    r.stream ? " stream" : "");
    }
    return 0;
}

/**
 * `wastesim fuzz` — the seeded invariant-checking fuzz campaign.
 * Everything is derived from --seed, so a failing run is reproduced
 * by re-running with the same seed (or pasting the reported scenario
 * line into `fuzzone`).
 */
struct FuzzCmd
{
    FuzzOptions opts;
    std::string reportPath;

    FlagTable
    flags()
    {
        return cat(
            {{{"--seed", "N", "campaign seed", num(opts.seed)},
              {"--runs", "N", "scenarios to draw", num(opts.runs)},
              {"--time-budget", "SEC", "stop drawing after SEC seconds",
               real(opts.timeBudgetSec, /*non_negative=*/true)},
              {"--minimize", nullptr,
               "delta-debug each failure to a near-minimal scenario",
               store(opts.minimize, true)},
              {"--corpus", "DIR", "write minimized anomalies as .scn files",
               str(opts.corpusDir)},
              {"--report", "FILE", "copy the report to FILE", str(reportPath)},
              {"--no-isolate", nullptr,
               "run scenarios in-process, not in crash-isolated workers",
               store(opts.isolate, false)},
              {"--deadline-ms", "N", "per-scenario worker deadline",
               num(opts.deadlineMs)},
              {"--minimize-tests", "N", "minimizer test budget per failure",
               num(opts.minimizeMaxTests)}},
             fuzzCheckFlags(opts)});
    }

    int run();
};

int
FuzzCmd::run()
{
    // SIGINT drains: finish the in-flight scenario, then report what
    // ran instead of losing the campaign.
    installDrainHandlers();

    FuzzCampaign campaign(std::move(opts));
    const FuzzReport rep = campaign.run();
    const std::string text = rep.toText();
    std::fputs(text.c_str(), stdout);
    if (!reportPath.empty()) {
        std::FILE *f = std::fopen(reportPath.c_str(), "wb");
        fatal_if(!f, "fuzz: cannot write '%s'", reportPath.c_str());
        const bool ok = std::fwrite(text.data(), 1, text.size(), f) ==
                        text.size();
        std::fclose(f);
        fatal_if(!ok, "fuzz: short write to '%s'", reportPath.c_str());
    }
    return rep.clean() ? 0 : 1;
}

/** `wastesim fuzzone` — one scenario, checked in this process; the
 *  worker half of `fuzz` (kept as a public subcommand so a reported
 *  scenario line is directly replayable). */
struct FuzzoneCmd
{
    std::string line, out;
    FuzzOptions opts; //!< only the check options apply

    FlagTable
    flags()
    {
        return cat({{required({"--scenario", "LINE", "encoded scenario",
                               str(line)}),
                     required(outFlag(out, "verdict file to write"))},
                    fuzzCheckFlags(opts)});
    }

    int run();
};

int
FuzzoneCmd::run()
{
    // Workers share the campaign's stderr; keep them quiet unless -v.
    if (logVerbosity <= 1)
        logVerbosity = 0;
    return fuzzWorkerMain(line, out, opts.maxTicks, opts.checkReplay);
}

// --- the command table ------------------------------------------------------

struct Command
{
    const char *name;
    const char *summary;
    std::string (*flagHelp)(); //!< help lines of its own flags
    /** Parse @p argv into a fresh options object, then run it. */
    int (*run)(const char *name, int argc, char **argv);
};

template <class Cmd>
Command
command(const char *name, const char *summary)
{
    // Help reads the rows of a scratch object; parsing fills a fresh one.
    return {name, summary, [] { return flagHelp(Cmd().flags()); },
            [](const char *cmd, int argc, char **argv) {
                Cmd c;
                ObsCli obs;
                parseFlags(cmd, cat({c.flags(), obs.flags()}), argc, argv);
                obs.apply(cmd);
                return c.run();
            }};
}

const Command commands[] = {
    command<RecordCmd>("record", "serialize a benchmark to a trace file"),
    command<ReplayCmd>("replay", "replay a trace through protocols"),
    command<SynthCmd>("synth", "generate, save or run a synthetic scenario"),
    command<SweepCmd>("sweep", "run the protocol x benchmark grid, cached"),
    command<ReportCmd>("report", "render figures from a sweep cache"),
    command<MergeCmd>("merge", "combine sharded sweep caches into one"),
    command<CellCmd>("cell", "compute one cell (a supervised sweep's worker)"),
    command<FuzzCmd>("fuzz", "check seeded scenarios against the invariants"),
    command<FuzzoneCmd>("fuzzone", "check one scenario (a fuzz worker)"),
    command<InfoCmd>("info", "describe a trace file"),
};

/** Usage from the tables and the name registries. */
std::string
usage()
{
    std::string out = "usage: wastesim <command> [options]\n\n";
    for (const Command &c : commands) {
        std::string name = c.name;
        name.resize(8, ' ');
        out += name + " " + c.summary + "\n" + c.flagHelp() + "\n";
    }
    using P = SynthParams;
    return out + "every command also takes:\n" + flagHelp(ObsCli().flags()) +
           "\n" +
           wrapped("benchmarks: ", joined(allBenchmarks, benchmarkName)) +
           wrapped("protocols:  ", joined(allProtocols, protocolName)) +
           wrapped("reports:    ", joined(reportNames()) + "; `report` also " +
                                       joined(reportOnlyNames) + " (default " +
                                       joined(defaultReports) + ")") +
           wrapped("debug flags:", debug::flagList() + " (all: every flag)") +
           wrapped("presets:    ", joined(synthPresetNames()) +
                                       " (hotsetN: any square N)") +
           wrapped("patterns:   ", joined(P::allPatterns, P::patternName));
}

} // namespace

int
main(int argc, char **argv)
{
    logVerbosity = 1;
    const std::string cmd = argc < 2 ? "" : argv[1];
    if (cmd == "help" || cmd == "--help" || cmd == "-h") {
        std::fputs(usage().c_str(), stdout);
        return 0;
    }
    for (const Command &c : commands)
        if (cmd == c.name)
            return c.run(c.name, argc - 2, argv + 2);
    if (!cmd.empty())
        std::fprintf(stderr, "unknown command '%s'\n\n", cmd.c_str());
    std::fputs(usage().c_str(), stderr);
    return 2;
}
