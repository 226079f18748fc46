/**
 * @file
 * wastesim benchmark driver.
 *
 * Times the simulator from outside, through its public calls only
 * (makeBenchmark, makeSynthetic, System + run, SweepEngine with
 * setCompute/setAutosave, CellCache load/save, the figure builders and
 * the fuzz invariant checks), on one of three closed-loop workloads:
 *
 *  - cells:        MESI and DeNovo x LU and FFT on the scaled 4x4
 *                  system, run serially (the compute-bound common case);
 *  - sweep:        the cold 54-cell 4x4 grid through SweepEngine at two
 *                  jobs, autosaving to a fresh cache ("regenerate every
 *                  figure");
 *  - store-stream: a seeded DRAM-bound private write stream on DeNovo
 *                  and MESI (the L2 busy-set NACK/retry path).
 *
 * Every simulated cell is checked: cells against the commit's golden
 * sweep cache, the sweep's cache file byte for byte against it, and every
 * System of cells and store-stream against the fuzz invariants.  A
 * failed check counts the cell as failed and makes the exit code 1.
 *
 * The untraced run (--trace 0) prints the end-to-end metrics; the traced
 * run (--trace 1) alternates untraced and traced passes, runs the
 * isolated layer drivers and prints the per-layer metrics.  The last
 * stdout line is the result object; the line before it carries the
 * run's details (pass count, tail percentile, failures, build).
 */

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "calib.hh"
#include "fuzz/invariants.hh"
#include "layers.hh"
#include "spans.hh"
#include "system/report.hh"
#include "system/sweep_engine.hh"
#include "system/system.hh"
#include "trace/synthetic.hh"

using namespace wastesim;
using perfbench::SpanLog;
using perfbench::SpanScope;

namespace
{

using Clock = std::chrono::steady_clock;

/** Metric name -> (value, unit). */
using Metrics = std::map<std::string, std::pair<double, std::string>>;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * CPU seconds of the calling thread or of the whole process (all its
 * threads, ended ones too).  The timed figures use these clocks, not the
 * wall clock: a paravirtualized guest kernel with steal-time accounting
 * leaves out of them the time the hypervisor hands this vCPU to other
 * guests, which the wall clock counts.
 */
double
cpuClock(clockid_t id)
{
    timespec ts;
    clock_gettime(id, &ts);
    return ts.tv_sec + ts.tv_nsec * 1e-9;
}

double
threadCpu()
{
    return cpuClock(CLOCK_THREAD_CPUTIME_ID);
}

double
processCpu()
{
    return cpuClock(CLOCK_PROCESS_CPUTIME_ID);
}

/** Sweep worker threads: fixed, so sweep timings compare across hosts
 *  with at least two free cores. */
constexpr unsigned sweepJobs = 2;

/**
 * --seconds is turned into a pass count, max(minPasses, round(seconds /
 * secondsPerPass)), so every commit does the same work for the same
 * --seconds and the sample counts (and with them the reported tail
 * percentile) never depend on the program's speed.  secondsPerPass is
 * about one pass's host time at the commit that defined the benchmark
 * (Release build, 4-core Xeon), except for store-stream: its pass takes
 * about 4.5 s, and it gets more passes per second because each pass
 * simulates its own stream, whose host time depends on its addresses by
 * about 10%, so the median needs many streams.
 */
struct WorkloadDef
{
    const char *name;
    double secondsPerPass;
    unsigned minPasses;
};

constexpr WorkloadDef workloadDefs[] = {
    {"cells", 1.2, 3},
    {"sweep", 10.0, 1},
    {"store-stream", 1.7, 1},
};

/** Set-ups per run: setup_s is the median over them. */
constexpr unsigned numSetups = 31;

/**
 * The end-to-end times are CPU seconds at a fixed host speed.  The host's
 * speed moves by 10-30% within seconds, and by up to 2x between minutes,
 * with the load of the machine it shares (steal time aside, which the
 * CPU clocks leave out).  So the reference loop (calib.hh) runs on the
 * measuring thread right before and right after every timed interval
 * (each cell, each set-up), and the interval's CPU seconds are
 * multiplied by refNominalS over the mean of those two samples, raised
 * to refElasticity.  The times read as seconds on a host where the loop
 * takes refNominalS, about its time on the 4-vCPU Xeon the benchmark was
 * defined on.  Raw times stay in the details line.
 *
 * The simulator is more sensitive to the host's state than the loop:
 * over 30 runs per workload spanning a 1.6x range of loop times, the log
 * of a pass's raw CPU time moved 1.28 (cells), 1.23 (sweep) and 1.11
 * (store-stream) times as much as the log of the loop's time.  The
 * factor depends on the host only, never on the program, so it cancels
 * the host's drift without touching A/B differences.
 */
constexpr double refNominalS = 0.015;
constexpr double refElasticity = 1.25;

/** The factor that puts an interval between reference samples taking
 *  @p before and @p after seconds at the nominal host speed. */
double
speedScale(double before, double after)
{
    return std::pow(2 * refNominalS / (before + after), refElasticity);
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string golden;
    std::string outDir = ".";
    std::string tamperOut;
};

/** One simulated cell of a pass.  Times are the running thread's CPU
 *  seconds, except wallS and startS. */
struct CellRun
{
    std::string id; //!< "protocol/benchmark"
    ProtocolName proto = ProtocolName::MESI;
    double buildS = 0; //!< System construction
    double runS = 0;   //!< System::run
    double wallS = 0;  //!< construction plus run, wall clock
    double startS = 0; //!< sweep only: start offset from run() entry
    double scale = 1;  //!< speedScale() of the reference samples around it
    double refCpuS = 0; //!< sweep only: reference loops in its compute call
    std::uint64_t ops = 0;
    RunResult r;

    /** Construction plus run at the nominal host speed. */
    double
    normS() const
    {
        return (buildS + runS) * scale;
    }
};

/** One pass over a workload.  Times are process CPU seconds, except
 *  wallS; none includes the reference loops. */
struct Pass
{
    bool traced = false;
    double setupS = 0;
    double genS = 0;
    double buildS = 0;
    double cpuS = 0;  //!< the timed phase
    double normS = 0; //!< the timed phase at the nominal host speed
    double wallS = 0; //!< the timed phase, wall clock
    std::vector<CellRun> cells;

    std::uint64_t
    ops() const
    {
        std::uint64_t n = 0;
        for (const CellRun &c : cells)
            n += c.ops;
        return n;
    }
};

std::uint64_t
opCount(const Workload &wl)
{
    std::uint64_t loads = 0, stores = 0;
    workloadOpCounts(wl, loads, stores);
    return loads + stores;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

/** "protocol/benchmark": a cell's id in failures, spans and tables. */
std::string
cellId(ProtocolName p, const std::string &bench)
{
    return std::string(protocolName(p)) + "/" + bench;
}

/** Cache key of the (@p p, @p b) cell of the 4x4 grid @p spec. */
std::string
cellKeyOf(const SweepSpec &spec, ProtocolName p, BenchmarkName b)
{
    SweepCell c;
    c.benchIdx = static_cast<unsigned>(
        std::find(spec.benches.begin(), spec.benches.end(), b) -
        spec.benches.begin());
    c.protoIdx = static_cast<unsigned>(
        std::find(spec.protocols.begin(), spec.protocols.end(), p) -
        spec.protocols.begin());
    return spec.cellKey(c);
}

class Bench
{
  public:
    explicit Bench(Options opt)
        : opt_(std::move(opt)),
          spec_(SweepSpec::fullGrid(1, SimParams::scaled())),
          off_(false), on_(opt_.trace)
    {
    }

    int run();

  private:
    /** One cell of a serial workload. */
    struct SerialCell
    {
        ProtocolName proto;
        const Workload *wl;
        const char *name;
    };

    /** Build a System per cell (set-up, which started at process CPU
     *  time @p c0 with workload generation), run them one after another
     *  and check each against the invariants. */
    Pass runSerial(const std::vector<SerialCell> &plan, double c0,
                   SpanLog &spans, bool timed);
    Pass runCells(unsigned pass, SpanLog &spans, bool timed);
    Pass runSweep(SpanLog &spans, bool timed);
    Pass runStoreStream(unsigned pass, SpanLog &spans, bool timed);
    Pass runPass(unsigned pass, SpanLog &spans, bool timed);

    void fail(const CellRun &c, const std::string &why);
    void checkSystem(const System &sys, const Workload &wl,
                     const CellRun &c);
    void checkGolden(const CellRun &c, BenchmarkName b);
    void checkSweepCache(const std::string &path);

    /** Per-layer metrics of a traced run: counts from its first traced
     *  pass, host times from its untraced passes, and the isolated layer
     *  drivers. */
    void addLayerMetrics(Metrics &m, const std::vector<const Pass *> &plain,
                         const std::vector<const Pass *> &traced,
                         std::string &details);

    void printResult(const Metrics &m, const std::string &details);

    /** One run of the reference loop on the calling thread; its seconds,
     *  also kept for the details line. */
    double sampleRef();

    Options opt_;
    SweepSpec spec_;
    SpanLog off_, on_;
    CellCache golden_;
    std::string goldenBytes_;

    std::mutex refMutex_;
    std::vector<double> refSamples_;
    unsigned sweepPass_ = 0;

    std::uint64_t attempted_ = 0;
    std::uint64_t failedCells_ = 0;
    std::vector<std::string> failures_;
};

double
Bench::sampleRef()
{
    const double s = perfbench::referenceLoopSeconds();
    std::lock_guard<std::mutex> lk(refMutex_);
    refSamples_.push_back(s);
    return s;
}

void
Bench::fail(const CellRun &c, const std::string &why)
{
    ++failedCells_;
    if (failures_.size() < 20)
        failures_.push_back(c.id + ": " + why);
}

void
Bench::checkSystem(const System &sys, const Workload &wl,
                   const CellRun &c)
{
    InvariantReport rep;
    checkResultInvariants(c.r, rep);
    checkSystemInvariants(sys, wl, c.r, rep);
    if (!rep.ok())
        fail(c, "invariant: " + rep.describe());
}

void
Bench::checkGolden(const CellRun &c, BenchmarkName b)
{
    RunResult g;
    if (!golden_.get(cellKeyOf(spec_, c.proto, b), g)) {
        fail(c, "no golden cell");
        return;
    }
    // The cache holds the serialized cell block, which leaves out the
    // host-side event count; compare blocks, and name fields on a miss.
    if (serializeResult(g) == serializeResult(c.r))
        return;
    g.eventsExecuted = c.r.eventsExecuted;
    InvariantReport rep;
    compareResults(g, c.r, rep);
    fail(c, "golden mismatch: " + rep.describe());
}

void
Bench::checkSweepCache(const std::string &path)
{
    const std::string bytes = readFile(path);
    if (bytes == goldenBytes_)
        return;
    // Name the cells that differ; a file that differs with equal cells
    // (ordering, quarantine records) still counts as one failure.
    CellCache got;
    got.load(path);
    std::uint64_t bad = 0;
    for (std::size_t f = 0; f < spec_.numCells(); ++f) {
        const SweepCell cell = spec_.cellAt(f);
        const std::string key = spec_.cellKey(cell);
        RunResult a, b;
        CellRun c;
        c.id = cellId(spec_.protocols[cell.protoIdx],
                      benchmarkName(spec_.benches[cell.benchIdx]));
        if (!got.get(key, b)) {
            fail(c, "missing from the sweep cache");
            ++bad;
        } else if (!golden_.get(key, a) ||
                   serializeResult(a) != serializeResult(b)) {
            fail(c, "sweep cell differs from golden");
            ++bad;
        }
    }
    if (bad == 0) {
        CellRun c;
        c.id = "sweep";
        fail(c, "cache file is not byte-identical to golden");
    }
}

Pass
Bench::runSerial(const std::vector<SerialCell> &plan, double c0,
                 SpanLog &spans, bool timed)
{
    const SimParams params = SimParams::scaled();
    Pass p;
    p.genS = processCpu() - c0;
    std::vector<std::unique_ptr<System>> systems;
    for (const SerialCell &sc : plan) {
        CellRun c;
        c.proto = sc.proto;
        c.id = cellId(sc.proto, sc.name);
        const auto tb = Clock::now();
        const double cb = threadCpu();
        {
            SpanScope s(spans, "System", c.id);
            systems.push_back(
                std::make_unique<System>(sc.proto, *sc.wl, params));
        }
        c.buildS = threadCpu() - cb;
        c.wallS = since(tb);
        p.buildS += c.buildS;
        p.cells.push_back(std::move(c));
    }
    p.setupS = processCpu() - c0;
    if (!timed)
        return p;

    double before = sampleRef();
    for (std::size_t i = 0; i < plan.size(); ++i) {
        CellRun &c = p.cells[i];
        const auto tr = Clock::now();
        const double cr = threadCpu();
        {
            SpanScope s(spans, "System::run", c.id);
            c.r = systems[i]->run();
        }
        c.runS = threadCpu() - cr;
        const double wall = since(tr);
        const double after = sampleRef();
        c.scale = speedScale(before, after);
        before = after;
        c.wallS += wall;
        p.wallS += wall;
        p.cpuS += c.runS;
        p.normS += c.runS * c.scale;
    }

    for (std::size_t i = 0; i < plan.size(); ++i) {
        CellRun &c = p.cells[i];
        c.ops = opCount(*plan[i].wl);
        SpanScope s(spans, "check", c.id);
        checkSystem(*systems[i], *plan[i].wl, c);
    }
    attempted_ += p.cells.size();
    return p;
}

Pass
Bench::runCells(unsigned pass, SpanLog &spans, bool timed)
{
    SpanScope passSpan(spans, "pass", "cells");
    const Topology topo = SimParams::scaled().topo;
    const double c0 = processCpu();
    std::unique_ptr<Workload> lu, fft;
    {
        SpanScope s(spans, "makeBenchmark", "LU");
        lu = makeBenchmark(BenchmarkName::LU, 1, topo);
    }
    {
        SpanScope s(spans, "makeBenchmark", "FFT");
        fft = makeBenchmark(BenchmarkName::FFT, 1, topo);
    }
    std::vector<SerialCell> plan;
    for (ProtocolName proto : {ProtocolName::MESI, ProtocolName::DeNovo}) {
        plan.push_back({proto, lu.get(), "LU"});
        plan.push_back({proto, fft.get(), "FFT"});
    }
    // The seed only orders the four cells (their inputs are the fixed
    // Table-4.2 generators the golden cache was made from).
    std::mt19937_64 rng(opt_.seed * 1000003 + pass);
    std::shuffle(plan.begin(), plan.end(), rng);

    Pass p = runSerial(plan, c0, spans, timed);
    if (timed) {
        for (std::size_t i = 0; i < plan.size(); ++i)
            checkGolden(p.cells[i], plan[i].wl == lu.get()
                                        ? BenchmarkName::LU
                                        : BenchmarkName::FFT);
    }
    return p;
}

Pass
Bench::runSweep(SpanLog &spans, bool timed)
{
    Pass p;
    SpanScope passSpan(spans, "pass", "sweep");
    const std::string cachePath =
        opt_.outDir + "/sweep-" + std::to_string(::getpid()) + ".cache";

    const double c0 = processCpu();
    SweepSpec spec = SweepSpec::fullGrid(1, SimParams::scaled());
    CellCache cache;
    std::filesystem::remove(cachePath);
    std::vector<std::unique_ptr<Workload>> wls;
    for (BenchmarkName b : spec.benches) {
        SpanScope s(spans, "makeBenchmark", benchmarkName(b));
        wls.push_back(makeBenchmark(b, spec.scale, spec.topologies[0]));
    }
    p.genS = processCpu() - c0;

    std::vector<CellRun> cells(spec.numCells());
    Clock::time_point runStart;
    std::uint64_t sweepSpan = 0;
    SweepEngine engine(spec);
    engine.setAutosave(cachePath);
    const unsigned pass = ++sweepPass_;
    engine.setCompute([&, pass](const SweepSpec &sp, const SweepCell &cell) {
        // Each worker samples the reference loop before its first cell
        // of the pass and after every cell.
        thread_local unsigned samplePass = 0;
        thread_local double before = 0;
        double refCpu = 0;
        if (samplePass != pass) {
            samplePass = pass;
            before = sampleRef();
            refCpu += before;
        }
        const auto tc = Clock::now();
        const double cc = threadCpu();
        CellRun &c = cells[cell.benchIdx * sp.protocols.size() +
                           cell.protoIdx];
        c.proto = sp.protocols[cell.protoIdx];
        c.id = cellId(c.proto, benchmarkName(sp.benches[cell.benchIdx]));
        c.startS = std::chrono::duration<double>(tc - runStart).count();
        SpanScope cs(spans, "cell", c.id, sweepSpan);
        std::unique_ptr<System> sys;
        {
            SpanScope s(spans, "System", c.id);
            sys = std::make_unique<System>(
                c.proto, *wls[cell.benchIdx], sp.paramsFor(cell.topoIdx));
        }
        const double cr = threadCpu();
        c.buildS = cr - cc;
        {
            SpanScope s(spans, "System::run", c.id);
            c.r = sys->run();
        }
        c.runS = threadCpu() - cr;
        c.wallS = since(tc);
        const double after = sampleRef();
        c.scale = speedScale(before, after);
        c.refCpuS = refCpu + after;
        before = after;
        return c.r;
    });
    p.setupS = processCpu() - c0;
    if (!timed)
        return p;

    {
        SpanScope s(spans, "SweepEngine::run", "sweep");
        sweepSpan = s.id();
        runStart = Clock::now();
        const double cw = processCpu();
        engine.run(cache);
        p.cpuS = processCpu() - cw;
        p.wallS = since(runStart);
    }
    // The engine's own work outside the compute calls (queue, autosave)
    // goes at the cells' median speed.
    std::vector<double> scales;
    double residual = p.cpuS;
    for (const CellRun &c : cells) {
        p.cpuS -= c.refCpuS;
        residual -= c.refCpuS + c.buildS + c.runS;
        p.normS += c.normS();
        scales.push_back(c.scale);
    }
    p.normS += residual * median(scales);

    for (std::size_t b = 0; b < spec.benches.size(); ++b) {
        const std::uint64_t ops = opCount(*wls[b]);
        for (std::size_t q = 0; q < spec.protocols.size(); ++q)
            cells[b * spec.protocols.size() + q].ops = ops;
    }
    for (const CellRun &c : cells)
        p.buildS += c.buildS;
    p.cells = std::move(cells);
    {
        SpanScope s(spans, "check", "sweep");
        checkSweepCache(cachePath);
    }
    std::filesystem::remove(cachePath);
    attempted_ += p.cells.size();
    return p;
}

Pass
Bench::runStoreStream(unsigned pass, SpanLog &spans, bool timed)
{
    // A DRAM-bound private write stream: 64 KiB per core (1 MiB against
    // 512 KiB of scaled L2), stores only, no sharing, no think time.
    // Each pass draws its own stream from the run's seed: a single
    // stream's host time depends on its addresses by about 10%, and the
    // median over several streams keeps that out of the run-to-run
    // spread.
    SynthParams sp;
    sp.seed = opt_.seed * 0x9e3779b97f4a7c15ULL + pass;
    sp.pattern = SynthParams::Pattern::Random;
    sp.readFraction = 0;
    sp.sharedFraction = 0;
    sp.privateBytes = 64 * 1024;
    sp.opsPerCore = 640;
    sp.phases = 1;
    sp.workCycles = 0;

    SpanScope passSpan(spans, "pass", "store-stream");
    const double c0 = processCpu();
    std::unique_ptr<Workload> wl;
    {
        SpanScope s(spans, "makeSynthetic", "store-stream");
        wl = makeSynthetic(sp, SimParams::scaled().topo);
    }
    return runSerial({{ProtocolName::DeNovo, wl.get(), "store-stream"},
                      {ProtocolName::MESI, wl.get(), "store-stream"}},
                     c0, spans, timed);
}

Pass
Bench::runPass(unsigned pass, SpanLog &spans, bool timed)
{
    if (opt_.workload == "cells")
        return runCells(pass, spans, timed);
    if (opt_.workload == "sweep")
        return runSweep(spans, timed);
    return runStoreStream(pass, spans, timed);
}

/** Per-cell summary of normS() over @p passes. */
struct CellStats
{
    double p50 = 0;  //!< median over distinct cells of each cell's median
    double tail = 0; //!< highest nearest-rank percentile with >= 10
                     //!< samples beyond it (the maximum below 11 samples)
    double tailPct = 0;
    std::size_t n = 0;
};

CellStats
cellStats(const std::vector<const Pass *> &passes)
{
    std::map<std::string, std::vector<double>> byCell;
    std::vector<double> all;
    for (const Pass *p : passes) {
        for (const CellRun &c : p->cells) {
            byCell[c.id].push_back(c.normS());
            all.push_back(c.normS());
        }
    }
    CellStats s;
    std::vector<double> medians;
    for (auto &[id, v] : byCell)
        medians.push_back(median(v));
    s.p50 = median(medians);
    std::sort(all.begin(), all.end());
    s.n = all.size();
    if (s.n == 0)
        return s;
    const std::size_t k = s.n > 10 ? s.n - 11 : s.n - 1;
    s.tail = all[k];
    s.tailPct = 100.0 * (k + 1) / s.n;
    return s;
}

/** Median of @p field over @p passes. */
template <class Field>
double
medianOf(const std::vector<const Pass *> &passes, Field field)
{
    std::vector<double> v;
    for (const Pass *p : passes)
        v.push_back(field(*p));
    return median(v);
}

/** Thread CPU seconds of @p body, median over three repetitions. */
template <class Body>
double
medianSeconds(Body body)
{
    std::vector<double> v;
    for (int i = 0; i < 3; ++i) {
        const double c0 = threadCpu();
        body();
        v.push_back(threadCpu() - c0);
    }
    return median(v);
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        v = 0;
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
Bench::printResult(const Metrics &m, const std::string &details)
{
    std::string fails = "[";
    for (std::size_t i = 0; i < failures_.size(); ++i) {
        std::string esc;
        for (char ch : failures_[i]) {
            if (ch == '"' || ch == '\\')
                esc += '\\';
            esc += ch == '\n' ? ' ' : ch;
        }
        fails += (i ? ", \"" : "\"") + esc + "\"";
    }
    fails += "]";
    std::printf("{\"details\": {%s, \"failures\": %s}}\n", details.c_str(),
                fails.c_str());

    std::string out = "{\"correct\": ";
    out += failedCells_ == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failedCells_);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, vu] : m) {
        out += (first ? "\"" : ", \"") + name + "\": {\"value\": " +
               jsonNumber(vu.first) + ", \"unit\": \"" + vu.second + "\"}";
        first = false;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

int
Bench::run()
{
    if (!golden_.load(opt_.golden)) {
        std::fprintf(stderr, "perfbench: cannot load golden cache %s\n",
                     opt_.golden.c_str());
        return 2;
    }
    goldenBytes_ = readFile(opt_.golden);
    setSweepJobs(sweepJobs);

    const WorkloadDef *def = nullptr;
    for (const WorkloadDef &d : workloadDefs)
        if (opt_.workload == d.name)
            def = &d;
    const unsigned passes = std::max<unsigned>(
        def->minPasses,
        static_cast<unsigned>(std::lround(opt_.seconds / def->secondsPerPass)));
    // The traced run alternates untraced and traced passes, so it needs
    // at least one of each.
    const unsigned total = opt_.trace ? std::max(2u, passes) : passes;

    std::vector<Pass> all;
    for (unsigned i = 0; i < total; ++i) {
        // A traced run gives each traced pass the inputs of the untraced
        // pass before it, so trace.overhead_frac compares like with like.
        const bool traced = opt_.trace && i % 2 == 1;
        const unsigned input = opt_.trace ? i / 2 : i;
        all.push_back(runPass(input, traced ? on_ : off_, true));
        all.back().traced = traced;
    }

    // Set-ups whose cells are never run, back to back: the first few
    // after a pass run slower while the heap grows back to a set-up's
    // working size, so a pass's own set-up is not used.
    std::vector<double> setups, normSetups;
    double before = sampleRef();
    for (unsigned i = 0; i < numSetups; ++i) {
        setups.push_back(runPass(total + i, off_, false).setupS);
        const double after = sampleRef();
        normSetups.push_back(setups.back() * speedScale(before, after));
        before = after;
    }
    const double refS = median(refSamples_);
    const double speed = refNominalS / refS;

    std::vector<const Pass *> plain, traced;
    for (const Pass &p : all)
        (p.traced ? traced : plain).push_back(&p);

    const CellStats cs = cellStats(plain);
    Metrics m;
    std::string details;
    {
        char buf[1024];
        std::snprintf(buf, sizeof(buf),
                      "\"workload\": \"%s\", \"seed\": %llu, \"passes\": %u, "
                      "\"traced_passes\": %zu, \"cell_n\": %zu, "
                      "\"cell_tail_pct\": %.2f, \"sweep_jobs\": %u, "
                      "\"ref_s\": %.6f, \"host_speed\": %.4f, "
                      "\"compiler\": \"%s\", \"build_type\": \"%s\"",
                      opt_.workload.c_str(),
                      static_cast<unsigned long long>(opt_.seed), total,
                      traced.size(), cs.n, cs.tailPct, sweepJobs, refS,
                      speed, PERFBENCH_CXX_ID, PERFBENCH_BUILD_TYPE);
        details = buf;
        details += ", \"pass_cpu_s\": [";
        for (std::size_t i = 0; i < all.size(); ++i)
            details += (i ? ", " : "") + jsonNumber(all[i].cpuS);
        details += "], \"setup_cpu_s\": [";
        for (std::size_t i = 0; i < setups.size(); ++i)
            details += (i ? ", " : "") + jsonNumber(setups[i]);
        details += "], \"pass_wall_s\": [";
        for (std::size_t i = 0; i < all.size(); ++i)
            details += (i ? ", " : "") + jsonNumber(all[i].wallS);
        details += "]";
    }

    if (!opt_.trace) {
        struct rusage ru;
        getrusage(RUSAGE_SELF, &ru);
        m["cpu_s"] = {medianOf(plain, [](const Pass &p) { return p.normS; }),
                      "s"};
        m["setup_s"] = {median(normSetups), "s"};
        m["cell_p50_s"] = {cs.p50, "s"};
        m["cell_tail_s"] = {cs.tail, "s"};
        m["sim_ops_per_s"] = {
            medianOf(plain, [](const Pass &p) { return p.ops() / p.normS; }),
            "1/s"};
        m["peak_rss_mb"] = {ru.ru_maxrss / 1024.0, "MB"};
        printResult(m, details);
        return failedCells_ == 0 ? 0 : 1;
    }

    addLayerMetrics(m, plain, traced, details);
    printResult(m, details);
    return failedCells_ == 0 ? 0 : 1;
}

void
Bench::addLayerMetrics(Metrics &m, const std::vector<const Pass *> &plain,
                       const std::vector<const Pass *> &traced,
                       std::string &details)
{
    // Exact simulated counts come from the first traced pass (for
    // store-stream, the run's first stream); they repeat run to run.
    const Pass &tp = *traced.front();
    double events = 0, cycles = 0, messages = 0, flitHops = 0;
    double maxLink = 0, l1 = 0, l2 = 0, nacks = 0, recalls = 0;
    double selfInv = 0, bypass = 0, dramR = 0, dramW = 0, rowHits = 0;
    double queuePeak = 0, l1Waste = 0, l1Total = 0, memWaste = 0;
    double memTotal = 0;
    std::map<std::string, double> nacksBy, eventsBy;
    for (const CellRun &c : tp.cells) {
        const RunResult &r = c.r;
        events += r.eventsExecuted;
        cycles += r.cycles;
        messages += r.messages;
        flitHops += r.traffic.total();
        maxLink = std::max<double>(maxLink, r.maxLinkFlits);
        l1 += r.l1Accesses;
        l2 += r.l2Accesses;
        nacks += r.nacks;
        recalls += r.recalls;
        selfInv += r.selfInvalidations;
        bypass += r.bypassDirect;
        dramR += r.dramReads;
        dramW += r.dramWrites;
        rowHits += r.dramRowHits;
        for (const auto &ch : r.dramChan)
            queuePeak = std::max<double>(queuePeak, ch.queuePeak);
        l1Waste += r.l1Waste.waste();
        l1Total += r.l1Waste.total();
        memWaste += r.memWaste.waste();
        memTotal += r.memWaste.total();
        nacksBy[protocolName(c.proto)] += r.nacks;
        eventsBy[protocolName(c.proto)] += r.eventsExecuted;
    }
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

    // Host-time layer figures come from the untraced passes, like the
    // end-to-end metrics they explain.  They are CPU seconds, except the
    // sweep's scheduling figures and host.wall_s, which are about the
    // wall clock.
    std::map<std::string, double> runBy;
    double runS = 0, cellSum = 0, waitSum = 0;
    std::size_t cellCount = 0;
    for (const Pass *p : plain) {
        for (const CellRun &c : p->cells) {
            runBy[protocolName(c.proto)] += c.runS / plain.size();
            runS += c.runS / plain.size();
            cellSum += c.wallS / plain.size();
            waitSum += c.startS;
            ++cellCount;
        }
    }
    const double wall =
        medianOf(plain, [](const Pass &p) { return p.wallS; });
    const double norm =
        medianOf(plain, [](const Pass &p) { return p.normS; });
    const double tracedNorm =
        medianOf(traced, [](const Pass &p) { return p.normS; });
    const bool isSweep = opt_.workload == "sweep";

    m["sim.events"] = {events, "count"};
    m["sim.events.MESI"] = {eventsBy["MESI"], "count"};
    m["sim.events.DeNovo"] = {eventsBy["DeNovo"], "count"};
    m["sim.cycles"] = {cycles, "cycles"};
    m["sim.ns_per_event"] = {ratio(runS, events) * 1e9, "ns"};
    m["noc.messages"] = {messages, "count"};
    m["noc.flit_hops"] = {flitHops, "flit-hops"};
    m["noc.max_link_flits"] = {maxLink, "flits"};
    m["protocol.l1_accesses"] = {l1, "count"};
    m["protocol.l2_accesses"] = {l2, "count"};
    m["protocol.nacks"] = {nacks, "count"};
    m["protocol.nacks.MESI"] = {nacksBy["MESI"], "count"};
    m["protocol.nacks.DeNovo"] = {nacksBy["DeNovo"], "count"};
    m["protocol.nacks_per_l2_access"] = {ratio(nacks, l2), "ratio"};
    m["protocol.recalls"] = {recalls, "count"};
    m["protocol.self_invalidations"] = {selfInv, "count"};
    m["protocol.bypass_direct"] = {bypass, "count"};
    m["dram.reads"] = {dramR, "count"};
    m["dram.writes"] = {dramW, "count"};
    m["dram.row_hit_ratio"] = {ratio(rowHits, dramR + dramW), "ratio"};
    m["dram.queue_peak"] = {queuePeak, "count"};
    m["profile.l1_waste_frac"] = {ratio(l1Waste, l1Total), "ratio"};
    m["profile.mem_waste_frac"] = {ratio(memWaste, memTotal), "ratio"};
    m["workload.gen_s"] = {
        medianOf(plain, [](const Pass &p) { return p.genS; }), "s"};
    m["system.build_s"] = {
        medianOf(plain, [](const Pass &p) { return p.buildS; }), "s"};
    m["system.run_s"] = {runS, "s"};
    m["system.run_s.MESI"] = {runBy["MESI"], "s"};
    m["system.run_s.DeNovo"] = {runBy["DeNovo"], "s"};
    m["sweep.cell_s"] = {isSweep ? cellSum : 0, "s"};
    m["sweep.queue_wait_s"] = {
        isSweep ? ratio(waitSum, static_cast<double>(cellCount)) : 0, "s"};
    m["sweep.idle_s"] = {isSweep ? sweepJobs * wall - cellSum : 0, "s"};
    m["host.wall_s"] = {wall, "s"};
    m["trace.overhead_frac"] = {ratio(tracedNorm, norm) - 1, "ratio"};

    // Cell-cache I/O and figure rendering on the golden cache.
    const std::string copyPath =
        opt_.outDir + "/golden-copy-" + std::to_string(::getpid()) + ".cache";
    m["cellcache.load_s"] = {medianSeconds([&] {
                                 SpanScope s(on_, "CellCache::load", "golden");
                                 CellCache c;
                                 c.load(opt_.golden);
                             }),
                             "s"};
    m["cellcache.save_s"] = {medianSeconds([&] {
                                 SpanScope s(on_, "CellCache::save", "golden");
                                 golden_.save(copyPath);
                             }),
                             "s"};
    std::filesystem::remove(copyPath);
    std::vector<Sweep> sweeps;
    {
        CellCache served = golden_;
        SweepEngine engine(spec_);
        sweeps = engine.run(served);
        if (engine.cellsHit() != spec_.numCells()) {
            CellRun c;
            c.id = "report";
            fail(c, "golden cache does not cover the 54-cell grid");
        }
    }
    std::size_t rendered = 0;
    m["report.render_s"] = {
        medianSeconds([&] {
            rendered = 0;
            for (const std::string &name : reportNames()) {
                SpanScope s(on_, "buildReport", name);
                Figure f;
                if (buildReportByName(name, sweeps[0], spec_.topologies[0], f))
                    rendered += renderFigure(f).size();
            }
        }),
        "s"};

    // Isolated layer drivers.
    auto layer = [&](const char *name, double (*fn)()) {
        SpanScope s(on_, name, "layer");
        return fn();
    };
    m["sim.eq_mevents_per_s"] = {
        layer("EventQueue", perfbench::eventQueueMEventsPerS), "Mevents/s"};
    m["noc.send_mmsgs_per_s"] = {
        layer("Network::send", perfbench::networkSendMMsgsPerS), "Mmsgs/s"};
    m["cache.lookup_mops_per_s"] = {
        layer("CacheArray::find", perfbench::cacheLookupMOpsPerS), "Mops/s"};
    m["bloom.mops_per_s"] = {layer("BloomBank", perfbench::bloomMOpsPerS),
                             "Mops/s"};
    m["dram.write_stream_mreqs_per_s"] = {
        layer("DramChannel.write", perfbench::dramWriteStreamMReqsPerS),
        "Mreqs/s"};
    m["dram.read_random_mreqs_per_s"] = {
        layer("DramChannel.read", perfbench::dramReadRandomMReqsPerS),
        "Mreqs/s"};
    m["profile.word_mops_per_s"] = {
        layer("WordProfiler", perfbench::wordProfilerMOpsPerS), "Mops/s"};
    m["profile.mem_mops_per_s"] = {
        layer("MemProfiler", perfbench::memProfilerMOpsPerS), "Mops/s"};

    // Per-cell counts of the traced pass, for the record.
    for (const CellRun &c : tp.cells)
        std::printf("cell %-24s events %10llu nacks %9llu messages %10llu "
                    "run_s %.4f\n",
                    c.id.c_str(),
                    static_cast<unsigned long long>(c.r.eventsExecuted),
                    static_cast<unsigned long long>(c.r.nacks),
                    static_cast<unsigned long long>(c.r.messages), c.runS);

    const std::string spansPath = opt_.outDir + "/spans-" + opt_.workload +
                                  "-seed" + std::to_string(opt_.seed) +
                                  ".json";
    if (!on_.write(spansPath))
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     spansPath.c_str());
    details += ", \"spans_file\": \"" + spansPath + "\", \"figure_bytes\": " +
               std::to_string(rendered);
}

/** Write a copy of the golden cache with one cell's result altered (and
 *  its CRC recomputed by CellCache), for the gate's self-test. */
int
tamperGolden(const Options &opt)
{
    CellCache c;
    if (!c.load(opt.golden)) {
        std::fprintf(stderr, "perfbench: cannot load %s\n", opt.golden.c_str());
        return 2;
    }
    const std::string key =
        cellKeyOf(SweepSpec::fullGrid(1, SimParams::scaled()),
                  ProtocolName::MESI, BenchmarkName::LU);
    RunResult r;
    if (!c.get(key, r))
        return 2;
    ++r.cycles;
    c.put(key, r);
    return c.save(opt.tamperOut) ? 0 : 2;
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload cells|sweep|store-stream "
                 "--golden CACHE [--seed N] [--seconds S] [--trace 0|1] "
                 "[--out DIR]\n"
                 "       perfbench --golden CACHE --tamper-golden OUT\n");
}

} // namespace

int
main(int argc, char **argv)
{
    // A fixed allocator policy: glibc's default moves its mmap threshold
    // with the sizes freed so far and hands the top of the heap back to
    // the kernel, so whether a set-up or a cell pays for fresh pages
    // would depend on the run's allocation history.  Here blocks up to
    // 32 MiB come from the heap, which is never trimmed.
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 1 << 30);
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc) {
            usage();
            return 2;
        }
        const std::string v = argv[++i];
        if (a == "--workload")
            opt.workload = v;
        else if (a == "--seed")
            opt.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (a == "--seconds")
            opt.seconds = std::strtod(v.c_str(), nullptr);
        else if (a == "--trace")
            opt.trace = v == "1";
        else if (a == "--golden")
            opt.golden = v;
        else if (a == "--out")
            opt.outDir = v;
        else if (a == "--tamper-golden")
            opt.tamperOut = v;
        else {
            usage();
            return 2;
        }
    }
    if (opt.golden.empty()) {
        usage();
        return 2;
    }
    if (!opt.tamperOut.empty())
        return tamperGolden(opt);
    bool known = false;
    for (const WorkloadDef &d : workloadDefs)
        known = known || opt.workload == d.name;
    if (!known || !(opt.seconds > 0)) {
        usage();
        return 2;
    }
    return Bench(opt).run();
}
