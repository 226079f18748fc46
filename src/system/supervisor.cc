#include "system/supervisor.hh"

#include <csignal>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>

#include "common/crc32.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "obs/debug.hh"
#include "obs/timeline.hh"

namespace wastesim
{

namespace
{

constexpr const char *workerOutputMagic = "wastesim-cell-v1";

std::uint64_t
fnv1a64(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

/** Seed for the per-(cell, attempt) deterministic draws. */
std::uint64_t
mixSeed(std::uint64_t seed, const std::string &cell_id,
        unsigned attempt)
{
    return fnv1a64(cell_id) ^ (seed * 0x9e3779b97f4a7c15ULL) ^
           (static_cast<std::uint64_t>(attempt) *
            0xbf58476d1ce4e5b9ULL);
}

std::string
waitReason(int status)
{
    char buf[64];
    if (WIFEXITED(status)) {
        std::snprintf(buf, sizeof(buf), "exit %d",
                      WEXITSTATUS(status));
    } else if (WIFSIGNALED(status)) {
        const int sig = WTERMSIG(status);
        std::snprintf(buf, sizeof(buf), "signal %d (%s)", sig,
                      strsignal(sig));
    } else {
        std::snprintf(buf, sizeof(buf), "wait status 0x%x", status);
    }
    return buf;
}

volatile std::sig_atomic_t g_drainRequests = 0;

void
drainHandler(int)
{
    if (g_drainRequests < 127)
        g_drainRequests = g_drainRequests + 1;
}

} // namespace

void
installDrainHandlers()
{
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = drainHandler;
    sigemptyset(&sa.sa_mask);
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);
}

int
drainRequestCount()
{
    return g_drainRequests;
}

// --- FaultSpec --------------------------------------------------------------

std::string
FaultSpec::describe() const
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "crash:%g,hang:%g,corrupt:%g",
                  crash, hang, corrupt);
    return buf;
}

std::string
describeWaitStatus(int status)
{
    return waitReason(status);
}

bool
FaultSpec::parse(const std::string &spec, FaultSpec &out,
                 std::string *err)
{
    FaultSpec f;
    bool seen_crash = false, seen_hang = false, seen_corrupt = false;
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string item = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (item.empty())
            continue;
        const std::size_t colon = item.find(':');
        if (colon == std::string::npos) {
            if (err)
                *err = "fault spec item '" + item +
                       "' is not NAME:PROB";
            return false;
        }
        const std::string name = item.substr(0, colon);
        const std::string pstr = item.substr(colon + 1);
        char *end = nullptr;
        const double p = std::strtod(pstr.c_str(), &end);
        // Negated >=/<= form so NaN is rejected too, and an explicit
        // empty check: strtod("") "consumes" the whole empty string,
        // which the end-pointer test alone would accept as 0.
        if (pstr.empty() || end != pstr.c_str() + pstr.size() ||
            !(p >= 0 && p <= 1)) {
            if (err)
                *err = "fault probability '" + pstr +
                       "' is not in [0, 1]";
            return false;
        }
        bool *seen = nullptr;
        if (name == "crash") {
            f.crash = p;
            seen = &seen_crash;
        } else if (name == "hang") {
            f.hang = p;
            seen = &seen_hang;
        } else if (name == "corrupt") {
            f.corrupt = p;
            seen = &seen_corrupt;
        } else {
            if (err)
                *err = "unknown fault kind '" + name +
                       "' (crash, hang, corrupt)";
            return false;
        }
        if (*seen) {
            if (err)
                *err = "duplicate fault kind '" + name + "'";
            return false;
        }
        *seen = true;
    }
    if (f.crash + f.hang + f.corrupt > 1.0) {
        if (err)
            *err = "fault probabilities sum to more than 1";
        return false;
    }
    out = f;
    return true;
}

FaultKind
faultDraw(const FaultSpec &faults, std::uint64_t seed,
          const std::string &cell_id, unsigned attempt)
{
    if (!faults.any())
        return FaultKind::None;
    Rng rng(mixSeed(seed, cell_id, attempt));
    const double u = rng.real();
    if (u < faults.crash) {
        // The crash flavor varies deterministically so every kill
        // path (signal death, kill -9, spurious exit) gets exercised.
        switch (rng.below(3)) {
          case 0:
            return FaultKind::CrashSegv;
          case 1:
            return FaultKind::CrashKill;
          default:
            return FaultKind::CrashExit;
        }
    }
    if (u < faults.crash + faults.hang)
        return FaultKind::Hang;
    if (u < faults.crash + faults.hang + faults.corrupt)
        return FaultKind::Corrupt;
    return FaultKind::None;
}

// --- worker hand-off --------------------------------------------------------

std::string
formatWorkerOutput(const std::string &cell_id, const RunResult &r)
{
    std::string payload = cell_id + "\n";
    {
        std::ostringstream os;
        os.precision(17);
        writeRunResult(os, r);
        payload += os.str();
    }
    char head[64];
    std::snprintf(head, sizeof(head), "%s %08x %zu\n",
                  workerOutputMagic, crc32(payload), payload.size());
    return head + payload;
}

void
corruptWorkerOutput(std::string &file_bytes, std::uint64_t seed,
                    unsigned attempt)
{
    const std::size_t hdr = file_bytes.find('\n');
    if (hdr == std::string::npos || hdr + 1 >= file_bytes.size())
        return;
    const std::size_t base = hdr + 1;
    const std::size_t span = file_bytes.size() - base;
    Rng rng(mixSeed(seed ^ 0xC02259F7u, "corrupt", attempt));
    const unsigned flips = 1 + static_cast<unsigned>(rng.below(4));
    // Any payload flip breaks the header CRC; XOR is never a no-op.
    for (unsigned i = 0; i < flips; ++i)
        file_bytes[base + rng.below(span)] ^=
            static_cast<char>(0xA5);
}

bool
parseWorkerOutput(const std::string &path,
                  const std::string &expect_cell_id, RunResult &out,
                  std::string *err)
{
    auto fail = [&](const std::string &why) {
        if (err)
            *err = why;
        return false;
    };
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return fail("missing output file");
    std::string head;
    std::getline(is, head);
    std::string magic;
    std::uint32_t want_crc = 0;
    std::size_t nbytes = 0;
    {
        std::istringstream hs(head);
        hs >> magic >> std::hex >> want_crc >> std::dec >> nbytes;
        if (!hs || magic != workerOutputMagic || nbytes == 0 ||
            nbytes > (1u << 22))
            return fail("malformed output header '" + head + "'");
    }
    std::string payload(nbytes, '\0');
    is.read(payload.data(), static_cast<std::streamsize>(nbytes));
    if (static_cast<std::size_t>(is.gcount()) != nbytes)
        return fail("truncated output (" +
                    std::to_string(is.gcount()) + " of " +
                    std::to_string(nbytes) + " bytes)");
    const std::uint32_t got_crc = crc32(payload);
    if (got_crc != want_crc) {
        char buf[80];
        std::snprintf(buf, sizeof(buf),
                      "checksum mismatch (stored %08x, computed %08x)",
                      want_crc, got_crc);
        return fail(buf);
    }
    const std::size_t nl = payload.find('\n');
    if (nl == std::string::npos)
        return fail("output payload has no cell key line");
    const std::string id = payload.substr(0, nl);
    if (id != expect_cell_id)
        return fail("output is for cell '" + id + "', expected '" +
                    expect_cell_id + "'");
    std::istringstream bs(payload.substr(nl + 1));
    if (!readRunResult(bs, out))
        return fail("unparseable result block");
    return true;
}

// --- SweepSupervisor --------------------------------------------------------

SweepSupervisor::SweepSupervisor(SweepSpec spec, SupervisorConfig cfg)
    : spec_(std::move(spec)), cfg_(std::move(cfg))
{
    fatal_if(spec_.topologies.empty(),
             "supervisor: at least one topology is required");
    fatal_if(spec_.benches.empty() || spec_.protocols.empty(),
             "supervisor: empty benchmark or protocol list");
    fatal_if(cfg_.workers == 0, "supervisor: needs at least 1 worker");
    fatal_if(cfg_.numShards == 0 || cfg_.shard >= cfg_.numShards,
             "supervisor: shard %u/%u is not a valid slice",
             cfg_.shard, cfg_.numShards);
    if (cfg_.program.empty()) {
        // Re-exec ourselves: the worker binary is this binary.
        char buf[4096];
        const ssize_t n =
            ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
        fatal_if(n <= 0,
                 "supervisor: cannot resolve /proc/self/exe; pass an "
                 "explicit worker program");
        buf[n] = '\0';
        cfg_.program = buf;
    }
}

std::vector<Sweep>
SweepSupervisor::run(CellCache &cache)
{
    using clock = std::chrono::steady_clock;
    const std::size_t num_benches = spec_.benches.size();
    const std::size_t num_protos = spec_.protocols.size();
    const std::size_t num_topos = spec_.topologies.size();

    std::vector<Sweep> sweeps(num_topos);
    for (std::size_t t = 0; t < num_topos; ++t) {
        Sweep &s = sweeps[t];
        for (BenchmarkName b : spec_.benches)
            s.benchNames.emplace_back(benchmarkName(b));
        for (ProtocolName p : spec_.protocols)
            s.protoNames.emplace_back(protocolName(p));
        s.results.assign(num_benches,
                         std::vector<RunResult>(num_protos));
        s.holes.assign(num_benches,
                       std::vector<std::string>(num_protos));
    }

    const bool want_timeline = !cfg_.timelinePath.empty();
    Timeline timeline;
    const auto t0 = clock::now();
    auto now_us = [&t0] {
        return std::chrono::duration<double, std::micro>(
                   clock::now() - t0)
            .count();
    };
    auto cell_label = [&](const SweepCell &c) {
        return std::string(protocolName(spec_.protocols[c.protoIdx])) +
               "/" + benchmarkName(spec_.benches[c.benchIdx]) + "@" +
               spec_.topologies[c.topoIdx].describe();
    };
    if (want_timeline) {
        timeline.threadName(1, 999, "cache");
        for (unsigned w = 0; w < cfg_.workers; ++w)
            timeline.threadName(1, w, "worker " + std::to_string(w));
    }

    // Serve hits and honor quarantine records, exactly like the
    // threaded engine; only the misses go to worker processes.
    std::vector<std::size_t> owned;
    {
        const std::size_t n = spec_.numCells();
        for (std::size_t i = cfg_.shard; i < n; i += cfg_.numShards)
            owned.push_back(i);
    }
    statTotal_ = owned.size();
    statHit_ = statComputed_ = statQuarantined_ = 0;
    statRetries_ = statKills_ = 0;
    interrupted_ = false;

    std::vector<std::size_t> pending;
    for (std::size_t flat : owned) {
        const SweepCell c = spec_.cellAt(flat);
        const std::string key = spec_.cellKey(c);
        RunResult &slot =
            sweeps[c.topoIdx].results[c.benchIdx][c.protoIdx];
        CellFailure cf;
        if (cache.get(key, slot)) {
            ++statHit_;
            if (want_timeline)
                timeline.instant("sweep", "hit " + cell_label(c),
                                 now_us(), 1, 999);
        } else if (!cfg_.retryQuarantined &&
                   cache.isQuarantined(key, &cf)) {
            ++statQuarantined_;
            sweeps[c.topoIdx].holes[c.benchIdx][c.protoIdx] =
                cf.reason;
            warn("cell '%s' is quarantined (%u attempts; %s); "
                 "rendering it as a hole — retry-quarantined "
                 "recomputes it",
                 key.c_str(), cf.attempts, cf.reason.c_str());
        } else {
            pending.push_back(flat);
        }
    }
    DPRINTF_NT(Supervisor,
               "%zu cells: %zu cached, %zu quarantined, %zu to run "
               "on %u workers",
               statTotal_, statHit_, statQuarantined_, pending.size(),
               cfg_.workers);

    auto save_timeline = [&] {
        if (want_timeline && !timeline.save(cfg_.timelinePath))
            warn("cannot write sweep timeline '%s'",
                 cfg_.timelinePath.c_str());
    };
    if (pending.empty()) {
        save_timeline();
        return sweeps;
    }

    // Biggest meshes first, same rationale as the engine.
    std::stable_sort(pending.begin(), pending.end(),
                     [&](std::size_t a, std::size_t b) {
                         return spec_.topologies[spec_.cellAt(a)
                                                     .topoIdx]
                                    .numTiles() >
                                spec_.topologies[spec_.cellAt(b)
                                                     .topoIdx]
                                    .numTiles();
                     });

    struct Task
    {
        std::size_t flat = 0;
        unsigned attempt = 0; //!< 0-based attempt index
    };
    struct Slot
    {
        bool busy = false;
        pid_t pid = -1;
        Task task;
        clock::time_point start;
        std::string outPath;
        std::string killReason;
    };

    std::deque<Task> ready;
    for (std::size_t flat : pending)
        ready.push_back(Task{flat, 0});
    std::deque<std::pair<clock::time_point, Task>> delayed;
    std::vector<Slot> slots(cfg_.workers);
    std::vector<double> durationsMs;
    std::size_t remainingCells = pending.size();
    bool autosaveWarned = false;

    auto autosave = [&] {
        if (cfg_.autosavePath.empty())
            return;
        if (!cache.saveAtomic(cfg_.autosavePath) && !autosaveWarned) {
            autosaveWarned = true;
            warn("could not autosave sweep cache to %s",
                 cfg_.autosavePath.c_str());
        }
    };

    auto backoffDelayMs = [&](const std::string &key,
                              unsigned failed_attempt) {
        const unsigned exp = std::min(failed_attempt, 6u);
        const double base = static_cast<double>(cfg_.backoffBaseMs) *
                            static_cast<double>(1u << exp);
        // Deterministic jitter in [0.5, 1.5): spreads retry bursts
        // without making reruns behave differently.
        Rng rng(mixSeed(cfg_.faultSeed ^ 0xB0FF5EEDu, key,
                        failed_attempt));
        return static_cast<std::uint64_t>(
            std::max(1.0, base * (0.5 + rng.real())));
    };

    // The per-cell hard deadline: explicit wins; otherwise adapt to
    // 4x the median completed cell once three cells finished — the
    // PR 6 stall warning threshold, promoted to a kill.
    auto deadlineMsNow = [&]() -> double {
        if (cfg_.deadlineMs > 0)
            return cfg_.deadlineMs;
        if (durationsMs.size() < 3)
            return std::numeric_limits<double>::infinity();
        std::vector<double> d = durationsMs;
        const std::size_t mid = d.size() / 2;
        std::nth_element(d.begin(), d.begin() + mid, d.end());
        return std::max<double>(cfg_.stallKillFactor * d[mid],
                                cfg_.minAdaptiveDeadlineMs);
    };

    auto spawn = [&](Slot &slot, unsigned slot_idx, const Task &t) {
        const SweepCell c = spec_.cellAt(t.flat);
        const Topology &topo = spec_.topologies[c.topoIdx];
        slot.outPath = ".wastesim_cell." +
                       std::to_string(::getpid()) + "." +
                       std::to_string(t.flat) + "." +
                       std::to_string(t.attempt) + ".tmp";
        std::remove(slot.outPath.c_str());

        std::string tiles;
        for (NodeId n : topo.memCtrlTiles()) {
            if (!tiles.empty())
                tiles += ",";
            tiles += std::to_string(n);
        }
        std::vector<std::string> args{
            cfg_.program,
            "cell",
            "--mesh",
            std::to_string(topo.meshX()) + "x" +
                std::to_string(topo.meshY()),
            "--mc-tiles",
            tiles,
            "--bench",
            benchmarkName(spec_.benches[c.benchIdx]),
            "--protocol",
            protocolName(spec_.protocols[c.protoIdx]),
            "--out",
            slot.outPath,
        };
        args.insert(args.end(), cfg_.workerParamArgs.begin(),
                    cfg_.workerParamArgs.end());
        if (cfg_.faults.any()) {
            args.push_back("--fault-inject");
            args.push_back(cfg_.faults.describe());
            args.push_back("--fault-seed");
            args.push_back(std::to_string(cfg_.faultSeed));
            args.push_back("--fault-attempt");
            args.push_back(std::to_string(t.attempt));
        }
        std::vector<char *> argv;
        argv.reserve(args.size() + 1);
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);

        const pid_t pid = ::fork();
        fatal_if(pid < 0, "supervisor: fork failed: %s",
                 std::strerror(errno));
        if (pid == 0) {
            ::execv(argv[0], argv.data());
            std::fprintf(stderr,
                         "supervisor worker: cannot exec %s: %s\n",
                         argv[0], std::strerror(errno));
            ::_exit(127);
        }
        slot.busy = true;
        slot.pid = pid;
        slot.task = t;
        slot.start = clock::now();
        slot.killReason.clear();
        inform("worker %u: running %s (attempt %u, pid %d)", slot_idx,
               cell_label(c).c_str(), t.attempt + 1,
               static_cast<int>(pid));
        DPRINTF_NT(Supervisor, "spawn pid %d slot %u attempt %u: %s",
                   static_cast<int>(pid), slot_idx, t.attempt + 1,
                   cell_label(c).c_str());
    };

    auto onFailure = [&](const Task &t, const std::string &reason,
                         unsigned slot_idx) {
        const SweepCell c = spec_.cellAt(t.flat);
        const std::string key = spec_.cellKey(c);
        if (t.attempt < cfg_.maxRetries) {
            ++statRetries_;
            const std::uint64_t delay =
                backoffDelayMs(key, t.attempt);
            warn("cell '%s' attempt %u/%u failed (%s); retrying in "
                 "%llu ms",
                 key.c_str(), t.attempt + 1, cfg_.maxRetries + 1,
                 reason.c_str(),
                 static_cast<unsigned long long>(delay));
            delayed.emplace_back(
                clock::now() + std::chrono::milliseconds(delay),
                Task{t.flat, t.attempt + 1});
            if (want_timeline)
                timeline.instant("sweep",
                                 "retry " + cell_label(c) + " (" +
                                     reason + ")",
                                 now_us(), 1, slot_idx);
        } else {
            const unsigned attempts = t.attempt + 1;
            cache.quarantine(key, attempts, reason);
            sweeps[c.topoIdx].holes[c.benchIdx][c.protoIdx] = reason;
            ++statQuarantined_;
            --remainingCells;
            warn("cell '%s' QUARANTINED after %u attempts (last "
                 "failure: %s); reports will render it as a hole",
                 key.c_str(), attempts, reason.c_str());
            if (want_timeline)
                timeline.instant("sweep",
                                 "quarantine " + cell_label(c) + " (" +
                                     reason + ")",
                                 now_us(), 1, slot_idx);
            autosave();
        }
    };

    auto onSuccess = [&](const Task &t, const RunResult &r,
                         double start_us, unsigned slot_idx) {
        const SweepCell c = spec_.cellAt(t.flat);
        sweeps[c.topoIdx].results[c.benchIdx][c.protoIdx] = r;
        sweeps[c.topoIdx].holes[c.benchIdx][c.protoIdx].clear();
        cache.put(spec_.cellKey(c), r);
        ++statComputed_;
        --remainingCells;
        const double end_us = now_us();
        durationsMs.push_back((end_us - start_us) / 1e3);
        if (want_timeline)
            timeline.complete("sweep", cell_label(c), start_us,
                              end_us - start_us, 1, slot_idx);
        DPRINTF_NT(Supervisor, "slot %u finished %s in %.1f ms",
                   slot_idx, cell_label(c).c_str(),
                   (end_us - start_us) / 1e3);
        autosave();
    };

    auto lastBeat = clock::now();
    while (remainingCells > 0) {
        const int drain = drainRequestCount();
        if (drain >= 2) {
            // Second signal: stop now.  SIGKILL every worker and reap
            // so no zombies outlive us; completed cells are on disk.
            for (Slot &s : slots) {
                if (!s.busy)
                    continue;
                ::kill(s.pid, SIGKILL);
                int status = 0;
                ::waitpid(s.pid, &status, 0);
                std::remove(s.outPath.c_str());
                s.busy = false;
            }
            interrupted_ = true;
            break;
        }

        const auto now = clock::now();
        while (!delayed.empty() && delayed.front().first <= now) {
            ready.push_back(delayed.front().second);
            delayed.pop_front();
        }

        unsigned busy = 0;
        for (unsigned i = 0; i < slots.size(); ++i) {
            Slot &s = slots[i];
            if (!s.busy && drain == 0 && !ready.empty()) {
                spawn(s, i, ready.front());
                ready.pop_front();
            }
            if (s.busy)
                ++busy;
        }
        if (busy == 0) {
            if (drain > 0) {
                // Drained: nothing in flight, nothing may start.
                interrupted_ = true;
                break;
            }
            if (ready.empty() && !delayed.empty()) {
                // Everything is backing off; sleep to the next retry.
                std::this_thread::sleep_until(delayed.front().first);
                continue;
            }
        }

        bool reaped = false;
        for (unsigned i = 0; i < slots.size(); ++i) {
            Slot &s = slots[i];
            if (!s.busy)
                continue;
            int status = 0;
            const pid_t got = ::waitpid(s.pid, &status, WNOHANG);
            if (got == 0) {
                // Still running: enforce the deadline.
                const double run_ms =
                    std::chrono::duration<double, std::milli>(
                        clock::now() - s.start)
                        .count();
                const double limit = deadlineMsNow();
                if (run_ms > limit && s.killReason.empty()) {
                    char buf[96];
                    std::snprintf(buf, sizeof(buf),
                                  "deadline exceeded (ran %.1f s, "
                                  "limit %.1f s)",
                                  run_ms / 1e3, limit / 1e3);
                    s.killReason = buf;
                    ++statKills_;
                    warn("cell '%s' %s: killing pid %d",
                         spec_.cellKey(spec_.cellAt(s.task.flat))
                             .c_str(),
                         buf, static_cast<int>(s.pid));
                    ::kill(s.pid, SIGKILL);
                }
                continue;
            }
            if (got != s.pid)
                continue;
            reaped = true;
            s.busy = false;
            const double start_us =
                std::chrono::duration<double, std::micro>(s.start -
                                                          t0)
                    .count();
            if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
                RunResult r;
                std::string err;
                const std::string key =
                    spec_.cellKey(spec_.cellAt(s.task.flat));
                if (parseWorkerOutput(s.outPath, key, r, &err))
                    onSuccess(s.task, r, start_us, i);
                else
                    onFailure(s.task, "corrupt output: " + err, i);
            } else {
                onFailure(s.task,
                          s.killReason.empty() ? waitReason(status)
                                               : s.killReason,
                          i);
            }
            std::remove(s.outPath.c_str());
        }

        if (cfg_.progressMs != 0 &&
            std::chrono::duration<double, std::milli>(clock::now() -
                                                      lastBeat)
                    .count() >= cfg_.progressMs) {
            lastBeat = clock::now();
            std::fprintf(stderr,
                         "supervise: %zu/%zu cells done (%zu hit, "
                         "%zu computed, %zu quarantined), %u "
                         "running, %zu retries, %zu deadline kills\n",
                         statTotal_ - remainingCells, statTotal_,
                         statHit_, statComputed_, statQuarantined_,
                         busy, statRetries_, statKills_);
        }

        if (!reaped)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(15));
    }

    save_timeline();
    return sweeps;
}

} // namespace wastesim
