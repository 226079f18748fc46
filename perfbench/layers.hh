/**
 * @file
 * Isolated layer drivers: each one exercises a single simulator layer
 * through its public interface, with no System around it, and reports
 * host throughput.  Every driver repeats its loop and returns the
 * median rate, in millions of operations per host second.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

namespace perfbench
{

/** Event queue: bench_kernel's micro mix (4096 self-rescheduling
 *  actors cycling the simulator's delay mix), 20M events, so the
 *  figure continues the BENCH_kernel.json history.  Mevents/s. */
double eventQueueMEventsPerS();

/** Network::send + delivery of a control/data message mix across the
 *  4x4 mesh.  Mmsgs/s. */
double networkSendMMsgsPerS();

/** CacheArray::find on the scaled L2 slice geometry, half hits and
 *  half misses.  Mlookups/s. */
double cacheLookupMOpsPerS();

/** BloomBank insert + query + remove.  Mops/s (each call one op). */
double bloomMOpsPerS();

/** DramChannel: a sequential write stream.  Mreqs/s. */
double dramWriteStreamMReqsPerS();

/** DramChannel: uniformly random line reads.  Mreqs/s. */
double dramReadRandomMReqsPerS();

/** WordProfiler arrive/load/store/evict mix.  Mops/s. */
double wordProfilerMOpsPerS();

/** MemProfiler create/addRef/used/dropRef mix.  Mops/s. */
double memProfilerMOpsPerS();

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
