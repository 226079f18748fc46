/**
 * @file
 * Host speed reference: a fixed loop that uses no simulator code, timed
 * on the measuring thread around every timed interval, so the interval's
 * time can be put in units of the host's speed at that moment.
 */

#ifndef PERFBENCH_CALIB_HH
#define PERFBENCH_CALIB_HH

namespace perfbench
{

/**
 * Thread CPU seconds of one run of the reference loop: a discrete-event
 * mix like the simulator's (a 4096-entry binary heap of timed actors,
 * each event reading and writing a random word of a 1 MiB table), about
 * 15 ms on a current Xeon core.  The loop is part of the benchmark, not
 * of the program, so it does the same work at every commit.
 */
double referenceLoopSeconds();

} // namespace perfbench

#endif // PERFBENCH_CALIB_HH
