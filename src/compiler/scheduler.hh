/**
 * @file
 * Local list scheduler for in-order superscalar targets.
 *
 * Reorders each basic block's body (the terminator stays last) to
 * minimize in-order issue stalls: long-latency producers (loads, MUL,
 * FP) are moved as early as dependences allow so their latencies
 * overlap with independent work — the compiler half of the paper's
 * "code generated schedules" story. The Decomposed Branch
 * Transformation creates the *blocks* in which this scheduler can
 * finally overlap load latencies across what used to be a branch.
 *
 * Dependences honored: register RAW/WAR/WAW; loads may reorder with
 * loads but never with stores; stores never reorder with each other.
 * Resources are not modelled: the order is critical-path-first over
 * the dependence DAG alone, independent of issue width and FU ports.
 */

#ifndef VANGUARD_COMPILER_SCHEDULER_HH
#define VANGUARD_COMPILER_SCHEDULER_HH

#include "ir/function.hh"

namespace vanguard {

/** Schedule one block's body in place. Returns true if reordered. */
bool scheduleBlock(BasicBlock &bb);

/** Schedule every block of fn. Returns number of blocks reordered. */
unsigned scheduleFunction(Function &fn);

} // namespace vanguard

#endif // VANGUARD_COMPILER_SCHEDULER_HH
