#include "compiler/scheduler.hh"

#include <algorithm>

#include "ir/analysis.hh"
#include "support/logging.hh"

namespace vanguard {

namespace {

struct DagNode
{
    std::vector<size_t> succs;
    unsigned preds_left = 0;
    unsigned pathLength = 0;    ///< latency-weighted height to block end
};

} // namespace

bool
scheduleBlock(BasicBlock &bb)
{
    size_t n = bb.bodySize();
    if (n < 2)
        return false;

    // Build the dependence DAG over the block body.
    std::vector<DagNode> dag(n);
    auto add_edge = [&](size_t from, size_t to) {
        dag[from].succs.push_back(to);
        ++dag[to].preds_left;
    };

    for (size_t i = 0; i < n; ++i) {
        const Instruction &a = bb.insts[i];
        RegSet a_defs = instDefs(a);
        RegSet a_uses = instUses(a);
        for (size_t j = i + 1; j < n; ++j) {
            const Instruction &b = bb.insts[j];
            bool dep = (a_defs & instUses(b)).any() ||   // RAW
                       (a_uses & instDefs(b)).any() ||   // WAR
                       (a_defs & instDefs(b)).any();     // WAW
            // Memory ordering: stores are ordering points.
            if (!dep && a.isMemRef() && b.isMemRef() &&
                (a.isStore() || b.isStore())) {
                dep = true;
            }
            if (dep)
                add_edge(i, j);
        }
    }

    // Priority: critical-path height (sum of latencies to the end).
    for (size_t k = n; k > 0; --k) {
        size_t i = k - 1;
        unsigned best = 0;
        for (size_t s : dag[i].succs)
            best = std::max(best, dag[s].pathLength);
        dag[i].pathLength = best + bb.insts[i].latency();
    }

    // Critical-path-first topological ordering.
    //
    // An in-order superscalar issues greedily in program order and
    // blocks at the first not-ready instruction, so the best static
    // order front-loads the *longest dependence chains* (loads, the
    // condition slice's producers). A cycle-packing scheduler — the
    // right choice for VLIW slotting — is actively harmful here: it
    // fills early slots with short ready ops whose operands may arrive
    // late at run time (e.g. a resolution slice waiting on a missing
    // load), and head-of-line blocking then stalls the independent
    // long-latency work queued behind them. Ordering purely by
    // latency-weighted height places speculatively hoisted loads ahead
    // of the branch-resolution slice, which is exactly the overlap the
    // Decomposed Branch Transformation exists to create (paper Sec. 3:
    // "overlap the pushed down contents of block A with the hoisted
    // contents of blocks B and C").
    std::vector<size_t> ready;
    for (size_t i = 0; i < n; ++i)
        if (dag[i].preds_left == 0)
            ready.push_back(i);

    std::vector<size_t> order;
    order.reserve(n);
    while (!ready.empty()) {
        size_t best_pos = 0;
        for (size_t p = 1; p < ready.size(); ++p) {
            size_t i = ready[p];
            size_t b = ready[best_pos];
            if (dag[i].pathLength > dag[b].pathLength ||
                (dag[i].pathLength == dag[b].pathLength && i < b)) {
                best_pos = p;
            }
        }
        size_t i = ready[best_pos];
        ready.erase(ready.begin() +
                    static_cast<std::ptrdiff_t>(best_pos));
        order.push_back(i);
        for (size_t s : dag[i].succs)
            if (--dag[s].preds_left == 0)
                ready.push_back(s);
    }
    vg_assert(order.size() == n, "scheduler lost instructions");

    bool changed = false;
    for (size_t i = 0; i < n; ++i) {
        if (order[i] != i) {
            changed = true;
            break;
        }
    }
    if (!changed)
        return false;

    std::vector<Instruction> new_body;
    new_body.reserve(bb.insts.size());
    for (size_t i : order)
        new_body.push_back(bb.insts[i]);
    new_body.push_back(bb.terminator());
    bb.insts = std::move(new_body);
    return true;
}

unsigned
scheduleFunction(Function &fn)
{
    unsigned changed = 0;
    for (auto &bb : fn.blocks())
        if (scheduleBlock(bb))
            ++changed;
    return changed;
}

} // namespace vanguard
