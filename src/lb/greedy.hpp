#pragma once

#include "lb/problem.hpp"

namespace scalemd {

/// The paper's centralized greedy strategy (section 3.2): objects are
/// assigned largest-first; for each, the destination must not be overloaded
/// beyond `overload` times the average, should already hold as many of the
/// object's patches as possible (home or previously created proxy), should
/// create as few new proxies as possible, and among equals the least-loaded
/// processor wins (the lowest index among equals). Proxies created by
/// earlier assignments are recorded so later objects can reuse them. Only
/// the PEs already holding one of an object's patches and the least-loaded
/// PE can win, so each placement costs O(k + log P) for k such PEs.
LbAssignment greedy_comm_map(const LbProblem& p, double overload = 1.10);

/// Ablation variant: same greedy order and overload rule but completely
/// communication-blind — destination is simply the least-loaded processor
/// (the lowest index among equals), O(log P) per object.
/// Used by bench_ablation_loadbalance to show why proxy-awareness matters.
LbAssignment greedy_nocomm_map(const LbProblem& p);

}  // namespace scalemd
