// srm::sa — pass (2): flow-sensitive protocol lint over the mc IR.
//
// Nine rule families, each a structural check on one Program that needs no
// interleaving enumeration:
//
//   R1 await-unsat        an await guard no reachable value can satisfy
//                         (no writers, a deterministic same-thread fold that
//                         fails the guard, or an upper bound below a >=/==
//                         threshold) — subsumes dead-transition detection:
//                         everything after the wedged guard is dead.
//   R2 credit-underflow   wait_dec demand on a pure counter exceeds its
//                         initial value plus every add in the program.
//   R3 chan-arity         #send != #recv on a channel (an orphaned message
//                         or a recv that must starve).
//   R4 window-protocol    publish/attach/detach/retract discipline on the
//                         registered shm::Mapping windows: (a) attach-check
//                         before a non-owner read (the owner's own adapter,
//                         Thread::serves, reads on its behalf), (b) reader
//                         bumps the detach counter after its last read,
//                         (c) owner collects detaches before overwriting a
//                         published window, (d) owner writes the window
//                         before publishing it.
//   R5 publish-order      the j-th bump of a flag/counter consumed before
//                         buffer reads must be preceded by >= j writes of
//                         the consumed buffers (signal-before-deposit); a
//                         wait_dec of v on a NIC's arrival counter for them
//                         counts as v writes (the network's deposits).
//   R6 flag-reuse         two nonzero sets of the same flag by one thread
//                         with no blocking read of the flag in between
//                         (overwrites a generation the consumer may not
//                         have seen).
//   R7 source-reuse       a thread feeding an origin-side handoff channel
//                         overwrites the source buffer without waiting on
//                         the adapter's origin counter (LAPI origin-buffer
//                         reuse rule, §2.3).
//   R8 canonical-exec     residue of the pass-(1) abstract execution: a
//                         deadlock stall or a happens-before race on the
//                         canonical schedule (sound — that schedule is a
//                         real interleaving).
//   R9 count-alias        a counter bumped by two or more threads, each
//                         bump right after writing one buffer, where one
//                         thread's bumps cover different buffers (the A/B
//                         slots): the total cannot tell which buffer's
//                         writes are complete. The canonical schedule runs
//                         every writer at one pace, so R8 cannot see a
//                         slow writer's bump stood in for by a fast one's.
//
// R1-R7 and R9 are purely structural; R8 is the only rule that "runs" the
// program, and it runs exactly one deterministic schedule — still no model
// checking.
#pragma once

#include <string>
#include <vector>

#include "mc/ir.hpp"

namespace srm::sa {

/// One diagnostic, anchored to a precise IR location.
struct Diag {
  std::string rule;     ///< "R1".."R9" (R8 variants "R8-race"/"R8-deadlock")
  std::string thread;   ///< thread the diagnostic anchors to
  int op_index = -1;    ///< op index within that thread (-1: whole-thread)
  std::string label;    ///< label of the anchored op
  std::string message;  ///< human-readable explanation
};

/// Run every lint rule over @p p. Empty result == protocol lints clean.
std::vector<Diag> lint(const mc::Program& p);

/// The distinct rule families that fired, e.g. {"R1", "R8"} — the gauntlet
/// classification of a mutant.
std::vector<std::string> fired_rules(const std::vector<Diag>& diags);

}  // namespace srm::sa
