// shm::Mapping — XPMEM-style cross-address-space windows for single-copy
// intra-node collectives.
//
// The paper's Fig. 2/3 protocols stage every payload through an intermediate
// shared buffer: one copy in, one copy out. A Mapping removes the staging
// hop: a task *exports* a window over its private source or destination
// buffer into the node's shared namespace, and peers *attach* and memcpy
// straight from/to the user memory — one copy total, no size cap from the
// staging buffers.
//
// The handshake is built on SharedFlag, so it inherits the store-propagation
// visibility model and the chk happens-before edges:
//
//   owner                            peer
//   -----                            ----
//   publish(base, n)                 |
//     pub[me].set(gen)   (release)   |
//   |                                attach(owner, gen)
//   |                                  await pub[owner] >= gen  (acquire)
//   |                                  ... direct memcpy ...
//   |                                detach(owner)
//   |                                  done[owner].add(1)       (release)
//   retract(peers)                   |
//     await done[me] >= Σ  (acquire) |
//
// Generations are monotonic per slot. Collective calls are deterministic, so
// every rank mirrors the expected generation of every window privately (the
// same trick the staged protocols use for A/B slot parity); the owner may
// reuse its buffer the instant retract() returns — all readers of that
// generation have detached. The exported window registers with chk::Checker,
// so unordered peer reads against owner writes surface as race reports, and
// srm::mc model-checks the handshake itself (mc/protocols: sc_* models).
// retract() takes the buffer back: after the detach acquire it records an
// owner write over the whole window, so every peer access the handshake
// does not order before that point is a race, and then drops the region.
// The buffer is private memory again, which the checker does not track: a
// freed buffer that another task reuses is not held against the window's
// old readers.
//
// Validation (SRM_CHECK): publishing over a live window ("double export"),
// attaching to a generation that was already retracted ("attach after
// retract"), detaching without an attach, and retracting while a peer is
// still attached (a peer count too small, whose late accesses the checker
// would no longer see) throw util::CheckError.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "chk/chk.hpp"
#include "machine/cluster.hpp"
#include "machine/params.hpp"
#include "shm/flag.hpp"
#include "sim/task.hpp"
#include "util/check.hpp"

namespace srm::shm {

class Mapping {
 public:
  /// One attached view of an exported window.
  struct Window {
    std::byte* data = nullptr;
    std::size_t bytes = 0;
  };

  /// One window slot per local task, namespaced by @p label (flag labels and
  /// chk region names).
  Mapping(sim::Engine& eng, const machine::MemoryParams& mp, int nlocal,
          std::string label)
      : label_(std::move(label)) {
    slots_.reserve(static_cast<std::size_t>(nlocal));
    for (int l = 0; l < nlocal; ++l) {
      slots_.push_back(std::make_unique<Slot>(eng, mp, label_, l));
    }
  }

  /// Export [base, base+bytes) as the next generation of the caller's
  /// window. Charges the registration cost, then makes the window visible
  /// (release on the publish flag). One live window per task.
  sim::CoTask publish(machine::TaskCtx& t, void* base, std::size_t bytes) {
    Slot& s = slot(t.local());
    SRM_CHECK_MSG(!s.live, "Mapping '" << label_ << "': double export by local "
                                       << t.local());
    SRM_CHECK(bytes == 0 || base != nullptr);
    s.live = true;
    s.base = static_cast<std::byte*>(base);
    s.bytes = bytes;
    ++s.pub_count;
    if (chk::on(t.chk) && bytes != 0) {
      t.chk.checker->register_region(
          base, bytes, label_ + "/win" + std::to_string(t.local()));
      // The owner produced the window contents (program order) before this
      // export; recording the write here puts it before the release below,
      // so any peer read that skips the attach handshake — or lands after a
      // premature reuse — surfaces as a race.
      chk::note_write(t.chk, base, bytes);
    }
    co_await t.delay(t.P->topo.map_publish);
    s.pub.set(s.pub_count, &t.chk);
  }

  /// Attach to generation @p gen of @p owner's window: charges the attach
  /// cost, blocks until that generation is published (acquire), and returns
  /// the window. Attaching to an already-retracted generation is a lifetime
  /// bug and throws.
  sim::CoTask attach(machine::TaskCtx& t, int owner, std::uint64_t gen,
                     Window* out) {
    SRM_CHECK(gen >= 1);
    Slot& s = slot(owner);
    co_await t.delay(t.P->topo.map_attach);
    co_await s.pub.await_at_least(gen, &t.chk);
    SRM_CHECK_MSG(s.ret_count < gen,
                  "Mapping '" << label_ << "': attach to retracted window "
                              << owner << " generation " << gen);
    ++s.open;
    out->data = s.base;
    out->bytes = s.bytes;
  }

  /// Done reading/writing @p owner's window (release on the detach flag).
  void detach(machine::TaskCtx& t, int owner) {
    Slot& s = slot(owner);
    SRM_CHECK_MSG(s.open > 0, "Mapping '" << label_ << "': detach from "
                                          << owner << " without attach");
    --s.open;
    s.done.add(1, &t.chk);
  }

  /// Tear down the caller's current window once @p peers detaches for this
  /// generation arrived (acquire). After this returns the owner's buffer is
  /// private again and may be rewritten immediately, so the checker sees
  /// the owner write it here, after the acquire, and then stops tracking
  /// it: the owner may free it and another task reuse the storage.
  sim::CoTask retract(machine::TaskCtx& t, int peers) {
    Slot& s = slot(t.local());
    SRM_CHECK_MSG(s.live, "Mapping '" << label_ << "': retract without export"
                                      << " by local " << t.local());
    s.expected_done += static_cast<std::uint64_t>(peers);
    if (peers > 0) {
      co_await s.done.await_at_least(s.expected_done, &t.chk);
    }
    SRM_CHECK_MSG(s.open == 0, "Mapping '" << label_ << "': retract by local "
                                           << t.local() << " while " << s.open
                                           << " peer(s) still attached");
    if (chk::on(t.chk) && s.bytes != 0) {
      chk::StageScope stage(t.chk, "map.retract");
      chk::note_write(t.chk, s.base, s.bytes);
      t.chk.checker->unregister_region(s.base);
    }
    s.live = false;
    ++s.ret_count;
  }

  bool exported(int local) const { return cslot(local).live; }
  /// Publishes so far on @p local's slot (the next attach generation is
  /// generation(local)+1 while no window is live).
  std::uint64_t generation(int local) const { return cslot(local).pub_count; }

 private:
  struct Slot {
    Slot(sim::Engine& eng, const machine::MemoryParams& mp,
         const std::string& label, int l)
        : pub(eng, mp, 0, label + "/pub[" + std::to_string(l) + "]"),
          done(eng, mp, 0, label + "/done[" + std::to_string(l) + "]") {}
    SharedFlag pub;   ///< publish generation (monotonic)
    SharedFlag done;  ///< cumulative detach count (monotonic)
    std::byte* base = nullptr;
    std::size_t bytes = 0;
    bool live = false;
    std::uint64_t pub_count = 0;
    std::uint64_t ret_count = 0;
    std::uint64_t expected_done = 0;  ///< Σ peers over retracted generations
    int open = 0;  ///< peers attached to the live window, not yet detached
  };

  Slot& slot(int l) { return *slots_.at(static_cast<std::size_t>(l)); }
  const Slot& cslot(int l) const {
    return *slots_.at(static_cast<std::size_t>(l));
  }

  std::string label_;
  std::vector<std::unique_ptr<Slot>> slots_;
};

}  // namespace srm::shm
