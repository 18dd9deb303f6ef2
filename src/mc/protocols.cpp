#include "mc/protocols.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace srm::mc {
namespace {

/// Emits one protocol instance into a Program. Object names carry a prefix
/// so sequential compositions (allgather = gather + bcast) keep their phases
/// on distinct synchronization state while sharing the rank threads.
struct Builder {
  Program& p;
  Shape sh;
  std::string x;  ///< object-name prefix ("", "ga.", "bc.", ...)

  int T() const { return sh.tasks; }
  int C() const { return sh.chunks; }
  /// Model width of a shared buffer in bytes: one byte per local task, so
  /// slice protocols (scatter/gather) get per-task disjoint ranges.
  std::uint64_t W() const { return static_cast<std::uint64_t>(sh.tasks); }

  std::string id(const std::string& s) const { return x + s; }
  static std::string num(int v) { return std::to_string(v); }

  int rk(int n, int l) { return p.thread("r" + num(n) + "." + num(l)); }
  int nic(int n) { return p.thread("nic" + num(n)); }
  /// The origin-side adapter engine of node n: re-reads a put's source
  /// buffer, bumps the origin counter, then forwards the put on the wire.
  int adp(int n) { return p.thread("adp" + num(n)); }

  int ready(int n, int s, int l) {
    return p.var(id("ready" + num(n) + ".s" + num(s) + "[" + num(l) + "]"));
  }
  int bb(int n, int s) { return p.buf(id("bb" + num(n) + ".s" + num(s))); }

  // --- Fig. 3: SMP broadcast chunk, two buffers, per-consumer READY flags --
  /// Consumer @p l of node @p n takes chunk @p c out of @p src once READY:
  /// its own byte with @p slice (scatter), else the whole chunk. On a Shape
  /// of more than one socket, the readers of each socket other than the
  /// leader's (local 0) form a far group of k: reader j copies slice j of
  /// @p src into the group's far buffer, bumps the slot's slice counter,
  /// awaits all k slices (cumulative over the slot's chunks) and reads the
  /// whole chunk there (smp_bcast_chunk's split).
  void consume_chunk(int n, int c, int l, int src, bool slice) {
    int s = c % 2;
    int t = rk(n, l);
    int per = (T() + sh.sockets - 1) / sh.sockets;
    int g = l / per;
    int first = g * per;
    int k = std::min(per, T() - first);
    p.await_eq(t, ready(n, s, l), 1);
    if (slice) {
      p.read(t, src, static_cast<std::uint64_t>(l),
             static_cast<std::uint64_t>(l) + 1);
    } else if (g == 0 || k < 2) {
      p.read(t, src, 0, W());
    } else {
      std::string tag = num(n) + ".g" + num(g) + ".s" + num(s);
      int far = p.buf(id("far" + tag));
      int filled = p.var(id("farfill" + tag));
      std::uint64_t piece = (W() + static_cast<std::uint64_t>(k) - 1) /
                            static_cast<std::uint64_t>(k);
      std::uint64_t lo =
          std::min(piece * static_cast<std::uint64_t>(l - first), W());
      std::uint64_t hi = std::min(lo + piece, W());
      if (lo < hi) {
        p.read(t, src, lo, hi);
        p.write(t, far, lo, hi);
      }
      p.add(t, filled, 1);
      p.await_ge(t, filled, static_cast<std::uint64_t>(k * (c / 2 + 1)));
      p.read(t, far, 0, W());
    }
    p.set(t, ready(n, s, l), 0);
  }

  /// Leader fills the shared buffer (optionally reading @p src first) and
  /// releases the consumers; consumers copy out and clear their flag.
  /// @p srcw: bytes of @p src covered from @p srclo (0: the default node
  /// width W()) — allgather's broadcast half reads the full gathered
  /// buffer, the root-free allgather one node block of it.
  void smp_fill_chunk(int n, int c, int src, bool slice = false,
                      std::uint64_t srcw = 0, std::uint64_t srclo = 0) {
    int s = c % 2;
    if (T() == 1) return;  // no local fan-out
    int ld = rk(n, 0);
    for (int l = 1; l < T(); ++l) p.await_eq(ld, ready(n, s, l), 0);
    if (src >= 0) p.read(ld, src, srclo, srclo + (srcw ? srcw : W()));
    p.write(ld, bb(n, s), 0, W());
    for (int l = 1; l < T(); ++l) p.set(ld, ready(n, s, l), 1);
    if (slice) p.read(ld, bb(n, s), 0, 1);  // leader copies its own slice
    for (int l = 1; l < T(); ++l) consume_chunk(n, c, l, bb(n, s), slice);
  }

  /// Zero-copy variant: consumers (and the leader) read straight out of the
  /// landing buffer @p land a LAPI put deposited — no staging copy.
  void smp_shared_chunk(int n, int c, int land, bool slice = false) {
    int s = c % 2;
    int ld = rk(n, 0);
    if (T() == 1) {
      p.read(ld, land, 0, slice ? 1 : W());
      return;
    }
    for (int l = 1; l < T(); ++l) p.await_eq(ld, ready(n, s, l), 0);
    for (int l = 1; l < T(); ++l) p.set(ld, ready(n, s, l), 1);
    p.read(ld, land, 0, slice ? 1 : W());
    for (int l = 1; l < T(); ++l) consume_chunk(n, c, l, land, slice);
  }

  // --- barrier: flat SMP flags + recursive-doubling round counters --------
  void barrier() {
    auto bar = [&](int n, int l) {
      return p.var(id("bar" + num(n) + "[" + num(l) + "]"));
    };
    for (int n = 0; n < sh.nodes; ++n) {
      int m = rk(n, 0);
      for (int l = 1; l < T(); ++l) {
        int w = rk(n, l);
        p.set(w, bar(n, l), 1);
        p.await_eq(w, bar(n, l), 0);
      }
      for (int l = 1; l < T(); ++l) p.await_eq(m, bar(n, l), 1);
    }
    if (sh.nodes == 2) {
      for (int n = 0; n < 2; ++n) {
        int m = rk(n, 0);
        p.send(m, p.chan(id("sig" + num(n))));      // put_signal to the peer
        p.wait_dec(m, p.var(id("round" + num(n))), 1);
      }
      for (int n = 0; n < 2; ++n) {
        p.recv(nic(n), p.chan(id("sig" + num(1 - n))));
        p.add(nic(n), p.var(id("round" + num(n))), 1);
      }
    }
    for (int n = 0; n < sh.nodes; ++n) {
      int m = rk(n, 0);
      for (int l = 1; l < T(); ++l) p.set(m, bar(n, l), 0);
    }
  }

  // --- broadcast: credit-guarded landing pair + Fig. 3 locally ------------
  /// @p src: shared buffer the root reads from (-1: a private user buffer).
  /// @p srcw: bytes of @p src the broadcast covers (0: W()).
  void bcast(int src = -1, std::uint64_t srcw = 0) {
    if (sh.nodes == 1) {
      for (int c = 0; c < C(); ++c) smp_fill_chunk(0, c, src, false, srcw);
      return;
    }
    int root = rk(0, 0), child = rk(1, 0);
    int put01 = p.chan(id("put01")), cred10 = p.chan(id("cred10"));
    int org = -1, oput = -1;
    if (src >= 0) {
      org = p.var(id("org"));
      oput = p.chan(id("oput"));
    }
    for (int c = 0; c < C(); ++c) {
      int s = c % 2;
      int freev = p.var(id("free.s" + num(s)), 1);  // landing credits
      int arrv = p.var(id("arr.s" + num(s)));
      int land = p.buf(id("land.s" + num(s)));
      // Root leader: consume a credit, put, then broadcast locally (Fig. 4
      // steps 1 and 2).
      p.wait_dec(root, freev, 1);
      p.send(root, src >= 0 ? oput : put01);
      smp_fill_chunk(0, c, src, false, srcw);
      if (src >= 0) {
        int a = adp(0);
        p.recv(a, oput);
        p.read(a, src, 0, srcw ? srcw : W());
        p.add(a, org, 1);
        p.send(a, put01);
      }
      // Child NIC: the deposit lands and the arrival counter bumps.
      p.recv(nic(1), put01);
      p.write(nic(1), land, 0, W());
      p.add(nic(1), arrv, 1);
      // Child leader: wait for the chunk, zero-copy SMP broadcast, then
      // return the credit once every consumer cleared READY (step 3).
      p.wait_dec(child, arrv, 1);
      smp_shared_chunk(1, c, land);
      for (int l = 1; l < T(); ++l) p.await_eq(child, ready(1, s, l), 0);
      p.send(child, cred10);
      p.recv(nic(0), cred10);
      p.add(nic(0), freev, 1);
    }
    if (src >= 0) p.wait_dec(root, org, static_cast<std::uint64_t>(C()));
  }

  // --- Fig. 2 reduce + credit-guarded landing pair upward -----------------
  /// Returns the root's result buffer (the scatter half of reduce_scatter
  /// reads it).
  int reduce() {
    int res = p.buf(id("res0"));
    auto pub = [&](int n, int l) {
      return p.var(id("pub" + num(n) + "[" + num(l) + "]"));
    };
    auto cons = [&](int n, int s, int l) {
      return p.var(id("cons" + num(n) + ".s" + num(s) + "[" + num(l) + "]"));
    };
    auto slot = [&](int n, int s, int l) {
      return p.buf(id("slot" + num(n) + ".s" + num(s) + "[" + num(l) + "]"));
    };
    int redfree = -1, outorg = -1, oput1 = -1, data10 = -1, cred01 = -1;
    if (sh.nodes == 2) {
      redfree = p.var(id("free"), 2);  // both landing slots start free
      outorg = p.var(id("outorg"));
      oput1 = p.chan(id("oput1"));
      data10 = p.chan(id("data10"));
      cred01 = p.chan(id("cred01"));
    }
    int inflight = 0;
    for (int c = 0; c < C(); ++c) {
      int s = c % 2;
      for (int n = 0; n < sh.nodes; ++n) {
        // Participants: wait for the slot's previous consumer, publish.
        for (int l = 1; l < T(); ++l) {
          int t = rk(n, l);
          if (c >= 2) {
            p.await_ge(t, cons(n, s, l),
                       static_cast<std::uint64_t>(c / 2));
          }
          p.write(t, slot(n, s, l), 0, W());
          p.add(t, pub(n, l), 1);
        }
        int ld = rk(n, 0);
        // Child leader's output-slot reuse gate (put of c-2 must have left).
        if (n == 1 && inflight == 2) {
          p.wait_dec(ld, outorg, 1);
          --inflight;
        }
        int dst = n == 0 ? res : p.buf(id("out.s" + num(s)));
        if (T() == 1) {
          p.write(ld, dst, 0, W());  // node result is just our own data
        } else {
          for (int l = 1; l < T(); ++l) {
            p.await_ge(ld, pub(n, l), static_cast<std::uint64_t>(c) + 1);
            p.read(ld, slot(n, s, l), 0, W());
            p.write(ld, dst, 0, W());
            p.add(ld, cons(n, s, l), 1);
          }
        }
      }
      if (sh.nodes == 2) {
        int child = rk(1, 0), ld0 = rk(0, 0);
        int out = p.buf(id("out.s" + num(s)));
        int rland = p.buf(id("land.s" + num(s)));
        int arrived = p.var(id("arr"));
        // Child: consume a landing credit, ship the node result up.
        p.wait_dec(child, redfree, 1);
        p.send(child, oput1);
        ++inflight;
        int a = adp(1);
        p.recv(a, oput1);
        p.read(a, out, 0, W());
        p.add(a, outorg, 1);
        p.send(a, data10);
        p.recv(nic(0), data10);
        p.write(nic(0), rland, 0, W());
        p.add(nic(0), arrived, 1);
        // Root: fold the landed chunk in, return the credit.
        p.wait_dec(ld0, arrived, 1);
        p.read(ld0, rland, 0, W());
        p.write(ld0, res, 0, W());
        p.send(ld0, cred01);
        p.recv(nic(1), cred01);
        p.add(nic(1), redfree, 1);
      }
    }
    if (inflight > 0) {
      p.wait_dec(rk(1, 0), outorg, static_cast<std::uint64_t>(inflight));
    }
    return res;
  }

  /// Fig. 2 with one chunk: every local contribution combined into res<n>.
  /// Shared by allreduce and the zoo allreduces (their network phases run
  /// leader-only over the node results).
  void local_combine(int n) {
    int ld = rk(n, 0);
    for (int l = 1; l < T(); ++l) {
      int t = rk(n, l);
      p.write(t, p.buf(id("slot" + num(n) + "[" + num(l) + "]")), 0, W());
      p.add(t, p.var(id("pub" + num(n) + "[" + num(l) + "]")), 1);
    }
    if (T() == 1) {
      p.write(ld, p.buf(id("res" + num(n))), 0, W());
    } else {
      for (int l = 1; l < T(); ++l) {
        p.await_ge(ld, p.var(id("pub" + num(n) + "[" + num(l) + "]")), 1);
        p.read(ld, p.buf(id("slot" + num(n) + "[" + num(l) + "]")), 0, W());
        p.write(ld, p.buf(id("res" + num(n))), 0, W());
        p.add(ld, p.var(id("cons" + num(n) + "[" + num(l) + "]")), 1);
      }
    }
  }

  // --- allreduce: SMP reduce + pairwise exchange + SMP broadcast ----------
  /// Single-chunk by construction (the recursive-doubling variant requires
  /// the payload to fit one reduce chunk).
  void allreduce() {
    auto resbuf = [&](int n) { return p.buf(id("res" + num(n))); };
    // Local combine on every node, Fig. 2 with one chunk.
    for (int n = 0; n < sh.nodes; ++n) local_combine(n);
    if (sh.nodes == 2) {
      // One recursive-doubling round: both puts overlap on the wire; each
      // master may only overwrite its result buffer (the put source!) after
      // the origin counter says the adapter has read it.
      for (int n = 0; n < 2; ++n) {
        int m = rk(n, 0);
        p.send(m, p.chan(id("oput" + num(n))));
        int a = adp(n);
        p.recv(a, p.chan(id("oput" + num(n))));
        p.read(a, resbuf(n), 0, W());
        p.add(a, p.var(id("org" + num(n))), 1);
        p.send(a, p.chan(id("data" + num(n))));
        int peer = nic(1 - n);
        p.recv(peer, p.chan(id("data" + num(n))));
        p.write(peer, p.buf(id("xbuf" + num(1 - n))), 0, W());
        p.add(peer, p.var(id("arr" + num(1 - n))), 1);
      }
      for (int n = 0; n < 2; ++n) {
        int m = rk(n, 0);
        p.wait_dec(m, p.var(id("arr" + num(n))), 1);
        p.wait_dec(m, p.var(id("org" + num(n))), 1);
        p.read(m, p.buf(id("xbuf" + num(n))), 0, W());
        p.write(m, resbuf(n), 0, W());
      }
    }
    // SMP broadcast of the global result out of the masters' buffers.
    for (int n = 0; n < sh.nodes; ++n) smp_fill_chunk(n, 0, resbuf(n));
  }

  /// One origin-guarded leader put for the zoo exchanges: the master of
  /// node @p n ships @p srcbuf to the peer. The adapter re-reads the source
  /// (the reuse hazard) and bumps <tag>org<n>; the peer's NIC deposits into
  /// <tag>land<peer> and bumps <tag>arr<peer>.
  void zoo_put(const std::string& tag, int n, int srcbuf) {
    int m = rk(n, 0);
    int a = adp(n);
    p.send(m, p.chan(id(tag + "put" + num(n))));
    p.recv(a, p.chan(id(tag + "put" + num(n))));
    p.read(a, srcbuf, 0, W());
    p.add(a, p.var(id(tag + "org" + num(n))), 1);
    p.send(a, p.chan(id(tag + "data" + num(n))));
    int peer = nic(1 - n);
    p.recv(peer, p.chan(id(tag + "data" + num(n))));
    p.write(peer, p.buf(id(tag + "land" + num(1 - n))), 0, W());
    p.add(peer, p.var(id(tag + "arr" + num(1 - n))), 1);
  }

  // --- ring allreduce (zoo): guarded block exchange around the ring -------
  /// Leader-only network phase over the node results, single chunk per
  /// block (core/zoo.cpp runs the exchange in polled mode so per-peer
  /// arrival order attributes blocks; the FIFO channels model exactly that
  /// ordering). Two nodes: one reduce-scatter hop combines the peer's
  /// contribution into the owned block, one allgather hop replaces the
  /// other block with the peer's finalized copy.
  void ring_allreduce() {
    auto resbuf = [&](int n) { return p.buf(id("res" + num(n))); };
    for (int n = 0; n < sh.nodes; ++n) local_combine(n);
    if (sh.nodes == 2) {
      // Reduce-scatter hop: both masters ship their contribution for the
      // peer-owned block. The put sources the node result, so the combine
      // below may only overwrite it once the origin counter fires.
      for (int n = 0; n < 2; ++n) zoo_put("rs", n, resbuf(n));
      for (int n = 0; n < 2; ++n) {
        int m = rk(n, 0);
        p.wait_dec(m, p.var(id("rsarr" + num(n))), 1);
        p.wait_dec(m, p.var(id("rsorg" + num(n))), 1);
        p.read(m, p.buf(id("rsland" + num(n))), 0, W());
        p.write(m, resbuf(n), 0, W());  // the owned block is now global
      }
      // Allgather hop: ship the finalized block; the peer replaces its
      // copy (a plain write, no combine). The node result is the put
      // source again, so the same origin guard protects the final write.
      for (int n = 0; n < 2; ++n) zoo_put("ag", n, resbuf(n));
      for (int n = 0; n < 2; ++n) {
        int m = rk(n, 0);
        p.wait_dec(m, p.var(id("agarr" + num(n))), 1);
        p.wait_dec(m, p.var(id("agorg" + num(n))), 1);
        p.read(m, p.buf(id("agland" + num(n))), 0, W());
        p.write(m, resbuf(n), 0, W());
      }
    }
    for (int n = 0; n < sh.nodes; ++n) smp_fill_chunk(n, 0, resbuf(n));
  }

  // --- recursive-halving allreduce (zoo) ----------------------------------
  /// At two nodes (pof2 = 2, no remainder fold) this is one
  /// reduce-scatter round exchanging accumulated halves — the send is the
  /// pre-round snapshot, so the fold-in waits out the origin counter — and
  /// one allgather round whose arrival REPLACES the other half
  /// (core/zoo.cpp's unfold semantics). Structurally the ring's exchange,
  /// but the gauntlet pins a different guard on it.
  void rh_allreduce() {
    auto resbuf = [&](int n) { return p.buf(id("res" + num(n))); };
    for (int n = 0; n < sh.nodes; ++n) local_combine(n);
    if (sh.nodes == 2) {
      // Halving exchange round (reduce-scatter on halves).
      for (int n = 0; n < 2; ++n) zoo_put("hx", n, resbuf(n));
      for (int n = 0; n < 2; ++n) {
        int m = rk(n, 0);
        p.wait_dec(m, p.var(id("hxarr" + num(n))), 1);
        p.wait_dec(m, p.var(id("hxorg" + num(n))), 1);
        p.read(m, p.buf(id("hxland" + num(n))), 0, W());
        p.write(m, resbuf(n), 0, W());  // fold the peer's half in
      }
      // Half broadcast-back round (allgather on halves).
      for (int n = 0; n < 2; ++n) zoo_put("hb", n, resbuf(n));
      for (int n = 0; n < 2; ++n) {
        int m = rk(n, 0);
        p.wait_dec(m, p.var(id("hbarr" + num(n))), 1);
        p.wait_dec(m, p.var(id("hborg" + num(n))), 1);
        p.read(m, p.buf(id("hbland" + num(n))), 0, W());
        p.write(m, resbuf(n), 0, W());  // replace, not combine
      }
    }
    for (int n = 0; n < sh.nodes; ++n) smp_fill_chunk(n, 0, resbuf(n));
  }

  // --- scatter+allgather bcast (zoo) --------------------------------------
  /// Single chunk: the root scatters the child's block, then the one ring
  /// allgather step runs both ways — the root ships its own block while
  /// the child forwards the block it just received. The forward reads the
  /// scatter's landing buffer, so it must wait for the scatter arrival;
  /// its origin counter retires the landing slot at the end.
  void sa_bcast() {
    if (sh.nodes == 1) {
      smp_fill_chunk(0, 0, -1);
      return;
    }
    int root = rk(0, 0), child = rk(1, 0);
    // Scatter: the child's block leaves the root's private user buffer.
    p.send(root, p.chan(id("scput")));
    p.recv(nic(1), p.chan(id("scput")));
    p.write(nic(1), p.buf(id("scland")), 0, W());
    p.add(nic(1), p.var(id("scarr")), 1);
    // Ring step, root side: its own block, private source again.
    p.send(root, p.chan(id("agput0")));
    p.recv(nic(1), p.chan(id("agput0")));
    p.write(nic(1), p.buf(id("agland1")), 0, W());
    p.add(nic(1), p.var(id("agarr1")), 1);
    // Ring step, child side: forward the scattered block straight out of
    // its landing buffer (a shared source — adapter plus origin counter).
    p.wait_dec(child, p.var(id("scarr")), 1);
    p.send(child, p.chan(id("fwput")));
    int a = adp(1);
    p.recv(a, p.chan(id("fwput")));
    p.read(a, p.buf(id("scland")), 0, W());
    p.add(a, p.var(id("fworg")), 1);
    p.send(a, p.chan(id("fwdata")));
    p.recv(nic(0), p.chan(id("fwdata")));
    p.write(nic(0), p.buf(id("agland0")), 0, W());
    p.add(nic(0), p.var(id("agarr0")), 1);
    // Assembly + Fig. 3 fan-out: each leader copies the landed block into
    // its user image, then runs the SMP chunk from that private image.
    p.wait_dec(root, p.var(id("agarr0")), 1);
    p.read(root, p.buf(id("agland0")), 0, W());
    smp_fill_chunk(0, 0, -1);
    p.wait_dec(child, p.var(id("agarr1")), 1);
    p.read(child, p.buf(id("agland1")), 0, W());
    p.read(child, p.buf(id("scland")), 0, W());
    smp_fill_chunk(1, 0, -1);
    // The scatter landing slot is reusable only once the forward has left
    // the adapter.
    p.wait_dec(child, p.var(id("fworg")), 1);
  }

  // --- root-free allgather (core/gather_scatter.cpp allgather_direct) ----
  /// Every leader assembles its node block in its own user buffer through
  /// the gather staging pair (C chunks), then the leaders run the node ring
  /// (core/zoo.cpp Ring): each announces its buffer to its predecessor
  /// before assembling, forwards its own block by a direct put once its
  /// successor's address arrived, and publishes every block through Fig. 3
  /// in C chunks: its own once assembled, the peer's once the arrival
  /// counter fired. Coarse: one NIC and one adapter per node; a leader's
  /// buffer holds its own block at [0, W) and the peer's at [W, 2W).
  void ag_direct() {
    auto res = [&](int n) { return p.buf(id("agres" + num(n))); };
    auto filled = [&](int n, int s) {
      return p.var(id("agfilled" + num(n) + ".s" + num(s)));
    };
    auto freed = [&](int n, int s) {
      return p.var(id("agfreed" + num(n) + ".s" + num(s)));
    };
    auto stage = [&](int n, int s) {
      return p.buf(id("agstage" + num(n) + ".s" + num(s)));
    };
    bool ring = sh.nodes == 2;
    if (ring) {
      for (int n = 0; n < 2; ++n) {
        p.send(rk(n, 0), p.chan(id("agaddr" + num(n))));
        p.recv(nic(1 - n), p.chan(id("agaddr" + num(n))));
        p.add(nic(1 - n), p.var(id("agaddrarr" + num(1 - n))), 1);
      }
    }
    // Node assembly: every local writes its slice of each chunk; the leader
    // copies the chunk into its buffer and frees the slot.
    for (int c = 0; c < C(); ++c) {
      int s = c % 2;
      for (int n = 0; n < sh.nodes; ++n) {
        for (int l = 0; l < T(); ++l) {
          int t = rk(n, l);
          p.await_ge(t, freed(n, s), static_cast<std::uint64_t>(c / 2));
          p.write(t, stage(n, s), static_cast<std::uint64_t>(l),
                  static_cast<std::uint64_t>(l) + 1);
          p.add(t, filled(n, s), 1);
        }
        int ld = rk(n, 0);
        p.await_ge(ld, filled(n, s),
                   static_cast<std::uint64_t>(c / 2 + 1) *
                       static_cast<std::uint64_t>(T()));
        p.read(ld, stage(n, s), 0, W());
        p.write(ld, res(n), 0, W());
        p.add(ld, freed(n, s), 1);
      }
    }
    // Ring step 0: forward the own block into the successor's buffer, then
    // publish it.
    for (int n = 0; ring && n < 2; ++n) {
      int ld = rk(n, 0);
      int a = adp(n);
      p.wait_dec(ld, p.var(id("agaddrarr" + num(n))), 1);
      p.send(ld, p.chan(id("agput" + num(n))));
      p.recv(a, p.chan(id("agput" + num(n))));
      p.read(a, res(n), 0, W());
      p.add(a, p.var(id("agorg" + num(n))), 1);
      p.send(a, p.chan(id("agdata" + num(n))));
      p.recv(nic(1 - n), p.chan(id("agdata" + num(n))));
      p.write(nic(1 - n), res(1 - n), W(), 2 * W());
      p.add(nic(1 - n), p.var(id("aggot" + num(1 - n))), 1);
    }
    for (int n = 0; n < sh.nodes; ++n) {
      for (int c = 0; c < C(); ++c) smp_fill_chunk(n, c, res(n), false, W());
    }
    // Ring step 1: the peer's block, once it arrived; then drain the put.
    for (int n = 0; ring && n < 2; ++n) {
      int ld = rk(n, 0);
      p.wait_dec(ld, p.var(id("aggot" + num(n))), 1);
      for (int c = 0; c < C(); ++c) {
        smp_fill_chunk(n, C() + c, res(n), false, W(), W());
      }
      p.wait_dec(ld, p.var(id("agorg" + num(n))), 1);
    }
  }

  // --- mapped root-free allgather (core/gather_scatter.cpp
  //     allgather_sockets) ---------------------------------------------------
  /// Every socket's group of locals is a publish domain whose head (its
  /// first local) exports its buffer as a window: the node's segment at
  /// [0, W), one byte per local, and the peer node's at [W, 2W). With more
  /// than one group every other local exports its own byte as a window
  /// too. Every local of a group assembles the node's segment in its
  /// head's window in parallel: it writes its own byte, pulls its
  /// round-robin share of the other groups' bytes from their owners'
  /// windows (a head's byte from its buffer) and, unless it is the head,
  /// adds one to its group's assembled count. The heads of one socket on
  /// the two nodes run their own ring: each announces its buffer, awaits
  /// its group's assembled count, forwards its own segment once the
  /// successor's address arrived, and adds one to its group's ready count
  /// per segment it holds (the own one after the forward, the peer's once
  /// its arrival counter fired). Its readers retract their window, copy
  /// each segment out of the head's buffer once the ready count covers it
  /// (the own one minus their own byte) and detach; the head reuses its
  /// buffer once they and the other groups' pullers of its byte detached.
  /// One NIC and one adapter thread per node and socket ring.
  void sc_allgather() {
    const int per = (T() + sh.sockets - 1) / sh.sockets;
    const int D = (T() + per - 1) / per;
    const bool ring = sh.nodes == 2;
    const std::uint64_t w = W();
    auto grp = [&](int l) { return std::min(l / per, D - 1); };
    auto is_head = [&](int l) { return l == grp(l) * per; };
    auto size = [&](int g) { return g + 1 == D ? T() - g * per : per; };
    auto tag = [&](int n, int g) { return num(n) + ".g" + num(g); };
    auto loc = [&](int n, int l) { return num(n) + "[" + num(l) + "]"; };
    auto res = [&](int n, int g) { return p.buf(id("sgres" + tag(n, g))); };
    auto rpub = [&](int n, int g) { return p.var(id("sgrpub" + tag(n, g))); };
    auto rdone = [&](int n, int g) {
      return p.var(id("sgrdone" + tag(n, g)));
    };
    auto ready_count = [&](int n, int g) {
      return p.var(id("sgready" + tag(n, g)));
    };
    auto assembled = [&](int n, int g) {
      return p.var(id("sgasm" + tag(n, g)));
    };
    auto win = [&](int n, int l) { return p.buf(id("sgwin" + loc(n, l))); };
    auto wpub = [&](int n, int l) { return p.var(id("sgwpub" + loc(n, l))); };
    auto wdone = [&](int n, int l) {
      return p.var(id("sgwdone" + loc(n, l)));
    };
    auto ring_nic = [&](int n, int g) {
      return p.thread("nic" + tag(n, g));
    };
    auto ring_adp = [&](int n, int g) {
      return p.thread("adp" + tag(n, g));
    };
    // The local of group g that writes byte l into g's head's window: l in
    // its own group; the other groups' bytes dealt round-robin.
    auto writer = [&](int g, int l) {
      if (grp(l) == g) return l;
      int k = 0;
      for (int o = 0; o < l; ++o) k += grp(o) != g ? 1 : 0;
      return g * per + k % size(g);
    };
    for (int n = 0; n < sh.nodes; ++n) {
      for (int l = 0; l < T(); ++l) {
        int t = rk(n, l);
        auto b = static_cast<std::uint64_t>(l);
        if (is_head(l)) {
          int g = grp(l);
          p.window(res(n, g), rpub(n, g), rdone(n, g), t);
          p.write(t, res(n, g), b, b + 1);
          p.set(t, rpub(n, g), 1);
        } else if (D > 1) {
          p.window(win(n, l), wpub(n, l), wdone(n, l), t);
          p.write(t, win(n, l), 0, 1);
          p.set(t, wpub(n, l), 1);
        }
      }
    }
    for (int n = 0; ring && n < 2; ++n) {
      for (int g = 0; g < D; ++g) {
        int c = p.chan(id("sgaddr" + tag(n, g)));
        p.send(rk(n, g * per), c);
        p.recv(ring_nic(1 - n, g), c);
        p.add(ring_nic(1 - n, g), p.var(id("sgaddrarr" + tag(1 - n, g))), 1);
      }
    }
    // Assembly: every local writes its own byte and pulls its share into
    // its head's window; the others count it, and the head awaits them.
    for (int n = 0; n < sh.nodes; ++n) {
      for (int l = 0; l < T(); ++l) {
        int t = rk(n, l);
        int g = grp(l);
        if (!is_head(l)) {
          auto b = static_cast<std::uint64_t>(l);
          p.await_ge(t, rpub(n, g), 1);
          p.write(t, res(n, g), b, b + 1);
        }
        for (int o = 0; o < T(); ++o) {
          if (grp(o) == g || writer(g, o) != l) continue;
          auto b = static_cast<std::uint64_t>(o);
          if (is_head(o)) {
            p.await_ge(t, rpub(n, grp(o)), 1);
            p.read(t, res(n, grp(o)), b, b + 1);
          } else {
            p.await_ge(t, wpub(n, o), 1);
            p.read(t, win(n, o), 0, 1);
          }
          p.write(t, res(n, g), b, b + 1);
          p.add(t, is_head(o) ? rdone(n, grp(o)) : wdone(n, o), 1);
        }
        if (is_head(l)) {
          p.await_ge(t, assembled(n, g),
                     static_cast<std::uint64_t>(size(g) - 1));
        } else {
          p.add(t, assembled(n, g), 1);
        }
      }
    }
    // Ring step 0: forward the own segment, then flag it; step 1: flag the
    // peer's once it arrived, then drain the put.
    for (int n = 0; n < sh.nodes; ++n) {
      for (int g = 0; g < D; ++g) {
        int h = rk(n, g * per);
        if (ring) {
          int a = ring_adp(n, g);
          p.serves(a, h);
          int put = p.chan(id("sgput" + tag(n, g)));
          int data = p.chan(id("sgdata" + tag(n, g)));
          p.wait_dec(h, p.var(id("sgaddrarr" + tag(n, g))), 1);
          p.send(h, put);
          p.recv(a, put);
          p.read(a, res(n, g), 0, w);
          p.add(a, p.var(id("sgorg" + tag(n, g))), 1);
          p.send(a, data);
          p.recv(ring_nic(1 - n, g), data);
          p.write(ring_nic(1 - n, g), res(1 - n, g), w, 2 * w);
          p.add(ring_nic(1 - n, g), p.var(id("sggot" + tag(1 - n, g))), 1);
        }
        p.add(h, ready_count(n, g), 1);
      }
    }
    for (int n = 0; ring && n < 2; ++n) {
      for (int g = 0; g < D; ++g) {
        int h = rk(n, g * per);
        p.wait_dec(h, p.var(id("sggot" + tag(n, g))), 1);
        p.add(h, ready_count(n, g), 1);
        p.wait_dec(h, p.var(id("sgorg" + tag(n, g))), 1);
      }
    }
    // Readers: retract the own window, then copy each flagged segment.
    for (int n = 0; n < sh.nodes; ++n) {
      for (int l = 0; l < T(); ++l) {
        if (is_head(l)) continue;
        int t = rk(n, l);
        int g = grp(l);
        auto b = static_cast<std::uint64_t>(l);
        if (D > 1) {
          p.await_ge(t, wdone(n, l), static_cast<std::uint64_t>(D - 1));
          p.write(t, win(n, l), 0, 1);  // retract: the byte is private again
        }
        p.await_ge(t, ready_count(n, g), 1);
        p.read(t, res(n, g), 0, b);
        if (b + 1 < w) p.read(t, res(n, g), b + 1, w);
        if (ring) {
          p.await_ge(t, ready_count(n, g), 2);
          p.read(t, res(n, g), w, 2 * w);
        }
        p.add(t, rdone(n, g), 1);
      }
    }
    // Heads: reuse the buffer once the socket's readers and the other
    // groups' pullers of the head's byte detached.
    for (int n = 0; n < sh.nodes; ++n) {
      for (int g = 0; g < D; ++g) {
        int h = rk(n, g * per);
        p.await_ge(h, rdone(n, g),
                   static_cast<std::uint64_t>(size(g) - 1 + D - 1));
        p.write(h, res(n, g), 0, ring ? 2 * w : w);
      }
    }
  }

  // --- scatter: root puts node blocks into landing pairs, slices locally --
  /// @p src: shared buffer at the root (-1: a private user buffer).
  void scatter(int src = -1) {
    int org = -1, oput = -1;
    if (src >= 0 && sh.nodes == 2) {
      org = p.var(id("sorg"));
      oput = p.chan(id("soput"));
    }
    for (int c = 0; c < C(); ++c) {
      int s = c % 2;
      if (sh.nodes == 2) {
        int root = rk(0, 0);
        int freev = p.var(id("free.s" + num(s)), 1);
        p.wait_dec(root, freev, 1);
        p.send(root, src >= 0 ? oput : p.chan(id("put01")));
        if (src >= 0) {
          int a = adp(0);
          p.recv(a, oput);
          p.read(a, src, 0, W());
          p.add(a, org, 1);
          p.send(a, p.chan(id("put01")));
        }
        p.recv(nic(1), p.chan(id("put01")));
        p.write(nic(1), p.buf(id("land.s" + num(s))), 0, W());
        p.add(nic(1), p.var(id("arr.s" + num(s))), 1);
      }
      // Root node: distribute its own block slice-wise out of shared memory.
      smp_fill_chunk(0, c, src, /*slice=*/true);
      if (sh.nodes == 2) {
        int child = rk(1, 0);
        p.wait_dec(child, p.var(id("arr.s" + num(s))), 1);
        smp_shared_chunk(1, c, p.buf(id("land.s" + num(s))), /*slice=*/true);
        for (int l = 1; l < T(); ++l) p.await_eq(child, ready(1, s, l), 0);
        p.send(child, p.chan(id("cred10")));
        p.recv(nic(0), p.chan(id("cred10")));
        p.add(nic(0), p.var(id("free.s" + num(s)), 1), 1);
      }
    }
    if (src >= 0 && sh.nodes == 2) {
      p.wait_dec(rk(0, 0), org, static_cast<std::uint64_t>(C()));
    }
  }

  // --- gather: shared staging pair, filled/freed counters, direct puts ----
  /// Returns the root's receive buffer (allgather's bcast reads it).
  int gather() {
    int res = p.buf(id("grecv"));
    auto filled = [&](int n, int s) {
      return p.var(id("filled" + num(n) + ".s" + num(s)));
    };
    auto freed = [&](int n, int s) {
      return p.var(id("freed" + num(n) + ".s" + num(s)));
    };
    auto stage = [&](int n, int s) {
      return p.buf(id("stage" + num(n) + ".s" + num(s)));
    };
    int outorg = -1, oput1 = -1, gdata = -1, gdone = -1;
    if (sh.nodes == 2) {
      // Stage 0: the root announces its receive buffer to the child leader.
      p.send(rk(0, 0), p.chan(id("addr01")));
      p.recv(nic(1), p.chan(id("addr01")));
      p.add(nic(1), p.var(id("addrarr")), 1);
      p.wait_dec(rk(1, 0), p.var(id("addrarr")), 1);
      outorg = p.var(id("outorg"));
      oput1 = p.chan(id("oput1"));
      gdata = p.chan(id("gdata"));
      gdone = p.var(id("done"));
    }
    std::vector<int> inflight_slots;
    for (int c = 0; c < C(); ++c) {
      int s = c % 2;
      for (int n = 0; n < sh.nodes; ++n) {
        // Every local waits out the slot's previous occupants, writes its
        // slice, and bumps the filled counter.
        for (int l = 0; l < T(); ++l) {
          int t = rk(n, l);
          p.await_ge(t, freed(n, s), static_cast<std::uint64_t>(c / 2));
          p.write(t, stage(n, s), static_cast<std::uint64_t>(l),
                  static_cast<std::uint64_t>(l) + 1);
          p.add(t, filled(n, s), 1);
        }
        int ld = rk(n, 0);
        p.await_ge(ld, filled(n, s),
                   static_cast<std::uint64_t>(c / 2 + 1) *
                       static_cast<std::uint64_t>(T()));
        if (n == 0) {
          // Root node: straight into the receive buffer.
          p.read(ld, stage(0, s), 0, W());
          p.write(ld, res, 0, W());
          p.add(ld, freed(0, s), 1);
        } else {
          // Child leader: put the chunk into its final location; the freed
          // bump waits for the origin counter (adapter done with the slot).
          p.send(ld, oput1);
          int a = adp(1);
          p.recv(a, oput1);
          p.read(a, stage(1, s), 0, W());
          p.add(a, outorg, 1);
          p.send(a, gdata);
          p.recv(nic(0), gdata);
          p.write(nic(0), res, W(), 2 * W());
          p.add(nic(0), gdone, 1);
          inflight_slots.push_back(s);
          if (inflight_slots.size() >= 2) {
            p.wait_dec(ld, outorg, 1);
            p.add(ld, freed(1, inflight_slots.front()), 1);
            inflight_slots.erase(inflight_slots.begin());
          }
        }
      }
    }
    while (!inflight_slots.empty()) {
      p.wait_dec(rk(1, 0), outorg, 1);
      p.add(rk(1, 0), freed(1, inflight_slots.front()), 1);
      inflight_slots.erase(inflight_slots.begin());
    }
    if (sh.nodes == 2) {
      p.wait_dec(rk(0, 0), gdone, static_cast<std::uint64_t>(C()));
    }
    return res;
  }

  // --- single-copy (core/single_copy.cpp): shm::Mapping window handshake ---
  //
  // A window is {buf, pub flag, done counter}. publish = write buf + set pub
  // (release); attach = await pub (acquire); detach = done+=1; retract =
  // await done >= readers, then the owner's next write of the buffer — the
  // reuse that retract makes legal, and the access every retract bug races.

  /// Mapped SMP broadcast cascade on node n (smp_bcast_mapped): the owner
  /// exports its user buffer; with >= 3 tasks local 1 acts as the interior
  /// relay of the topology tree and re-exports its copy for the leaves.
  void mapped_cascade(int n) {
    if (T() == 1) return;  // nothing to fan out
    int owner = rk(n, 0);
    int win = p.buf(id("win" + num(n) + ".0"));
    int pubv = p.var(id("mpub" + num(n) + ".0"));
    int donev = p.var(id("mdone" + num(n) + ".0"));
    p.window(win, pubv, donev, owner);
    bool relay_on = T() >= 3;
    // Owner: publish (produce the data, then release the generation flag).
    p.write(owner, win, 0, W());
    p.set(owner, pubv, 1);
    if (!relay_on) {
      for (int l = 1; l < T(); ++l) {
        int t = rk(n, l);
        p.await_ge(t, pubv, 1);
        p.read(t, win, 0, W());
        p.add(t, donev, 1);
      }
    } else {
      int relay = rk(n, 1);
      p.await_ge(relay, pubv, 1);
      p.read(relay, win, 0, W());
      p.add(relay, donev, 1);  // detach before re-exporting, like the code
      int win2 = p.buf(id("win" + num(n) + ".1"));
      int pub2 = p.var(id("mpub" + num(n) + ".1"));
      int done2 = p.var(id("mdone" + num(n) + ".1"));
      p.window(win2, pub2, done2, relay);
      p.write(relay, win2, 0, W());
      p.set(relay, pub2, 1);
      for (int l = 2; l < T(); ++l) {
        int t = rk(n, l);
        p.await_ge(t, pub2, 1);
        p.read(t, win2, 0, W());
        p.add(t, done2, 1);
      }
      p.await_ge(relay, done2, static_cast<std::uint64_t>(T()) - 2);
      p.write(relay, win2, 0, W());  // retract: the buffer is private again
    }
    p.await_ge(owner, donev, relay_on ? 1 : static_cast<std::uint64_t>(T()) - 1);
    p.write(owner, win, 0, W());  // retract: owner may reuse immediately
  }

  /// Single-copy broadcast: root node fans out through one whole-message
  /// window (after the network puts are on the wire); a second node keeps
  /// the staged landing-pair protocol, exactly like bcast_small.
  void sc_bcast() {
    if (sh.nodes == 2) {
      int root = rk(0, 0), child = rk(1, 0);
      int put01 = p.chan(id("put01")), cred10 = p.chan(id("cred10"));
      for (int c = 0; c < C(); ++c) {
        int s = c % 2;
        int freev = p.var(id("free.s" + num(s)), 1);
        int arrv = p.var(id("arr.s" + num(s)));
        int land = p.buf(id("land.s" + num(s)));
        p.wait_dec(root, freev, 1);
        p.send(root, put01);  // sourced from the (private) user buffer
        p.recv(nic(1), put01);
        p.write(nic(1), land, 0, W());
        p.add(nic(1), arrv, 1);
        p.wait_dec(child, arrv, 1);
        smp_shared_chunk(1, c, land);
        for (int l = 1; l < T(); ++l) p.await_eq(child, ready(1, s, l), 0);
        p.send(child, cred10);
        p.recv(nic(0), cred10);
        p.add(nic(0), freev, 1);
      }
    }
    mapped_cascade(0);
  }

  /// Single-copy reduce: leaves export their send buffers once; with >= 3
  /// tasks local 1 is the interior vertex combining leaf windows into its
  /// sc_acc slot pair (gated like red_slot); the leader combines out of the
  /// relay's slots (or the leaf window directly) with no staging copy.
  int sc_reduce() {
    int res = p.buf(id("res0"));
    auto win = [&](int n, int l) {
      return p.buf(id("rwin" + num(n) + "[" + num(l) + "]"));
    };
    auto wpub = [&](int n, int l) {
      return p.var(id("rwpub" + num(n) + "[" + num(l) + "]"));
    };
    auto wdone = [&](int n, int l) {
      return p.var(id("rwdone" + num(n) + "[" + num(l) + "]"));
    };
    auto acc = [&](int n, int s) {
      return p.buf(id("acc" + num(n) + ".s" + num(s)));
    };
    auto apub = [&](int n) { return p.var(id("apub" + num(n))); };
    auto acons = [&](int n, int s) {
      return p.var(id("acons" + num(n) + ".s" + num(s)));
    };
    bool relay_on = T() >= 3;
    std::vector<int> leaves;
    for (int l = relay_on ? 2 : 1; l < T(); ++l) leaves.push_back(l);

    int redfree = -1, outorg = -1, oput1 = -1, data10 = -1, cred01 = -1;
    if (sh.nodes == 2) {
      redfree = p.var(id("free"), 2);
      outorg = p.var(id("outorg"));
      oput1 = p.chan(id("oput1"));
      data10 = p.chan(id("data10"));
      cred01 = p.chan(id("cred01"));
    }

    // Publish + attach once per operation, before the chunk loop: leaves
    // export their whole send buffer; the vertex above them acquires it.
    for (int n = 0; n < sh.nodes; ++n) {
      if (T() == 1) continue;
      for (int l : leaves) {
        int t = rk(n, l);
        p.window(win(n, l), wpub(n, l), wdone(n, l), t);
        p.write(t, win(n, l), 0, W());
        p.set(t, wpub(n, l), 1);
      }
      int rd = relay_on ? rk(n, 1) : rk(n, 0);
      for (int l : leaves) p.await_ge(rd, wpub(n, l), 1);
    }

    int inflight = 0;
    for (int c = 0; c < C(); ++c) {
      int s = c % 2;
      for (int n = 0; n < sh.nodes; ++n) {
        if (relay_on) {
          // Interior vertex: slot-reuse gate, combine straight out of the
          // leaf windows (no per-chunk wait — they are static), publish.
          int rl = rk(n, 1);
          if (c >= 2) {
            p.await_ge(rl, acons(n, s), static_cast<std::uint64_t>(c / 2));
          }
          for (int l : leaves) p.read(rl, win(n, l), 0, W());
          p.write(rl, acc(n, s), 0, W());
          p.add(rl, apub(n), 1);
        }
        int ld = rk(n, 0);
        if (n == 1 && inflight == 2) {
          p.wait_dec(ld, outorg, 1);
          --inflight;
        }
        int dst = n == 0 ? res : p.buf(id("out.s" + num(s)));
        if (T() == 1) {
          p.write(ld, dst, 0, W());
        } else if (relay_on) {
          p.await_ge(ld, apub(n), static_cast<std::uint64_t>(c) + 1);
          p.read(ld, acc(n, s), 0, W());
          p.write(ld, dst, 0, W());
          p.add(ld, acons(n, s), 1);
        } else {
          p.read(ld, win(n, 1), 0, W());  // leaf window, attached up front
          p.write(ld, dst, 0, W());
        }
      }
      if (sh.nodes == 2) {
        int child = rk(1, 0), ld0 = rk(0, 0);
        int out = p.buf(id("out.s" + num(s)));
        int rland = p.buf(id("land.s" + num(s)));
        int arrived = p.var(id("arr"));
        p.wait_dec(child, redfree, 1);
        p.send(child, oput1);
        ++inflight;
        int a = adp(1);
        p.recv(a, oput1);
        p.read(a, out, 0, W());
        p.add(a, outorg, 1);
        p.send(a, data10);
        p.recv(nic(0), data10);
        p.write(nic(0), rland, 0, W());
        p.add(nic(0), arrived, 1);
        p.wait_dec(ld0, arrived, 1);
        p.read(ld0, rland, 0, W());
        p.write(ld0, res, 0, W());
        p.send(ld0, cred01);
        p.recv(nic(1), cred01);
        p.add(nic(1), redfree, 1);
      }
    }
    if (inflight > 0) {
      p.wait_dec(rk(1, 0), outorg, static_cast<std::uint64_t>(inflight));
    }
    // Detach + retract: only after the reader's counter may a leaf reuse
    // its send buffer.
    for (int n = 0; n < sh.nodes; ++n) {
      if (T() == 1) continue;
      int rd = relay_on ? rk(n, 1) : rk(n, 0);
      for (int l : leaves) p.add(rd, wdone(n, l), 1);
      for (int l : leaves) {
        int t = rk(n, l);
        p.await_ge(t, wdone(n, l), 1);
        p.write(t, win(n, l), 0, W());
      }
    }
    return res;
  }

  /// Single-copy scatter: the root exports its own node block before the
  /// network loop; root-node peers pull their slice straight out of the
  /// window; a second node keeps the staged slice protocol.
  void sc_scatter() {
    int root = rk(0, 0);
    int win = p.buf(id("swin0"));
    int pubv = p.var(id("spub0"));
    int donev = p.var(id("sdone0"));
    p.window(win, pubv, donev, root);
    p.write(root, win, 0, W());
    p.set(root, pubv, 1);
    for (int c = 0; c < C(); ++c) {
      int s = c % 2;
      if (sh.nodes == 2) {
        int freev = p.var(id("free.s" + num(s)), 1);
        p.wait_dec(root, freev, 1);
        p.send(root, p.chan(id("put01")));  // other node's block: private
        p.recv(nic(1), p.chan(id("put01")));
        p.write(nic(1), p.buf(id("land.s" + num(s))), 0, W());
        p.add(nic(1), p.var(id("arr.s" + num(s))), 1);
        int child = rk(1, 0);
        p.wait_dec(child, p.var(id("arr.s" + num(s))), 1);
        smp_shared_chunk(1, c, p.buf(id("land.s" + num(s))), /*slice=*/true);
        for (int l = 1; l < T(); ++l) p.await_eq(child, ready(1, s, l), 0);
        p.send(child, p.chan(id("cred10")));
        p.recv(nic(0), p.chan(id("cred10")));
        p.add(nic(0), p.var(id("free.s" + num(s)), 1), 1);
      }
    }
    for (int l = 1; l < T(); ++l) {
      int t = rk(0, l);
      p.await_ge(t, pubv, 1);
      p.read(t, win, static_cast<std::uint64_t>(l),
             static_cast<std::uint64_t>(l) + 1);
      p.add(t, donev, 1);
    }
    p.read(root, win, 0, 1);  // root's own slice
    if (T() > 1) {
      p.await_ge(root, donev, static_cast<std::uint64_t>(T()) - 1);
    }
    p.write(root, win, 0, W());  // retract: the send buffer is reusable
  }

  /// Single-copy gather: root-node locals export their send blocks; the
  /// root pulls each straight into the receive buffer (no staging slot);
  /// a second node keeps the staged filled/freed protocol.
  int sc_gather() {
    int res = p.buf(id("grecv"));
    int root = rk(0, 0);
    auto win = [&](int l) { return p.buf(id("gwin0[" + num(l) + "]")); };
    auto wpub = [&](int l) { return p.var(id("gwpub0[" + num(l) + "]")); };
    auto wdone = [&](int l) { return p.var(id("gwdone0[" + num(l) + "]")); };
    for (int l = 1; l < T(); ++l) {
      int t = rk(0, l);
      p.window(win(l), wpub(l), wdone(l), t);
      p.write(t, win(l), 0, 1);
      p.set(t, wpub(l), 1);
    }
    p.write(root, res, 0, 1);  // root's own block
    for (int l = 1; l < T(); ++l) {
      p.await_ge(root, wpub(l), 1);
      p.read(root, win(l), 0, 1);
      p.write(root, res, static_cast<std::uint64_t>(l),
              static_cast<std::uint64_t>(l) + 1);
      p.add(root, wdone(l), 1);
    }
    for (int l = 1; l < T(); ++l) {
      int t = rk(0, l);
      p.await_ge(t, wdone(l), 1);
      p.write(t, win(l), 0, 1);  // retract: reuse the send buffer
    }
    if (sh.nodes == 2) {
      // The child node ships its blocks with the staged protocol: address
      // announce, staging pair with filled/freed counters, direct puts.
      auto filled = [&](int s) { return p.var(id("filled1.s" + num(s))); };
      auto freed = [&](int s) { return p.var(id("freed1.s" + num(s))); };
      auto stage = [&](int s) { return p.buf(id("stage1.s" + num(s))); };
      p.send(root, p.chan(id("addr01")));
      p.recv(nic(1), p.chan(id("addr01")));
      p.add(nic(1), p.var(id("addrarr")), 1);
      p.wait_dec(rk(1, 0), p.var(id("addrarr")), 1);
      int outorg = p.var(id("outorg"));
      int oput1 = p.chan(id("oput1"));
      int gdata = p.chan(id("gdata"));
      int gdone = p.var(id("done"));
      std::vector<int> inflight_slots;
      for (int c = 0; c < C(); ++c) {
        int s = c % 2;
        for (int l = 0; l < T(); ++l) {
          int t = rk(1, l);
          p.await_ge(t, freed(s), static_cast<std::uint64_t>(c / 2));
          p.write(t, stage(s), static_cast<std::uint64_t>(l),
                  static_cast<std::uint64_t>(l) + 1);
          p.add(t, filled(s), 1);
        }
        int ld = rk(1, 0);
        p.await_ge(ld, filled(s),
                   static_cast<std::uint64_t>(c / 2 + 1) *
                       static_cast<std::uint64_t>(T()));
        p.send(ld, oput1);
        int a = adp(1);
        p.recv(a, oput1);
        p.read(a, stage(s), 0, W());
        p.add(a, outorg, 1);
        p.send(a, gdata);
        p.recv(nic(0), gdata);
        p.write(nic(0), res, W(), 2 * W());
        p.add(nic(0), gdone, 1);
        inflight_slots.push_back(s);
        if (inflight_slots.size() >= 2) {
          p.wait_dec(ld, outorg, 1);
          p.add(ld, freed(inflight_slots.front()), 1);
          inflight_slots.erase(inflight_slots.begin());
        }
      }
      while (!inflight_slots.empty()) {
        p.wait_dec(rk(1, 0), outorg, 1);
        p.add(rk(1, 0), freed(inflight_slots.front()), 1);
        inflight_slots.erase(inflight_slots.begin());
      }
      p.wait_dec(root, gdone, static_cast<std::uint64_t>(C()));
    }
    return res;
  }

  // --- root-free reduce_scatter (core/reduce_scatter.cpp) ------------------
  /// Each socket (the tasks split as in consume_chunk) is a domain whose
  /// head, its first local, combines its members' red_slot chunks (flat
  /// fan-in) into its own slot for every step of every node's segment:
  /// round 0 its own node's, round 1 (on two nodes) the peer's, which the
  /// head puts into the peer's landing slots of its domain (K of them,
  /// Shape::slots), one credit per slot, granted by the peer's head and
  /// returned once read. Every owner reads its byte of each domain's
  /// partial: the heads' slots in round 0, the landing slots in round 1,
  /// where local 0 receives the put and raises the landed count for the
  /// others. The thread r<n>.ret<g> stands for whichever owner's read
  /// completes a slot's count and returns the slot: the head's (cons) or
  /// the landing slot's credit. The model counts each owner's reads on its
  /// own counter, which orders them before the return exactly as the
  /// shared count does, without making every owner's add a scheduling
  /// conflict. Only the round-0 chunks a head publishes are awaited, so it
  /// publishes only those. Ranks run their chain step s, then their owner
  /// work for step s - lag (1 for a head, 2 for a member one level down).
  ///
  /// With @p shares (sc_reduce_scatter) every local of a domain of m
  /// exports its send buffer as a window, attaches its mates', and for
  /// each step reduces its share, bytes [r*W/m, (r+1)*W/m) of the head's
  /// slot, out of its mates' windows, after awaiting the slot's consumed
  /// count itself; it then adds one to the slot's share count, which the
  /// head awaits before it publishes or puts. Every rank's owner work
  /// trails by one step. With @p one_count (a gauntlet mutant) both slots
  /// share one count, awaited at each slot's own target.
  void rs_direct(bool shares, bool one_count = false) {
    const int N = sh.nodes;
    const int per = (T() + sh.sockets - 1) / sh.sockets;
    const int D = (T() + per - 1) / per;
    const int steps = N * C();
    const int J = (N - 1) * C();  // landing chunks per domain
    const int K = sh.slots > 0 ? sh.slots : 2;
    auto tag = [&](int n, int g) { return num(n) + ".g" + num(g); };
    auto pub = [&](int n, int l) {
      return p.var(id("rpub" + num(n) + "[" + num(l) + "]"));
    };
    auto cons = [&](int n, int s, int l) {
      return p.var(id("rcons" + num(n) + ".s" + num(s) + "[" + num(l) + "]"));
    };
    auto slot = [&](int n, int s, int l) {
      return p.buf(id("rslot" + num(n) + ".s" + num(s) + "[" + num(l) + "]"));
    };
    auto land = [&](int n, int g, int s) {
      return p.buf(id("rland" + tag(n, g) + ".s" + num(s)));
    };
    auto var = [&](const std::string& stem, int n, int g, int s) {
      return p.var(id(stem + tag(n, g) + ".s" + num(s)));
    };
    auto adp_g = [&](int n, int g) {
      return p.thread("adp" + num(n) + "." + num(g));
    };
    auto nic_data = [&](int n, int g) {
      return p.thread("nic" + num(n) + ".d" + num(g));
    };
    auto nic_cred = [&](int n, int g) {
      return p.thread("nic" + num(n) + ".c" + num(g));
    };
    auto ret = [&](int n, int g) {
      return p.thread("r" + num(n) + ".ret" + num(g));
    };
    auto oput = [&](int n, int g) { return p.chan(id("roput" + tag(n, g))); };
    auto data = [&](int n, int g) { return p.chan(id("rdata" + tag(n, g))); };
    // Credits for node n's puts of domain g into the peer's pair.
    auto cred = [&](int n, int g) { return p.chan(id("rcred" + tag(n, g))); };

    auto loc = [&](int n, int l) { return num(n) + "[" + num(l) + "]"; };
    auto win = [&](int n, int l) { return p.buf(id("rswin" + loc(n, l))); };
    auto wpub = [&](int n, int l) { return p.var(id("rswpub" + loc(n, l))); };
    auto wdone = [&](int n, int l) {
      return p.var(id("rswdone" + loc(n, l)));
    };
    auto share = [&](int n, int g, int s) {
      return one_count ? p.var(id("rshare" + tag(n, g)))
                       : var("rshare", n, g, s);
    };
    // Share form: every local of a domain of two or more exports its send
    // buffer.
    for (int n = 0; shares && n < N; ++n) {
      for (int l = 0; l < T(); ++l) {
        int h = l / per * per;
        if (std::min(T(), h + per) - h < 2) continue;
        int t = rk(n, l);
        p.window(win(n, l), wpub(n, l), wdone(n, l), t);
        p.write(t, win(n, l), 0, W());
        p.set(t, wpub(n, l), 1);
      }
    }

    for (int n = 0; n < N; ++n) {
      for (int l = 0; l < T(); ++l) {
        int t = rk(n, l);
        int g = l / per;
        int h = g * per;
        int last = std::min(T(), h + per);
        int m = last - h;
        bool head = l == h;
        int lag = head || shares ? 1 : 2;
        std::vector<int> inflight;  // steps whose put may read the slot
        if (head) {
          for (int j = 0; j < std::min(J, K); ++j) p.send(t, cred(1 - n, g));
        }
        // Share form: my share of a step, read out of every mate's window
        // into my head's slot. Each read follows the check of the mate's
        // publish flag (the attach, at the first step): what a read
        // consumes is the window, not a count.
        auto reduce_share = [&](int sp) {
          auto lo = static_cast<std::uint64_t>(l - h) * W() /
                    static_cast<std::uint64_t>(m);
          auto hi = static_cast<std::uint64_t>(l - h + 1) * W() /
                    static_cast<std::uint64_t>(m);
          for (int o = h; o < last; ++o) {
            if (o == l) continue;
            p.await_ge(t, wpub(n, o), 1);
            p.read(t, win(n, o), lo, hi);
          }
          p.write(t, slot(n, sp, h), lo, hi);
          p.add(t, share(n, g, sp), 1);
        };
        auto chain = [&](int s) {
          int sp = s % 2;
          if (head) {
            while (!inflight.empty() && inflight.front() + 2 <= s) {
              p.wait_dec(t, p.var(id("rorg" + tag(n, g))), 1);
              p.add(t, cons(n, inflight.front() % 2, h), 1);
              inflight.erase(inflight.begin());
            }
          }
          if (s >= 2) {
            p.await_ge(t, cons(n, sp, shares ? h : l),
                       static_cast<std::uint64_t>(s / 2));
          }
          if (shares) {
            reduce_share(sp);
            if (!head) return;
            p.await_ge(t, share(n, g, sp),
                       static_cast<std::uint64_t>(m * (s / 2 + 1)));
          } else if (!head) {
            p.write(t, slot(n, sp, l), 0, W());
            p.add(t, pub(n, l), 1);
            return;
          } else {
            if (last == h + 1) p.write(t, slot(n, sp, h), 0, W());
            for (int o = h + 1; o < last; ++o) {
              p.await_ge(t, pub(n, o), static_cast<std::uint64_t>(s) + 1);
              p.read(t, slot(n, sp, o), 0, W());
              p.write(t, slot(n, sp, h), 0, W());
              p.add(t, cons(n, sp, o), 1);
            }
          }
          if (s < C()) {
            p.add(t, pub(n, h), 1);
            return;
          }
          int j = s - C();
          p.wait_dec(t, var("rfree", n, g, j % K), 1);
          p.send(t, oput(n, g));
          inflight.push_back(s);
          int a = adp_g(n, g);
          p.recv(a, oput(n, g));
          p.read(a, slot(n, sp, h), 0, W());
          p.add(a, p.var(id("rorg" + tag(n, g))), 1);
          p.send(a, data(n, g));
          int d = nic_data(1 - n, g);
          p.recv(d, data(n, g));
          p.write(d, land(1 - n, g, j % K), 0, W());
          p.add(d, var("rarr", 1 - n, g, j % K), 1);
        };
        auto owner = [&](int s) {
          auto lo = static_cast<std::uint64_t>(l);
          for (int gg = 0; gg < D; ++gg) {
            if (s < C()) {
              int hh = gg * per;
              p.await_ge(t, pub(n, hh), static_cast<std::uint64_t>(s) + 1);
              p.read(t, slot(n, s % 2, hh), lo, lo + 1);
              p.add(t, var("rown" + num(l) + "@", n, gg, s % 2), 1);
              continue;
            }
            int j = s - C();
            if (l == 0) {
              p.wait_dec(t, var("rarr", n, gg, j % K), 1);
              p.add(t, var("rlanded", n, gg, j % K), 1);
            } else {
              p.await_ge(t, var("rlanded", n, gg, j % K),
                         static_cast<std::uint64_t>(j / K) + 1);
            }
            p.read(t, land(n, gg, j % K), lo, lo + 1);
            p.add(t, var("rread" + num(l) + "@", n, gg, j % K), 1);
          }
        };
        for (int s = 0; s < steps; ++s) {
          chain(s);
          if (s >= lag) owner(s - lag);
        }
        for (int s = std::max(0, steps - lag); s < steps; ++s) owner(s);
        while (!inflight.empty()) {
          p.wait_dec(t, p.var(id("rorg" + tag(n, g))), 1);
          p.add(t, cons(n, inflight.front() % 2, h), 1);
          inflight.erase(inflight.begin());
        }
        // Share form: detach the mates' windows, then retract my own.
        if (shares && m > 1) {
          for (int o = h; o < last; ++o) {
            if (o != l) p.add(t, wdone(n, o), 1);
          }
          p.await_ge(t, wdone(n, l), static_cast<std::uint64_t>(m - 1));
          p.write(t, win(n, l), 0, W());
        }
      }
      // The slot returns, in step order (a later step's reads complete
      // only after every owner finished the earlier one's).
      auto all_read = [&](int r, const std::string& stem, int g, int c,
                          int slots) {
        for (int l = 0; l < T(); ++l) {
          p.await_ge(r, var(stem + num(l) + "@", n, g, c % slots),
                     static_cast<std::uint64_t>(c / slots + 1));
        }
      };
      for (int g = 0; g < D; ++g) {
        int r = ret(n, g);
        for (int s = 0; s < C(); ++s) {
          all_read(r, "rown", g, s, 2);
          p.add(r, cons(n, s % 2, g * per), 1);
        }
        for (int j = 0; j < J; ++j) {
          all_read(r, "rread", g, j, K);
          if (j + K < J) p.send(r, cred(1 - n, g));
        }
        for (int j = 0; j < J; ++j) {
          int c = nic_cred(n, g);
          p.recv(c, cred(n, g));
          p.add(c, var("rfree", n, g, j % K), 1);
        }
      }
    }
  }
};

void emit(Program& p, Proto op, const Shape& sh) {
  switch (op) {
    case Proto::barrier:
      Builder{p, sh, ""}.barrier();
      break;
    case Proto::bcast:
      Builder{p, sh, ""}.bcast();
      break;
    case Proto::reduce:
      Builder{p, sh, ""}.reduce();
      break;
    case Proto::allreduce:
      Builder{p, sh, ""}.allreduce();
      break;
    case Proto::scatter:
      Builder{p, sh, ""}.scatter();
      break;
    case Proto::gather:
      Builder{p, sh, ""}.gather();
      break;
    case Proto::allgather: {
      int res = Builder{p, sh, "ga."}.gather();
      // The broadcast ships the whole gathered buffer, all nodes' slices.
      Builder{p, sh, "bc."}.bcast(res, static_cast<std::uint64_t>(sh.nodes) *
                                           static_cast<std::uint64_t>(sh.tasks));
      break;
    }
    case Proto::reduce_scatter: {
      int res = Builder{p, sh, "rd."}.reduce();
      Builder{p, sh, "sc."}.scatter(res);
      break;
    }
    case Proto::sc_bcast:
      Builder{p, sh, ""}.sc_bcast();
      break;
    case Proto::sc_reduce:
      Builder{p, sh, ""}.sc_reduce();
      break;
    case Proto::sc_scatter:
      Builder{p, sh, ""}.sc_scatter();
      break;
    case Proto::sc_gather:
      Builder{p, sh, ""}.sc_gather();
      break;
    case Proto::ring_allreduce:
      Builder{p, sh, ""}.ring_allreduce();
      break;
    case Proto::rh_allreduce:
      Builder{p, sh, ""}.rh_allreduce();
      break;
    case Proto::sa_bcast:
      Builder{p, sh, ""}.sa_bcast();
      break;
    case Proto::rs_direct:
      Builder{p, sh, ""}.rs_direct(/*shares=*/false);
      break;
    case Proto::sc_reduce_scatter:
      Builder{p, sh, ""}.rs_direct(/*shares=*/true);
      break;
    case Proto::ag_direct:
      Builder{p, sh, ""}.ag_direct();
      break;
    case Proto::sc_allgather:
      Builder{p, sh, ""}.sc_allgather();
      break;
  }
}

Mutant make_mutant(const std::string& name, Proto op, Shape sh, bool race,
                   bool deadlock) {
  Mutant m;
  m.name = name;
  m.proto = op;
  m.shape = sh;
  m.program = build(op, sh);
  m.program.name = name;
  m.expect_race = race;
  m.expect_deadlock = deadlock;
  return m;
}

}  // namespace

std::string Shape::to_string() const {
  return std::to_string(nodes) + "x" + std::to_string(tasks) + "c" +
         std::to_string(chunks) +
         (sockets > 1 ? "s" + std::to_string(sockets) : "") +
         (slots > 0 ? "k" + std::to_string(slots) : "");
}

const char* proto_name(Proto p) {
  switch (p) {
    case Proto::barrier: return "barrier";
    case Proto::bcast: return "bcast";
    case Proto::reduce: return "reduce";
    case Proto::allreduce: return "allreduce";
    case Proto::scatter: return "scatter";
    case Proto::gather: return "gather";
    case Proto::allgather: return "allgather";
    case Proto::reduce_scatter: return "reduce_scatter";
    case Proto::sc_bcast: return "sc_bcast";
    case Proto::sc_reduce: return "sc_reduce";
    case Proto::sc_scatter: return "sc_scatter";
    case Proto::sc_gather: return "sc_gather";
    case Proto::ring_allreduce: return "ring_allreduce";
    case Proto::rh_allreduce: return "rh_allreduce";
    case Proto::sa_bcast: return "sa_bcast";
    case Proto::rs_direct: return "rs_direct";
    case Proto::ag_direct: return "ag_direct";
    case Proto::sc_allgather: return "sc_allgather";
    case Proto::sc_reduce_scatter: return "sc_reduce_scatter";
  }
  return "?";
}

const std::vector<Proto>& all_protos() {
  static const std::vector<Proto> kAll = {
      Proto::barrier,        Proto::bcast,          Proto::reduce,
      Proto::allreduce,      Proto::scatter,        Proto::gather,
      Proto::allgather,      Proto::reduce_scatter, Proto::sc_bcast,
      Proto::sc_reduce,      Proto::sc_scatter,     Proto::sc_gather,
      Proto::ring_allreduce, Proto::rh_allreduce,   Proto::sa_bcast,
      Proto::rs_direct,      Proto::ag_direct,      Proto::sc_allgather,
      Proto::sc_reduce_scatter};
  return kAll;
}

Program build(Proto op, const Shape& sh) {
  SRM_CHECK_MSG(sh.nodes == 1 || sh.nodes == 2,
                "mc model supports 1 or 2 nodes, got " << sh.nodes);
  SRM_CHECK_MSG(sh.tasks >= 1 && sh.chunks >= 1 && sh.sockets >= 1,
                "bad shape " << sh.to_string());
  Program p;
  p.name = std::string(proto_name(op)) + "@" + sh.to_string();
  emit(p, op, sh);
  p.validate();
  return p;
}

std::vector<Mutant> mutation_gauntlet() {
  std::vector<Mutant> out;
  auto add = [&out](Mutant m) { out.push_back(std::move(m)); };

  // Fig. 3 broadcast: a child-node consumer that never clears READY wedges
  // the child leader's credit-return gate, so the credit never flows back.
  {
    Mutant m = make_mutant("bcast.drop_ready_clear", Proto::bcast,
                           Shape{2, 2, 1}, false, true);
    m.program.drop_op("r1.1", "ready1.s0[1]:=0");
    add(std::move(m));
  }
  // A leader that skips the slot-reuse acquire refills over the straggler's
  // read; schedules where the straggler instead sees the refilled flag late
  // strand it behind a flag nobody sets again, so both defects manifest.
  {
    Mutant m = make_mutant("bcast.refill_before_clear", Proto::bcast,
                           Shape{1, 2, 3}, true, true);
    m.program.drop_last_op("r0.0", "await ready0.s0[1]==0");
    add(std::move(m));
  }
  // Flat barrier: a worker that never signals, and a master that never
  // releases, both wedge the node.
  {
    Mutant m = make_mutant("barrier.drop_worker_signal", Proto::barrier,
                           Shape{1, 2, 1}, false, true);
    m.program.drop_op("r0.1", "bar0[1]:=1");
    add(std::move(m));
  }
  {
    Mutant m = make_mutant("barrier.drop_release", Proto::barrier,
                           Shape{1, 2, 1}, false, true);
    m.program.drop_op("r0.0", "bar0[1]:=0");
    add(std::move(m));
  }
  // Recursive doubling: a dropped zero-byte put stalls the partner's round.
  {
    Mutant m = make_mutant("barrier.drop_round_signal", Proto::barrier,
                           Shape{2, 1, 1}, false, true);
    m.program.drop_op("r0.0", "send sig0");
    add(std::move(m));
  }
  // Fig. 2 reduce: publishing the slot before writing it lets the leader
  // combine garbage (reordered counter bump).
  {
    Mutant m = make_mutant("reduce.publish_before_write", Proto::reduce,
                           Shape{1, 2, 1}, true, false);
    m.program.swap_with_prev("r0.1", "pub0[1]+=1");
    add(std::move(m));
  }
  // Fig. 2 slot reuse: skipping the consumed-counter gate overwrites a slot
  // the leader is still combining from.
  {
    Mutant m = make_mutant("reduce.drop_consumed_gate", Proto::reduce,
                           Shape{1, 2, 3}, true, false);
    m.program.drop_op("r0.1", "await cons0.s0[1]>=1");
    add(std::move(m));
  }
  // Inter-node reduce: a skipped landing credit lets the child's put deposit
  // over a slot the root is still reading.
  {
    Mutant m = make_mutant("reduce.drop_credit_wait", Proto::reduce,
                           Shape{2, 1, 3}, true, false);
    m.program.drop_op("r1.0", "waitdec free-1");
    add(std::move(m));
  }
  // Allreduce: combining into the result buffer while it is still the
  // source of an in-flight put (skipped origin-counter wait).
  {
    Mutant m = make_mutant("allreduce.drop_origin_wait", Proto::allreduce,
                           Shape{2, 1, 1}, true, false);
    m.program.drop_op("r0.0", "waitdec org0-1");
    add(std::move(m));
  }
  // Allreduce: the NIC signalling arrival before the deposit is complete.
  {
    Mutant m = make_mutant("allreduce.signal_before_deposit",
                           Proto::allreduce, Shape{2, 1, 1}, true, false);
    m.program.swap_with_prev("nic1", "arr1+=1");
    add(std::move(m));
  }
  // Gather: the leader moving a chunk before all local slices arrived.
  {
    Mutant m = make_mutant("gather.drop_filled_wait", Proto::gather,
                           Shape{1, 2, 1}, true, false);
    m.program.drop_op("r0.0", "await filled0.s0>=2");
    add(std::move(m));
  }
  // Gather staging reuse: a local skipping the freed gate overwrites a slot
  // the leader is still shipping.
  {
    Mutant m = make_mutant("gather.drop_freed_gate", Proto::gather,
                           Shape{1, 2, 3}, true, false);
    m.program.drop_op("r0.1", "await freed0.s0>=1");
    add(std::move(m));
  }
  // Allgather: broadcasting the gathered buffer before the last remote
  // chunks landed in it.
  {
    Mutant m = make_mutant("allgather.drop_done_wait", Proto::allgather,
                           Shape{2, 1, 1}, true, false);
    m.program.drop_op("r0.0", "waitdec ga.done-1");
    add(std::move(m));
  }
  // Scatter: returning the landing credit before the consumers cleared
  // READY lets the root's next put race the stragglers.
  {
    Mutant m = make_mutant("scatter.credit_before_clear", Proto::scatter,
                           Shape{2, 2, 3}, true, false);
    m.program.swap_with_prev("r1.0", "send cred10");
    add(std::move(m));
  }
  // Mapped broadcast: the owner reusing its buffer without awaiting the
  // readers' detach counters (skipped retract) races the window pulls.
  {
    Mutant m = make_mutant("sc_bcast.reuse_before_retract", Proto::sc_bcast,
                           Shape{1, 2, 1}, true, false);
    m.program.drop_op("r0.0", "await mdone0.0>=1");
    add(std::move(m));
  }
  // Mapped broadcast: a leaf attaching without the publish acquire reads
  // the relay's re-exported window before (or while) the relay fills it.
  {
    Mutant m = make_mutant("sc_bcast.attach_before_publish", Proto::sc_bcast,
                           Shape{1, 3, 1}, true, false);
    m.program.drop_op("r0.2", "await mpub0.1>=1");
    add(std::move(m));
  }
  // Mapped broadcast: a reader that never detaches wedges the owner's
  // retract forever.
  {
    Mutant m = make_mutant("sc_bcast.drop_detach", Proto::sc_bcast,
                           Shape{1, 2, 1}, false, true);
    m.program.drop_op("r0.1", "mdone0.0+=1");
    add(std::move(m));
  }
  // Mapped reduce: a leaf releasing the publish flag before writing its
  // send buffer lets the reader combine garbage.
  {
    Mutant m = make_mutant("sc_reduce.publish_before_write", Proto::sc_reduce,
                           Shape{1, 2, 1}, true, false);
    m.program.swap_with_prev("r0.1", "rwpub0[1]:=1");
    add(std::move(m));
  }
  // Mapped reduce: the reader never detaching wedges the leaf's retract.
  {
    Mutant m = make_mutant("sc_reduce.drop_detach", Proto::sc_reduce,
                           Shape{1, 2, 1}, false, true);
    m.program.drop_op("r0.0", "rwdone0[1]+=1");
    add(std::move(m));
  }
  // Mapped reduce slot reuse: the interior vertex skipping the consumed
  // gate overwrites an accumulator slot the leader is still reading.
  {
    Mutant m = make_mutant("sc_reduce.drop_acons_gate", Proto::sc_reduce,
                           Shape{1, 3, 3}, true, false);
    m.program.drop_op("r0.1", "await acons0.s0>=1");
    add(std::move(m));
  }
  // Mapped scatter: the root reusing its send buffer before all slices
  // were pulled out of the window.
  {
    Mutant m = make_mutant("sc_scatter.reuse_before_retract",
                           Proto::sc_scatter, Shape{1, 2, 1}, true, false);
    m.program.drop_op("r0.0", "await sdone0>=1");
    add(std::move(m));
  }
  // Mapped gather: a local releasing the publish flag before writing its
  // block lets the root assemble garbage.
  {
    Mutant m = make_mutant("sc_gather.publish_before_write", Proto::sc_gather,
                           Shape{1, 2, 1}, true, false);
    m.program.swap_with_prev("r0.1", "gwpub0[1]:=1");
    add(std::move(m));
  }
  // Ring allreduce: combining into the owned block while it is still the
  // source of the in-flight reduce-scatter put (skipped origin wait).
  {
    Mutant m = make_mutant("ring_allreduce.drop_origin_wait",
                           Proto::ring_allreduce, Shape{2, 1, 1}, true, false);
    m.program.drop_op("r0.0", "waitdec rsorg0-1");
    add(std::move(m));
  }
  // Recursive halving: the NIC signalling the half's arrival before the
  // deposit is complete lets the master fold garbage in.
  {
    Mutant m = make_mutant("rh_allreduce.signal_before_deposit",
                           Proto::rh_allreduce, Shape{2, 1, 1}, true, false);
    m.program.swap_with_prev("nic1", "hxarr1+=1");
    add(std::move(m));
  }
  // Scatter+allgather bcast: forwarding the scattered block before its
  // arrival counter fires reads a landing buffer the NIC is still filling.
  {
    Mutant m = make_mutant("sa_bcast.forward_before_arrival", Proto::sa_bcast,
                           Shape{2, 1, 1}, true, false);
    m.program.drop_op("r1.0", "waitdec scarr-1");
    add(std::move(m));
  }
  // Socket-aware Fig. 3 publish: a far reader that reads its socket's far
  // buffer without awaiting every member's slice races the slice copies.
  {
    Mutant m = make_mutant("bcast.drop_far_slice_wait", Proto::bcast,
                           Shape{1, 4, 1, 2}, true, false);
    m.program.drop_op("r0.3", "await farfill0.g1.s0>=2");
    add(std::move(m));
  }
  // Root-free reduce_scatter: an owner that combines a landed partial
  // without awaiting the receiver's landed count reads the landing slot
  // while the NIC may still be depositing the last source's partial.
  {
    Mutant m = make_mutant("rs_direct.drop_landed_wait", Proto::rs_direct,
                           Shape{2, 2, 1}, true, false);
    m.program.drop_op("r0.1", "await rlanded0.g0.s0>=1");
    add(std::move(m));
  }
  // Root-free reduce_scatter, share form: one share count for both of the
  // head's slots. The count totals every step's shares, so the shares of
  // step 0 already meet step 1's target: the head puts step 1 while its
  // mate still writes its share of it.
  {
    Mutant m = make_mutant("sc_reduce_scatter.one_share_count",
                           Proto::sc_reduce_scatter, Shape{2, 2, 1}, true,
                           false);
    m.program = Program{};
    m.program.name = m.name;
    Builder{m.program, m.shape, ""}.rs_direct(/*shares=*/true,
                                             /*one_count=*/true);
    m.program.validate();
    add(std::move(m));
  }
  // Root-free allgather: a leader that publishes the ring block before its
  // arrival counter fires reads its buffer while the NIC deposits there.
  {
    Mutant m = make_mutant("ag_direct.publish_before_arrival",
                           Proto::ag_direct, Shape{2, 2, 1}, true, false);
    m.program.drop_op("r0.0", "waitdec aggot0-1");
    add(std::move(m));
  }
  // Mapped root-free allgather: a reader that copies the peer's segment
  // before its socket's head flagged it reads the head's window while the
  // NIC deposits there.
  {
    Mutant m = make_mutant("sc_allgather.copy_before_ready",
                           Proto::sc_allgather, Shape{2, 2, 1}, true, false);
    m.program.drop_op("r0.1", "await sgready0.g0>=2");
    add(std::move(m));
  }
  // Mapped root-free allgather: a head that forwards its own segment
  // before its group's assembled count covers every local's share lets
  // the adapter read the window while a local still writes its block.
  {
    Mutant m = make_mutant("sc_allgather.forward_before_assembled",
                           Proto::sc_allgather, Shape{2, 2, 1}, true, false);
    m.program.drop_op("r0.0", "await sgasm0.g0>=1");
    add(std::move(m));
  }
  // Scatter+allgather bcast: a dropped scatter-arrival signal wedges the
  // child's forward, and with it the root's assembly.
  {
    Mutant m = make_mutant("sa_bcast.drop_scatter_signal", Proto::sa_bcast,
                           Shape{2, 1, 1}, false, true);
    m.program.drop_op("nic1", "scarr+=1");
    add(std::move(m));
  }
  return out;
}

}  // namespace srm::mc
