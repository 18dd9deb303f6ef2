// FramePool: size-bucketed free lists for coroutine frames.
//
// Every simulated activity is a coroutine; a mega-scale run creates and
// destroys hundreds of millions of frames of a handful of distinct sizes
// (one per coroutine function). Routing frame allocation through a
// recycling pool removes the general-purpose allocator from the hot path
// and keeps frame storage warm in cache.
//
// The pool is thread_local (the simulator is single-threaded; tests that
// run engines on several threads each get an independent pool) and
// intentionally never returns memory to the OS until thread exit — frame
// population is at its maximum mid-run anyway.
//
// Under AddressSanitizer the pool degrades to plain new/delete so
// use-after-free of coroutine frames stays detectable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>

namespace srm::sim {

#if defined(__SANITIZE_ADDRESS__)
#define SRM_FRAME_POOL_DISABLED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SRM_FRAME_POOL_DISABLED 1
#endif
#endif

class FramePool {
 public:
  struct Stats {
    std::uint64_t allocs = 0;   // total frame allocations
    std::uint64_t reused = 0;   // served from a free list
    std::uint64_t oversize = 0; // larger than the biggest size class
  };

  static void* allocate(std::size_t n) {
#ifdef SRM_FRAME_POOL_DISABLED
    return ::operator new(n);
#else
    Lists& fl = lists();
    ++fl.stats.allocs;
    std::size_t cls = size_class(n);
    if (cls == kNumClasses) {
      ++fl.stats.oversize;
      return ::operator new(n);
    }
    if (FreeNode* node = fl.head[cls]) {
      fl.head[cls] = node->next;
      ++fl.stats.reused;
      return node;
    }
    return ::operator new(class_bytes(cls));
#endif
  }

  static void deallocate(void* p, [[maybe_unused]] std::size_t n) noexcept {
#ifdef SRM_FRAME_POOL_DISABLED
    ::operator delete(p);
#else
    std::size_t cls = size_class(n);
    if (cls == kNumClasses) {
      ::operator delete(p);
      return;
    }
    Lists& fl = lists();
    auto* node = static_cast<FreeNode*>(p);
    node->next = fl.head[cls];
    fl.head[cls] = node;
#endif
  }

  static Stats stats() { return lists().stats; }
  static void reset_stats() { lists().stats = Stats{}; }

 private:
  // Size classes: 64-byte granularity up to 1 KiB, then 512-byte granularity
  // up to 8 KiB. Frames above that (rare: big stack arrays in a coroutine)
  // fall through to the system allocator.
  static constexpr std::size_t kFineStep = 64;
  static constexpr std::size_t kFineMax = 1024;
  static constexpr std::size_t kCoarseStep = 512;
  static constexpr std::size_t kCoarseMax = 8192;
  static constexpr std::size_t kFineClasses = kFineMax / kFineStep;
  static constexpr std::size_t kNumClasses =
      kFineClasses + (kCoarseMax - kFineMax) / kCoarseStep;

  struct FreeNode {
    FreeNode* next;
  };

  struct Lists {
    FreeNode* head[kNumClasses] = {};
    Stats stats;
    ~Lists() {
      for (FreeNode*& h : head) {
        while (h != nullptr) {
          FreeNode* n = h->next;
          ::operator delete(h);
          h = n;
        }
      }
    }
  };

  static std::size_t size_class(std::size_t n) noexcept {
    if (n <= kFineMax) return (n + kFineStep - 1) / kFineStep - 1;
    if (n <= kCoarseMax) {
      return kFineClasses + (n - kFineMax + kCoarseStep - 1) / kCoarseStep - 1;
    }
    return kNumClasses;
  }
  static std::size_t class_bytes(std::size_t cls) noexcept {
    if (cls < kFineClasses) return (cls + 1) * kFineStep;
    return kFineMax + (cls - kFineClasses + 1) * kCoarseStep;
  }

  static Lists& lists() {
    thread_local Lists fl;
    return fl;
  }
};

}  // namespace srm::sim
