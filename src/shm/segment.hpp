// Segment: the per-node shared-memory arena.
//
// Models a System-V/POSIX shared segment: every task on a node that asks for
// the same name gets the same storage (create-or-attach). Raw buffers are
// zero-initialized and cache-line aligned; "model objects" (flags, counters)
// that carry simulator state are shared the same way.
//
// All the bytes are real — SRM protocols memcpy through these buffers, so
// data-correctness tests validate the actual protocol data flow, not just
// its timing.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <typeindex>
#include <unordered_map>
#include <utility>

#include "chk/chk.hpp"
#include "util/align.hpp"
#include "util/check.hpp"

namespace srm::shm {

class Segment {
 public:
  Segment() = default;
  Segment(const Segment&) = delete;
  Segment& operator=(const Segment&) = delete;

  /// Attach a checker: buffers created from here on register as tracked
  /// regions named "<prefix><buffer name>".
  void set_checker(chk::Checker* chk, std::string prefix = {}) {
    chk_ = chk;
    chk_prefix_ = std::move(prefix);
  }

  /// Create-or-attach a zeroed byte buffer of (at least) @p bytes.
  /// All callers passing the same name must pass the same size.
  std::span<std::byte> buffer(const std::string& name, std::size_t bytes) {
    auto it = buffers_.find(name);
    if (it == buffers_.end()) {
      it = buffers_.emplace(name, make(name, bytes)).first;
    }
    SRM_CHECK_MSG(it->second.size == bytes,
                  "segment buffer '" << name << "' re-attached with size "
                                     << bytes << " != " << it->second.size);
    return {it->second.data.get(), bytes};
  }

  /// Create-or-grow zeroed scratch memory of at least @p bytes, tracked by
  /// the checker like a buffer; the span covers the largest size requested
  /// so far. Scratch is one task's private working memory (peers reach it
  /// only through an address that task hands out), so it is not a shared
  /// buffer and buffer_count() leaves it out. Growing replaces the storage
  /// (the old contents are dropped): no span from an earlier call may still
  /// be in use.
  std::span<std::byte> scratch(const std::string& name, std::size_t bytes) {
    auto it = scratch_.find(name);
    if (it == scratch_.end()) {
      it = scratch_.emplace(name, make(name, bytes)).first;
    } else if (it->second.size < bytes) {
      if (chk_ != nullptr) chk_->unregister_region(it->second.data.get());
      it->second = make(name, bytes);
    }
    return {it->second.data.get(), it->second.size};
  }

  /// Create-or-attach a shared model object (flag array, counter, ...).
  /// The first caller constructs it with @p args; later callers attach.
  template <typename T, typename... Args>
  T& object(const std::string& name, Args&&... args) {
    auto it = objects_.find(name);
    if (it == objects_.end()) {
      auto obj = std::make_shared<T>(std::forward<Args>(args)...);
      it = objects_
               .emplace(name, Obj{std::move(obj), std::type_index(typeid(T))})
               .first;
    }
    SRM_CHECK_MSG(it->second.type == std::type_index(typeid(T)),
                  "segment object '" << name << "' attached with wrong type");
    return *static_cast<T*>(it->second.ptr.get());
  }

  bool contains(const std::string& name) const {
    return buffers_.count(name) != 0 || objects_.count(name) != 0;
  }

  std::size_t buffer_count() const noexcept { return buffers_.size(); }
  std::size_t object_count() const noexcept { return objects_.size(); }

 private:
  struct Buf {
    std::unique_ptr<std::byte[]> data;
    std::size_t size;
  };
  struct Obj {
    std::shared_ptr<void> ptr;
    std::type_index type;
  };
  /// Fresh cache-line-padded storage; make_unique value-initializes it, so
  /// it arrives zeroed.
  Buf make(const std::string& name, std::size_t bytes) {
    std::size_t padded =
        util::align_up(std::max<std::size_t>(bytes, 1), util::kCacheLine);
    auto storage = std::make_unique<std::byte[]>(padded);
    if (chk_ != nullptr) {
      chk_->register_region(storage.get(), bytes, chk_prefix_ + name);
    }
    return Buf{std::move(storage), bytes};
  }
  chk::Checker* chk_ = nullptr;
  std::string chk_prefix_;
  std::unordered_map<std::string, Buf> buffers_;
  std::unordered_map<std::string, Buf> scratch_;
  std::unordered_map<std::string, Obj> objects_;
};

}  // namespace srm::shm
